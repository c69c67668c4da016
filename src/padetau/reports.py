"""Versioned JSON formats: series files and deterministic reports.

All rationals cross the boundary as strings ("p/q" or "p"); no floats
ever appear. Reports are rendered with a fixed canonical layout so that
identical inputs (and seed) produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .pade import PolyMatrix
from .series import Polynomial, SeriesFamily, TruncatedSeries, rational

__all__ = [
    "family_to_series_file",
    "series_file_to_family",
    "poly_to_str",
    "poly_matrix_to_dict",
    "series_to_strings",
    "make_check",
    "make_report",
    "canonical_json",
]

# A series file pads every row to the full window, and all later work runs
# over it, so L * order is capped at this many coefficients.
MAX_SERIES_COEFFICIENTS = 100_000


def check_series_size(size: int, order: int) -> None:
    """Raise ValueError when L * order exceeds MAX_SERIES_COEFFICIENTS."""
    if size * order > MAX_SERIES_COEFFICIENTS:
        raise ValueError(
            f"L * order = {size * order} exceeds the limit of {MAX_SERIES_COEFFICIENTS} coefficients"
        )


def family_to_series_file(fam: SeriesFamily) -> dict:
    return {
        "v": 1,
        "L": fam.size,
        "order": fam.order,
        "series": [
            [str(fam.coefficient(i, k)) for k in range(fam.order)]
            for i in range(fam.size)
        ],
    }


def series_file_to_family(data: dict) -> SeriesFamily:
    """Parse and validate a v1 series file into a SeriesFamily."""
    if not isinstance(data, dict):
        raise ValueError("series file must be an object")
    if type(data.get("v")) is not int or data["v"] != 1:
        raise ValueError("unsupported series file version")
    size = data.get("L")
    order = data.get("order")
    series = data.get("series")
    if type(size) is not int or size < 2:
        raise ValueError("L must be an integer >= 2")
    if type(order) is not int or order < 1:
        raise ValueError("order must be a positive integer")
    check_series_size(size, order)
    if not isinstance(series, list) or len(series) != size:
        raise ValueError(f"series must list exactly L = {size} coefficient rows")
    members = []
    for row in series:
        if not isinstance(row, list) or len(row) > order:
            raise ValueError("each series row must list at most `order` coefficients")
        members.append(TruncatedSeries([rational(x) for x in row], order))
    return SeriesFamily(members)


def poly_to_str(p: Polynomial, var: str = "w") -> str:
    """Compact canonical form like \"1 - 2*w^2\"."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(int(p.degree) + 1):
        c = p.coefficient(k)
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        parts.append(("-" if c < 0 else "+", body))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def poly_matrix_to_dict(pm: PolyMatrix) -> list[list[str]]:
    return [
        [poly_to_str(pm.entry(i, j), pm.var) for j in range(pm.size)]
        for i in range(pm.size)
    ]


def series_to_strings(s: TruncatedSeries) -> list[str]:
    return [str(s.coefficient(k)) for k in range(s.order)]


def make_check(name: str, ok: bool, lhs: object, rhs: object) -> dict:
    return {"name": name, "pass": bool(ok), "lhs": str(lhs), "rhs": str(rhs)}


def make_report(
    command: str,
    inputs: dict,
    results: dict,
    checks: Sequence[dict],
    seed: int | None = None,
) -> dict:
    report = {
        "v": 1,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": list(checks),
    }
    if seed is not None:
        report["seed"] = seed
    return report


def canonical_json(obj: object) -> str:
    """Fixed rendering: two-space indent, no key sorting, trailing newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
