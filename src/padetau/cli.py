"""Command-line interface: approx, tau, ode, selfcheck, accessory.

Every command prints one deterministic JSON report to stdout. Exit codes:
0 success (flagged degeneracies included), 1 parse/usage error,
2 degenerate precondition, 3 insufficient order, 4 internal error (a
ConsistencyError: two routes that must agree did not, which is a bug in
padetau rather than a problem with the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Sequence

from .errors import (
    BadNormalization,
    ConsistencyError,
    DegenerateFamily,
    InsufficientOrder,
    InvalidPartition,
    NonDiagonalizableLeading,
    NotSquare,
    OddLength,
    ParityViolation,
    ResonantExponents,
    ShapeMismatch,
    SingularMatrix,
    ZeroParameter,
)
from .ode import (
    accessory_count,
    gauge_expansion,
    gauge_residual,
    ode_from_dict,
    pii_system,
)
from .pade import (
    hermite_pade,
    mahler_duality,
    q_matrix,
    schlesinger_matrix,
    simultaneous_pade,
)
from .reports import (
    canonical_json,
    check_series_size,
    family_to_series_file,
    make_check,
    make_report,
    poly_matrix_to_dict,
    poly_to_str,
    series_file_to_family,
    series_to_strings,
)
from .selfcheck import SUITES, run_suite
from .series import Polynomial, SeriesFamily
from .tau import tau_quotient_table

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative rational such as "-1/2" is a value, not an option;
        # argparse's own pattern knows only "-1" and "-0.5".
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use and then reused:
    parse_args keeps no state between calls."""
    parser = _Parser(
        prog="padetau",
        description="Exact Hermite-Pade approximation, block Toeplitz "
        "tau-quotients, Pfaffian identities, and ODE expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="solve the type-I approximation problem")
    p.add_argument("input", help="series file (JSON, v1)")
    p.add_argument("-n", type=int, required=True, help="approximation degree")
    p.add_argument(
        "--emit",
        choices=("q", "p", "remainders", "all"),
        default="q",
        help="which tables to include in the report",
    )

    p = sub.add_parser("tau", help="tau determinants and quotients")
    p.add_argument("input", help="series file (JSON, v1)")
    p.add_argument("--n-max", type=int, required=True, help="largest level")

    p = sub.add_parser("ode", help="expand a linear system at infinity")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="ODE spec file (JSON, v1)")
    src.add_argument(
        "--pii",
        nargs=5,
        metavar=("THETA", "LAMBDA", "MU", "U", "T"),
        help="the built-in 2x2 rank-3 polynomial system",
    )
    p.add_argument("--order", type=int, required=True, help="trusted series order")
    p.add_argument("--out", help="write the resulting series file here")

    p = sub.add_parser("selfcheck", help="randomized identity suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0, help="overridden by env SEED")

    p = sub.add_parser("accessory", help="accessory-parameter count")
    p.add_argument("spectral", help='partitions like "1,1;1,1;1,1"')
    p.add_argument("-L", type=int, required=True, help="system size")
    p.add_argument("-N", type=int, required=True, help="number of finite points")
    return parser


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_approx(args) -> dict:
    fam = series_file_to_family(_load_json(args.input))
    hp = hermite_pade(fam, args.n)
    qm = q_matrix(hp)
    pm = simultaneous_pade(hp)
    results = {
        "fingerprint": fam.fingerprint(),
        "vanishing_remainders": list(hp.vanishing),
    }
    if args.emit in ("q", "all"):
        results["q_rows"] = [[poly_to_str(p) for p in row] for row in hp.q_table]
    if args.emit in ("p", "all"):
        results["p_matrix"] = poly_matrix_to_dict(pm)
    if args.emit in ("remainders", "all"):
        results["remainders"] = [series_to_strings(r) for r in hp.remainders]

    size, n = fam.size, hp.n
    duality = mahler_duality(qm, pm, n)
    checks = [
        make_check(
            "mahler_duality",
            duality.holds,
            json.dumps(poly_matrix_to_dict(duality.product)),
            json.dumps(poly_matrix_to_dict(duality.target)),
        )
    ]
    degrees = [
        [poly.degree if not poly.is_zero() else None for poly in row]
        for row in hp.q_table
    ]
    bounds = [[n - 1 + (1 if i == j else 0) for j in range(size)] for i in range(size)]
    ok = all(
        d is None or d <= bounds[i][j]
        for i, row in enumerate(degrees)
        for j, d in enumerate(row)
    )
    checks.append(
        make_check("q_degree_bounds", ok, json.dumps(degrees), json.dumps(bounds))
    )
    # Row 0 pins the remainder's leading coefficient instead, so only
    # rows i >= 1 carry the Q^(i)_i(0) = 1 normalization.
    constants = [str(hp.q_table[i][i].coefficient(0)) for i in range(1, size)]
    checks.append(
        make_check(
            "q_normalization",
            all(c == "1" for c in constants),
            json.dumps(constants),
            json.dumps(["1"] * (size - 1)),
        )
    )
    det_r = schlesinger_matrix(hp).det()
    checks.append(
        make_check("det_shift_matrix", det_r == Polynomial.one(), poly_to_str(det_r, "x"), "1")
    )
    return make_report(
        "approx",
        {"input": args.input, "n": args.n, "emit": args.emit},
        results,
        checks,
    )


def _cmd_tau(args) -> dict:
    fam = series_file_to_family(_load_json(args.input))
    table = tau_quotient_table(fam, args.n_max)
    results = {
        "fingerprint": table.fingerprint,
        "dets": [[n, str(d)] for n, d in table.dets],
        "ratios": [[n, str(r)] for n, r in table.ratios],
        "degenerate": list(table.degenerate),
    }
    checks = [
        make_check(f"exchange_identity_n{n}", rep.holds, rep.lhs, rep.rhs)
        for n, rep in enumerate(table.exchange, start=1)
    ]
    return make_report(
        "tau", {"input": args.input, "n_max": args.n_max}, results, checks
    )


def _cmd_ode(args) -> dict:
    if args.pii is not None:
        ode = pii_system(*args.pii)
        source = {"pii": list(args.pii)}
    else:
        ode = ode_from_dict(_load_json(args.spec))
        source = {"spec": args.spec}
    # The output is a series file: refuse one that approx and tau would
    # reject before spending the expansion on it.
    if ode.size < 2:
        raise ValueError("a family needs at least two members")
    check_series_size(ode.size, args.order)
    gauge = gauge_expansion(ode, args.order)
    tdata = gauge.exponents
    fam = SeriesFamily(gauge.psi.first_column())
    series_file = family_to_series_file(fam)
    ok, window = gauge_residual(ode, gauge)
    # A file left by a run whose check failed or that raised would look valid.
    written_to = args.out if ok and args.out else None
    if written_to:
        with open(written_to, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(series_file))
    vanishing = [
        i for i in range(1, fam.size) if fam.series(i).is_zero()
    ]
    results = {
        "L": ode.size,
        "rank_at_infinity": ode.rank_at_infinity,
        "irregular": [[str(x) for x in diag] for diag in tdata.irregular],
        "exponents": [str(x) for x in tdata.exponents],
        "series_file": series_file,
        "written_to": written_to,
    }
    if vanishing:
        results["degenerate_members"] = vanishing
        results["note"] = "listed members vanish identically on the trusted window"
    checks = [
        make_check(f"ode_residual_to_order_{window}", ok, "0" if ok else "nonzero", "0")
    ]
    return make_report(
        "ode", {**source, "order": args.order, "out": args.out}, results, checks
    )


def _cmd_selfcheck(args, seed: int) -> dict:
    results, checks = run_suite(args.suite, args.trials, seed)
    return make_report(
        "selfcheck",
        {"suite": args.suite, "trials": args.trials},
        results,
        checks,
        seed=seed,
    )


def _cmd_accessory(args) -> dict:
    parts = [part.split(",") for part in args.spectral.split(";")]
    # ASCII digits only: int() alone would also take " 1", "+1" and "1_0"
    if not all(x.isascii() and x.isdigit() for p in parts for x in p):
        raise InvalidPartition(f"cannot parse spectral type {args.spectral[:40]!r}")
    spectral = tuple(tuple(int(x) for x in p) for p in parts)
    count = accessory_count(spectral, args.L, args.N)
    results = {
        "L": args.L,
        "N": args.N,
        "spectral": [list(p) for p in spectral],
        "count": count,
    }
    return make_report(
        "accessory",
        {"spectral": args.spectral, "L": args.L, "N": args.N},
        results,
        [],
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "approx":
            report = _cmd_approx(args)
        elif args.command == "tau":
            report = _cmd_tau(args)
        elif args.command == "ode":
            report = _cmd_ode(args)
        elif args.command == "selfcheck":
            env_seed = os.environ.get("SEED")
            seed = int(env_seed) if env_seed is not None else args.seed
            report = _cmd_selfcheck(args, seed)
        else:
            report = _cmd_accessory(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateFamily, NonDiagonalizableLeading, ResonantExponents, ZeroParameter, SingularMatrix) as exc:
        print(f"degenerate precondition: {exc}", file=sys.stderr)
        return 2
    except InsufficientOrder as exc:
        print(f"insufficient order: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        BadNormalization,
        InvalidPartition,
        NotSquare,
        OddLength,
        ParityViolation,
        ShapeMismatch,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(canonical_json(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
