"""Correctness of one job's output, checked outside the timed region.

Every job must exit as expected and every check in its report must pass.
On top of that each subcommand gets at least one independent check that
reuses no padetau code: exact arithmetic here is plain ``Fraction`` lists
and Gaussian elimination written for the benchmark.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .gen import Job


class CheckFailed(Exception):
    """The job's output is wrong; the message says which check failed."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ----------------------------------------------------------------- arithmetic


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [list(row) for row in matrix]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            if factor:
                for c in range(k, n):
                    a[r][c] -= factor * a[k][c]
    return out


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?([a-z])(?:\^(\d+))?$")


def parse_poly(text: str) -> list[Fraction]:
    """Ascending coefficients of a report polynomial like "1 - 3/2*w^2"."""
    coeffs: dict[int, Fraction] = {}
    tokens = text.split(" ")
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    for pos, token in enumerate(tokens):
        if pos % 2:
            require(token in "+-", f"bad polynomial {text!r}")
            sign = 1 if token == "+" else -1
            continue
        m = _TERM.match(token)
        if m:
            c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            k = int(m.group(3)) if m.group(3) else 1
        else:
            c, k = Fraction(token), 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * c
    if not coeffs:
        return []
    out = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
    return trim(out)


def trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[j + k] += x * y
    return out


def poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for k, x in enumerate(a):
        out[k] += x
    for k, x in enumerate(b):
        out[k] += x
    return trim(out)


def series_coeff(rows: list[list[Fraction]], j: int, k: int) -> Fraction:
    return rows[j][k] if k >= 0 else Fraction(0)


def type_one_matrices(rows: list[list[Fraction]], n: int):
    """The square type-I system B (order Ln) and its row-0 extension B0.

    Row a of B holds the coefficients of w^{a+1} in sum_j w Q_j f_j, so
    block j, column c reads b^j_{a-c}; B0 adds one row and lets block 0
    carry the extra unweighted column.
    """
    size = len(rows)
    ln = size * n
    b = [
        [series_coeff(rows, j, a - c) for j in range(size) for c in range(n)]
        for a in range(ln)
    ]
    b0 = [
        [series_coeff(rows, 0, a - c) for c in range(n + 1)]
        + [series_coeff(rows, j, a - 1 - c) for j in range(1, size) for c in range(n)]
        for a in range(ln + 1)
    ]
    return b, b0


def toeplitz_det(rows: list[list[Fraction]], n: int) -> Fraction:
    """D_n: the full block Toeplitz determinant of order Ln."""
    if n == 0:
        return Fraction(1)
    b, _ = type_one_matrices(rows, n)
    return det(b)


# --------------------------------------------------------- per-command checks


def _rows(job: Job) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in job.data["rows"]]


def check_approx(job: Job, report: dict) -> None:
    rows = _rows(job)
    size, n = len(rows), job.data["n"]
    ln = size * n
    res = report["results"]
    q = [[parse_poly(s) for s in row] for row in res["q_rows"]]
    p = [[parse_poly(s) for s in row] for row in res["p_matrix"]]
    require(len(q) == size and len(p) == size, "approx: table sizes")
    # entry (i, j) of Q(w) is w^{1 - delta_ij} Q^(i)_j
    weighted = [
        [[Fraction(0)] + q[i][j] if q[i][j] and i != j else q[i][j] for j in range(size)]
        for i in range(size)
    ]
    # rho^i = sum_j w^{1 - delta_ij} Q^(i)_j f_j = w^{Ln} (delta_{i0} + O(w))
    for i in range(size):
        for k in range(ln + 1):
            rho = sum(
                (c * series_coeff(rows, j, k - e)
                 for j in range(size) for e, c in enumerate(weighted[i][j]) if c),
                Fraction(0),
            )
            want = 1 if (k == ln and i == 0) else 0
            require(rho == want, f"approx: remainder {i} coefficient {k} is {rho}")
    # Mahler duality Q P^T = w^{Ln} I
    for i in range(size):
        for j in range(size):
            acc: list[Fraction] = []
            for k in range(size):
                acc = poly_add(acc, poly_mul(weighted[i][k], p[j][k]))
            want = [Fraction(0)] * ln + [Fraction(1)] if i == j else []
            require(acc == want, f"approx: (Q P^T)[{i}][{j}] != {'w^Ln' if i == j else 0}")


def check_tau(job: Job, report: dict) -> None:
    rows = _rows(job)
    n_max = job.data["n_max"]
    res = report["results"]
    dets = [(n, Fraction(d)) for n, d in res["dets"]]
    require([n for n, _ in dets] == list(range(n_max + 1)), "tau: dets indices")
    for n, d in dets[:4]:
        require(toeplitz_det(rows, n) == d, f"tau: D_{n} disagrees with elimination")
    values = [d for _, d in dets]
    want_ratios = [[n, str(values[n + 1] / d)] for n, d in dets if d != 0 and n < n_max]
    require(res["ratios"] == want_ratios, "tau: ratios inconsistent with dets")
    require(res["degenerate"] == [n for n, d in dets if d == 0], "tau: degenerate list")


def check_ode(job: Job, report: dict) -> None:
    """Riccati identity -w^4 f' = At10 + (At11 - At00) f - At01 f^2 (rank 3).

    At(w) = w^{r-1} A(1/w) = -sum_j A_{inf,-j} w^{r-j} for a system without
    finite poles; f = Phi_10 / Phi_00 is row 1 of the emitted series file.
    """
    spec = job.data["spec"]
    order = job.data["order"]
    sfile = report["results"]["series_file"]
    require(sfile["order"] == order and sfile["L"] == 2, "ode: series file shape")
    f0 = [Fraction(x) for x in sfile["series"][0]]
    require(f0 == [1] + [0] * (order - 1), "ode: f_0 is not 1")
    f = [Fraction(x) for x in sfile["series"][1]]
    r = len(spec["infinity"])

    def at(a: int, b: int) -> list[Fraction]:
        out = [Fraction(0)] * order
        for j, m in enumerate(spec["infinity"], start=1):
            if r - j < order:
                out[r - j] -= Fraction(m[a][b])
        return out

    def mul(x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * order
        for i, u in enumerate(x):
            if u:
                for k in range(order - i):
                    out[i + k] += u * y[k]
        return out

    diff = [u - v for u, v in zip(at(1, 1), at(0, 0))]
    rhs = [u + v - w for u, v, w in zip(at(1, 0), mul(diff, f), mul(at(0, 1), mul(f, f)))]
    lhs = [Fraction(0)] * order
    for k in range(1, order):  # w^4 * k f_k w^{k-1}
        if k + 3 < order:
            lhs[k + 3] = -k * f[k]
    require(lhs == rhs, "ode: Riccati identity fails")


def check_selfcheck(job: Job, report: dict) -> None:
    res = report["results"]
    checks = report["checks"]
    require(report.get("seed") == job.data["seed"], "selfcheck: seed")
    require(res["checks_run"] == len(checks) == 5 * job.data["trials"], "selfcheck: count")
    require(res["checks_failed"] == 0, "selfcheck: failures reported")
    for c in checks:
        require(Fraction(c["lhs"]) == Fraction(c["rhs"]), f"selfcheck: {c['name']} sides differ")


def check_accessory(job: Job, report: dict) -> None:
    size, points, parts = job.data["L"], job.data["N"], job.data["parts"]
    want = 2 + (points - 1) * size * size - sum(m * m for p in parts for m in p)
    require(report["results"]["count"] == want, "accessory: closed-form count")


INDEPENDENT = {
    "approx": check_approx,
    "tau": check_tau,
    "ode": check_ode,
    "selfcheck": check_selfcheck,
    "accessory": check_accessory,
}


def classify(job: Job, code: int, stdout: str) -> str | None:
    """None when the job completed correctly, else why it failed.

    Exit 2 from approx is a completed job exactly when the benchmark's own
    elimination finds a type-I system singular; anything else is a failure.
    """
    try:
        if code == 2 and job.kind == "approx":
            b, b0 = type_one_matrices(_rows(job), job.data["n"])
            require(det(b) == 0 or det(b0) == 0, "approx: exit 2 on a nonsingular system")
            return None
        require(code == 0, f"{job.kind}: exit code {code}")
        report = json.loads(stdout)
        require(report.get("command") == job.kind, "report names another command")
        for c in report["checks"]:
            require(c["pass"] is True, f"{job.kind}: report check {c['name']} failed")
        INDEPENDENT[job.kind](job, report)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"{job.kind}: malformed output ({type(exc).__name__}: {exc})"
    return None
