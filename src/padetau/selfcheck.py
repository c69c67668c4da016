"""Randomized verification suites behind the `selfcheck` command.

Each suite draws its instances from a single seeded generator and emits
one check entry per verified identity, with the exact computed values on
both sides. Runs are deterministic given (suite, trials, seed).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .errors import DegenerateFamily
from .pade import (
    PolyMatrix,
    hermite_pade,
    mahler_duality,
    q_matrix,
    schlesinger_matrix,
    simultaneous_pade,
)
from .pfaffian import (
    det_as_pfaffian,
    det_g,
    key_identity_via_pfaffian,
    pfaffian,
    plucker_check,
    sgn_permutation,
    sylvester_det,
)
from .reports import make_check, poly_matrix_to_dict, poly_to_str
from .sampling import random_family, random_pair_map, random_skew_map
from .series import Polynomial
from .tau import (
    apply_schlesinger,
    one_step_sign,
    remainder_coeff_via_det,
    sylvester_toeplitz_check,
    tau_determinant,
)

__all__ = ["SUITES", "run_suite"]


def _pm_str(pm: PolyMatrix) -> str:
    return json.dumps(poly_matrix_to_dict(pm))


def _pfaffian_suite(trials: int, rng: random.Random) -> list[dict]:
    checks: list[dict] = []
    for t in range(trials):
        f = random_skew_map(rng, range(1, 15))
        ni = rng.choice((1, 3, 3, 5))
        nj = rng.choice((1, 3, 3))
        nk = rng.choice((0, 2, 2, 4))
        letters = rng.sample(range(1, 15), ni + nj + nk)
        iw = tuple(letters[:ni])
        jw = tuple(letters[ni : ni + nj])
        kw = tuple(letters[ni + nj :])
        rep = plucker_check(f, iw, jw, kw)
        checks.append(make_check(f"plucker[{t}]", rep.holds, rep.lhs, rep.rhs))

        word = tuple(rng.sample(range(1, 15), rng.choice((2, 4, 4, 6))))
        shuffled = list(word)
        rng.shuffle(shuffled)
        lhs = pfaffian(f, shuffled)
        rhs = sgn_permutation(word, shuffled) * pfaffian(f, word)
        checks.append(make_check(f"index_change[{t}]", lhs == rhs, lhs, rhs))

        # one-letter exchange: sum over i of sgn * Pf((I \ {i,j}) K) Pf(ijK)
        # recovers Pf(IK) Pf(K)
        even = tuple(rng.sample(range(1, 15), 4))
        core = tuple(a for a in range(1, 15) if a not in even)[:2]
        pivot = rng.randrange(4)
        lhs = Fraction(0)
        for p in range(4):
            if p == pivot:
                continue
            rest = tuple(even[q] for q in range(4) if q not in (p, pivot))
            pair = (even[p], even[pivot])
            lhs += (
                sgn_permutation(even, rest + pair)
                * pfaffian(f, rest + core)
                * pfaffian(f, pair + core)
            )
        rhs = pfaffian(f, even + core) * pfaffian(f, core)
        checks.append(make_check(f"exchange_sum[{t}]", lhs == rhs, lhs, rhs))

        g = random_pair_map(rng, range(1, 7), range(1, 7))
        size = rng.choice((1, 2, 3))
        rows = tuple(rng.sample(range(1, 7), size))
        cols = tuple(rng.sample(range(1, 7), size))
        rep = det_as_pfaffian(g, rows, cols)
        checks.append(make_check(f"det_as_pfaffian[{t}]", rep.holds, rep.lhs, rep.rhs))

        n = rng.choice((2, 3))
        nk = rng.choice((1, 2))
        picks = rng.sample(range(1, 7), n + nk)
        cpicks = rng.sample(range(1, 7), n + nk)
        rep = sylvester_det(g, tuple(picks[:n]), tuple(cpicks[:n]), tuple(picks[n:]), tuple(cpicks[n:]))
        checks.append(make_check(f"sylvester[{t}]", rep.holds, rep.lhs, rep.rhs))
    return checks


def _identities_suite(trials: int, rng: random.Random) -> tuple[list[dict], int]:
    """Checks over random families, and how many draws were degenerate.

    A draw whose type-I system or det Q vanishes is counted and skipped:
    the identities are stated for nondegenerate families only.
    """
    checks: list[dict] = []
    degenerate = 0
    for t in range(trials):
        size = rng.choice((2, 2, 3))
        n = rng.choice((1, 1, 2))
        order = size * (n + 1) + 2
        fam = random_family(rng, size, order)
        try:
            hp = hermite_pade(fam, n)
            pm = simultaneous_pade(hp)
        except DegenerateFamily:
            degenerate += 1
            continue
        duality = mahler_duality(q_matrix(hp), pm, n)
        checks.append(
            make_check(
                f"mahler_duality[{t}]",
                duality.holds,
                _pm_str(duality.product),
                _pm_str(duality.target),
            )
        )

        i = rng.randint(1, size - 1)
        j = rng.randint(1, 2)
        via_det = remainder_coeff_via_det(fam, n, i, j)
        direct = hp.remainders[i].coefficient(size * n + j)
        checks.append(make_check(f"remainder_coeff[{t}]", via_det == direct, via_det, direct))

        rep = sylvester_toeplitz_check(fam, n)
        checks.append(make_check(f"exchange_identity[{t}]", rep.holds, rep.lhs, rep.rhs))

        det_r = schlesinger_matrix(hp).det()
        checks.append(
            make_check(f"det_shift_matrix[{t}]", det_r == Polynomial.one(), poly_to_str(det_r, "x"), "1")
        )

        if t % 5 == 0:
            kir = key_identity_via_pfaffian(fam, n)
            checks.append(
                make_check(
                    f"minor_table_corner[{t}]", kir.corner.holds, kir.corner.lhs, kir.corner.rhs
                )
            )
            checks.append(
                make_check(
                    f"minor_table_sylvester[{t}]",
                    kir.sylvester.holds,
                    kir.sylvester.lhs,
                    kir.sylvester.rhs,
                )
            )

        if t % 3 == 0:
            step_order = size * (n + 1) + 2
            fam2 = random_family(rng, size, step_order + size * n + 1)
            d_here = tau_determinant(fam2, n)
            d_next = tau_determinant(fam2, n + 1)
            if d_here != 0:
                bar = apply_schlesinger(fam2, n)
                lhs = tau_determinant(bar, 1)
                rhs = one_step_sign(size, n) * d_next / d_here
                checks.append(make_check(f"tau_quotient_step[{t}]", lhs == rhs, lhs, rhs))
    return checks, degenerate


SUITES = ("pfaffian", "identities", "all")


def run_suite(suite: str, trials: int, seed: int) -> tuple[dict, list[dict]]:
    """Run one suite (or both); returns (summary results, check entries)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITES}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    checks: list[dict] = []
    degenerate = None
    if suite in ("pfaffian", "all"):
        checks.extend(_pfaffian_suite(trials, rng))
    if suite in ("identities", "all"):
        found, degenerate = _identities_suite(trials, rng)
        checks.extend(found)
    results = {
        "suite": suite,
        "trials": trials,
        "checks_run": len(checks),
        "checks_failed": sum(1 for c in checks if not c["pass"]),
    }
    if degenerate is not None:
        results["degenerate_draws"] = degenerate
    return results, checks
