"""Acceptance gate: ten exact desk-scale criteria, one test (and one
printed verdict line) per criterion. Everything is checked with exact
rational equality; there are no tolerances anywhere in this file.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

import padetau
from padetau.errors import DegenerateFamily
from padetau.ode import accessory_count, expand_at_infinity, pii_system
from padetau.pade import (
    hermite_pade,
    mahler_duality,
    q_matrix,
    simultaneous_pade,
)
from padetau.pfaffian import (
    SkewMap,
    det_as_pfaffian,
    key_identity_via_pfaffian,
    pfaffian,
    plucker_check,
    sgn_permutation,
    sylvester_det,
)
from padetau.sampling import (
    random_family,
    random_fraction,
    random_pair_map,
    random_skew_map,
    random_unit_matrix_series,
)
from padetau.series import SeriesFamily, TruncatedSeries, normalize_family
from padetau.tau import (
    apply_schlesinger,
    one_step_sign,
    remainder_coeff_via_det,
    schlesinger_shift_check,
    sylvester_toeplitz_check,
    tau_determinant,
)


def verdict(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures[:8])


def draw_nondegenerate(rng, size, order, n, failures, tag):
    """Draw random families until hermite_pade accepts one (capped)."""
    for _ in range(40):
        fam = random_family(rng, size, order)
        try:
            return fam, hermite_pade(fam, n)
        except DegenerateFamily:
            continue
    failures.append(f"{tag}: could not draw a nondegenerate family in 40 tries")
    return None, None


def arithmetic_family(order: int = 8) -> SeriesFamily:
    return SeriesFamily(
        [TruncatedSeries.constant(1, order), TruncatedSeries(list(range(order)), order)]
    )


def geometric_family(order: int = 8) -> SeriesFamily:
    return SeriesFamily(
        [
            TruncatedSeries.constant(1, order),
            TruncatedSeries([0] + [1] * (order - 1), order),
        ]
    )


def test_criterion_01_mahler_duality():
    failures: list[str] = []
    rng = random.Random(101)
    start = time.monotonic()
    for size in (2, 3, 4):
        for n in (1, 2, 3):
            for trial in range(100):
                fam, hp = draw_nondegenerate(
                    rng, size, size * n + 2, n, failures, f"L={size} n={n}"
                )
                if hp is None:
                    break
                if not mahler_duality(q_matrix(hp), simultaneous_pade(hp), n).holds:
                    failures.append(f"L={size} n={n} trial {trial}: duality violated")
    elapsed = time.monotonic() - start
    if elapsed > 120:
        failures.append(f"took {elapsed:.1f}s, budget is 120s")
    verdict(1, "Mahler duality Q * P^T = w^(nL) I, 900 random families", failures)


def test_criterion_02_remainder_formula():
    failures: list[str] = []
    rng = random.Random(202)
    for size in (2, 3, 4):
        for n in (1, 2, 3):
            for trial in range(100):
                fam, hp = draw_nondegenerate(
                    rng, size, size * n + 4, n, failures, f"L={size} n={n}"
                )
                if hp is None:
                    break
                for i in range(1, size):
                    for j in (1, 2, 3):
                        series_route = hp.remainders[i].coefficient(size * n + j)
                        det_route = remainder_coeff_via_det(fam, n, i, j)
                        if series_route != det_route:
                            failures.append(
                                f"L={size} n={n} trial {trial} rho^{i}_{j}: "
                                f"{series_route} != {det_route}"
                            )
    verdict(2, "remainder coefficients match signed bordered ratios", failures)


def test_criterion_03_exchange_identity():
    failures: list[str] = []
    rng = random.Random(303)
    for size in (2, 3, 4):
        for n in (1, 2):
            for trial in range(25):
                fam = random_family(rng, size, size * (n + 1) + 1)
                rep = sylvester_toeplitz_check(fam, n)
                if not rep.holds:
                    failures.append(
                        f"L={size} n={n} trial {trial}: {rep.lhs} != {rep.rhs}"
                    )
    rep = sylvester_toeplitz_check(geometric_family(), 1)
    if not (rep.holds and rep.lhs == 0 and rep.rhs == 0):
        failures.append(
            f"degenerate instance should be 0 = 0, got {rep.lhs} vs {rep.rhs}"
        )
    verdict(3, "exchange identity incl. a both-sides-zero family", failures)


def test_criterion_04_shift_matrix_structure():
    failures: list[str] = []
    phi, _ = expand_at_infinity(
        pii_system(Fraction(1, 2), 0, -1, 1, 2), 10
    )
    rep = schlesinger_shift_check(phi, 1)
    if not rep.det_r_one:
        failures.append("PII expansion: det R(x) != 1")
    if rep.failures:
        failures.append(f"PII expansion: {'; '.join(rep.failures)}")
    rng = random.Random(404)
    done = attempts = 0
    while done < 50 and attempts < 200:
        attempts += 1
        size = 2 if done % 2 == 0 else 3
        phi = random_unit_matrix_series(rng, size, 8)
        try:
            rep = schlesinger_shift_check(phi, 1)
        except DegenerateFamily:
            continue
        if not rep.det_r_one:
            failures.append(f"unit series {done}: det R(x) != 1")
        if rep.failures:
            failures.append(f"unit series {done}: {'; '.join(rep.failures)}")
        done += 1
    if done < 50:
        failures.append(f"only {done}/50 unit matrix series were usable")
    verdict(4, "det R = 1 and exponent shift on PII + 50 unit series", failures)


def test_criterion_05_iterated_consistency():
    failures: list[str] = []
    fam = arithmetic_family()
    bar = apply_schlesinger(fam, 1)
    if any(
        bar.coefficient(1, k) != (-1 if k == 1 else 0) for k in range(bar.order)
    ):
        failures.append("worked instance: transformed member is not -w")
    d_bar = tau_determinant(bar, 1)
    if d_bar != -1:
        failures.append(f"worked instance: transformed determinant {d_bar} != -1")
    expected = (
        one_step_sign(2, 1) * tau_determinant(fam, 2) / tau_determinant(fam, 1)
    )
    if d_bar != expected:
        failures.append(f"worked instance: {d_bar} != s*D_2/D_1 = {expected}")
    rng = random.Random(505)
    for size in (2, 3):
        for n in (1, 2):
            order = size * n + size + 2
            done = attempts = 0
            while done < 25 and attempts < 200:
                attempts += 1
                fam = random_family(rng, size, order)
                d_n = tau_determinant(fam, n)
                if d_n == 0:
                    continue
                try:
                    bar = apply_schlesinger(fam, n)
                except DegenerateFamily:
                    continue
                want = one_step_sign(size, n) * tau_determinant(fam, n + 1) / d_n
                got = tau_determinant(bar, 1)
                if got != want:
                    failures.append(
                        f"L={size} n={n} trial {done}: {got} != {want}"
                    )
                done += 1
            if done < 25:
                failures.append(f"L={size} n={n}: only {done}/25 usable families")
    verdict(5, "one-step determinant ratio s * D_(n+1)/D_n", failures)


def test_criterion_06_painleve_ii_coefficients():
    failures: list[str] = []
    rng = random.Random(606)
    done = 0
    while done < 20:
        theta, lam, mu, u, t = (random_fraction(rng) for _ in range(5))
        if u == 0:
            continue
        phi, _ = expand_at_infinity(pii_system(theta, lam, mu, u, t), 8)
        fam = normalize_family(phi.first_column())
        got = tuple(fam.coefficient(1, k) for k in (1, 2, 3))
        want = (-mu / u, -(theta + lam * mu) / u, mu * (mu + t) / (2 * u))
        if got != want:
            failures.append(
                f"(theta,lam,mu,u,t)=({theta},{lam},{mu},{u},{t}): {got} != {want}"
            )
        done += 1
    verdict(6, "closed-form b1, b2, b3 at 20 random parameter tuples", failures)


def exchange_sum(f: SkewMap, iw: tuple[int, ...], kw: tuple[int, ...], j: int):
    total = Fraction(0)
    for i in iw:
        if i == j:
            continue
        rest = tuple(x for x in iw if x not in (i, j))
        total += (
            sgn_permutation(iw, rest + (i, j))
            * pfaffian(f, rest + kw)
            * pfaffian(f, (i, j) + kw)
        )
    return total


def test_criterion_07_pfaffian_suite():
    failures: list[str] = []
    rng = random.Random(707)
    start = time.monotonic()

    for trial in range(40):
        f = random_skew_map(rng, range(1, 13))
        iw = tuple(rng.sample(range(1, 13), rng.choice((1, 3, 5))))
        jw = tuple(rng.sample(range(1, 13), rng.choice((1, 3, 5))))
        kw = tuple(rng.sample(range(1, 13), rng.choice((0, 2, 4))))
        rep = plucker_check(f, iw, jw, kw)
        if not rep.holds:
            failures.append(f"plucker trial {trial}: {rep.lhs} != {rep.rhs}")

    for trial in range(40):
        f = random_skew_map(rng, range(1, 11))
        iw = tuple(rng.sample(range(1, 11), rng.choice((2, 4, 6))))
        rest = [x for x in range(1, 11) if x not in iw]
        kw = tuple(rng.sample(rest, rng.choice((0, 2, 4))))
        j = rng.choice(iw)
        if exchange_sum(f, iw, kw, j) != pfaffian(f, iw + kw) * pfaffian(f, kw):
            failures.append(f"exchange sum trial {trial}")

    for trial in range(25):
        f = random_skew_map(rng, range(1, 11))
        half = rng.choice((1, 2, 3))
        iw = tuple(rng.sample(range(1, 11), 2 * half))
        rest = [x for x in range(1, 11) if x not in iw]
        kw = tuple(rng.sample(rest, rng.choice((0, 2, 4))))
        big = SkewMap(lambda a, b: pfaffian(f, (a, b) + kw))
        if pfaffian(big, iw) != pfaffian(f, iw + kw) * pfaffian(f, kw) ** (half - 1):
            failures.append(f"induced pair-pfaffian trial {trial}")

    for trial in range(40):
        m = rng.choice((1, 2, 3))
        g = random_pair_map(rng, range(1, 9), range(1, 9))
        rep = det_as_pfaffian(
            g, rng.sample(range(1, 9), m), rng.sample(range(1, 9), m)
        )
        if not rep.holds:
            failures.append(f"det-as-pfaffian trial {trial}: {rep.lhs} != {rep.rhs}")

    for trial in range(25):
        block, core = rng.choice((2, 3)), rng.choice((1, 2))
        row_letters = rng.sample(range(1, 9), block + core)
        col_letters = rng.sample(range(1, 9), block + core)
        g = random_pair_map(rng, range(1, 9), range(1, 9))
        rep = sylvester_det(
            g,
            row_letters[:block],
            col_letters[:block],
            row_letters[block:],
            col_letters[block:],
        )
        if not rep.holds:
            failures.append(f"sylvester trial {trial}: {rep.lhs} != {rep.rhs}")

    f = random_skew_map(rng, range(1, 7))
    for m in (0, 2, 4, 6):
        base = tuple(range(1, m + 1))
        ref = pfaffian(f, base)
        bad = sum(
            1
            for perm in permutations(base)
            if pfaffian(f, perm) != sgn_permutation(base, perm) * ref
        )
        if bad:
            failures.append(f"index change |I|={m}: {bad} permutations disagree")

    elapsed = time.monotonic() - start
    if elapsed > 180:
        failures.append(f"took {elapsed:.1f}s, budget is 180s")
    verdict(7, "Pfaffian identity suite + exhaustive index change", failures)


def test_criterion_08_toeplitz_specialization():
    failures: list[str] = []
    rng = random.Random(808)
    for size in (2, 3):
        for n in (1, 2):
            for trial in range(10):
                fam = random_family(rng, size, size * (n + 1) + 1)
                rep = key_identity_via_pfaffian(fam, n)
                if not rep.corner.holds:
                    failures.append(f"L={size} n={n} trial {trial}: corner != D_n")
                if not rep.extended.holds:
                    failures.append(
                        f"L={size} n={n} trial {trial}: extended != signed D_(n+1)"
                    )
                for sub in rep.bordered:
                    if not sub.holds:
                        failures.append(
                            f"L={size} n={n} trial {trial} {sub.name}: "
                            f"{sub.lhs} != {sub.rhs}"
                        )
                if not (rep.sylvester.holds and rep.exchange.holds):
                    failures.append(f"L={size} n={n} trial {trial}: identity broken")
    verdict(8, "coefficient-table minors reproduce D and E exactly", failures)


def test_criterion_09_accessory_counts():
    failures: list[str] = []
    if accessory_count(((1, 1), (1, 1), (1, 1)), 2, 2) != 0:
        failures.append("three (1,1) partitions, L=2, N=2 should count 0")
    if accessory_count(((1, 1), (1, 1), (1, 1), (1, 1)), 2, 3) != 2:
        failures.append("four (1,1) partitions, L=2, N=3 should count 2")
    verdict(9, "accessory-parameter counts 0 and 2", failures)


def test_criterion_10_cli_determinism(tmp_path):
    failures: list[str] = []
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(
        json.dumps(
            {
                "v": 1,
                "L": 2,
                "order": 8,
                "series": [
                    ["1"] + ["0"] * 7,
                    ["0"] + ["1"] * 7,
                ],
            }
        ),
        encoding="utf-8",
    )
    out_path = tmp_path / "expansion.json"
    commands = [
        ["approx", str(fam_path), "-n", "1", "--emit", "all"],
        ["tau", str(fam_path), "--n-max", "2"],
        ["ode", "--pii", "1/2", "0", "-1", "1", "2", "--order", "8",
         "--out", str(out_path)],
        ["selfcheck", "--suite", "all", "--trials", "6", "--seed", "5"],
        ["accessory", "1,1;1,1;1,1;1,1", "-L", "2", "-N", "3"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "SEED"}
    # The subprocesses must import the package under test, also when only
    # pytest's own `pythonpath` setting put it on sys.path.
    src = os.path.dirname(os.path.dirname(padetau.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in commands:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "padetau.cli", *argv],
                capture_output=True,
                env=env,
            )
            if proc.returncode != 0:
                failures.append(
                    f"{argv[0]}: exit {proc.returncode}: {proc.stderr.decode()[:120]}"
                )
            runs.append((proc.stdout, out_path.read_bytes() if argv[0] == "ode" else b""))
        if runs[0] != runs[1]:
            failures.append(f"{argv[0]}: two identical runs differ")
        if not runs[0][0].endswith(b"\n"):
            failures.append(f"{argv[0]}: report does not end with a newline")
    verdict(10, "byte-identical CLI reports across repeat runs", failures)
