"""Seeded job generator for the padetau benchmark.

Deliberately independent of ``padetau.sampling``: a change to the library
cannot change what the benchmark feeds it. One ``random.Random(seed)``
draws every job of a workload; the same seed gives byte-identical input
files and argument lists.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("approx-wide", "tau-deep", "ode-long", "small-mixed")

# Jobs drawn per workload. The timed loop walks this pool in order and
# starts again from the top only if a much faster program exhausts it.
POOL_SIZE = {
    "approx-wide": 1500,
    "tau-deep": 1500,
    "ode-long": 1000,
    "small-mixed": 6000,
}

# Inputs kept at these sizes so a job at the parent commit takes about
# 0.1-0.2 s (the three deep workloads) or 1-12 ms (small-mixed).
APPROX_WIDE = {"L": 5, "n": 2}
TAU_DEEP = {"L": 3, "n_max": 8}
ODE_LONG = {"order": 60}


@dataclass
class Job:
    """One CLI invocation: its argv and the data the checks need."""

    kind: str
    argv: list[str]
    data: dict = field(default_factory=dict)


def fraction(rng: random.Random, span: int = 9, den: int = 4) -> Fraction:
    """p/q with |p| <= span and 1 <= q <= den."""
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def nonzero_fraction(rng: random.Random, span: int = 9, den: int = 4) -> Fraction:
    p = rng.randint(1, span) * rng.choice((-1, 1))
    return Fraction(p, rng.randint(1, den))


def family_rows(rng: random.Random, size: int, order: int) -> list[list[str]]:
    """Rows of a series file: f_0 = 1, f_i = O(w) with random coefficients."""
    rows = [["1"] + ["0"] * (order - 1)]
    for _ in range(size - 1):
        rows.append(["0"] + [str(fraction(rng)) for _ in range(order - 1)])
    return rows


def series_file(rows: list[list[str]]) -> dict:
    return {"v": 1, "L": len(rows), "order": len(rows[0]), "series": rows}


def pii_spec(rng: random.Random) -> dict:
    """A 2x2 rank-3 system of the Painleve II shape with seeded parameters.

    A(x) = a2 x^2 + a1 x + a0 with a2 = diag(1, -1); the spec lists
    A_{inf,-j} = -(coefficient of x^{j-1}).
    """
    theta, lam, mu, t = (fraction(rng) for _ in range(4))
    u = nonzero_fraction(rng)
    a0 = [[mu + t / 2, -u * lam], [-2 * (lam * mu + theta) / u, -mu - t / 2]]
    a1 = [[Fraction(0), u], [-2 * mu / u, Fraction(0)]]
    a2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    return {
        "v": 1,
        "L": 2,
        "poles": [],
        "infinity": [[[str(-x) for x in row] for row in m] for m in (a0, a1, a2)],
    }


def partition(rng: random.Random, total: int) -> list[int]:
    parts = []
    left = total
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return sorted(parts, reverse=True)


def _write(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def approx_job(rng, workdir, idx, size, n) -> Job:
    rows = family_rows(rng, size, size * n + 2)
    path = _write(workdir, f"approx-{idx}.json", series_file(rows))
    return Job("approx", ["approx", path, "-n", str(n), "--emit", "all"], {"rows": rows, "n": n})


def tau_job(rng, workdir, idx, size, n_max) -> Job:
    rows = family_rows(rng, size, size * n_max + 2)
    path = _write(workdir, f"tau-{idx}.json", series_file(rows))
    return Job("tau", ["tau", path, "--n-max", str(n_max)], {"rows": rows, "n_max": n_max})


def ode_job(rng, workdir, idx, order) -> Job:
    spec = pii_spec(rng)
    path = _write(workdir, f"ode-{idx}.json", spec)
    return Job("ode", ["ode", "--spec", path, "--order", str(order)], {"spec": spec, "order": order})


def selfcheck_job(rng, trials) -> Job:
    seed = rng.randint(0, 10**6)
    argv = ["selfcheck", "--suite", "pfaffian", "--trials", str(trials), "--seed", str(seed)]
    return Job("selfcheck", argv, {"trials": trials, "seed": seed})


def accessory_job(rng) -> Job:
    size = rng.randint(2, 4)
    points = rng.randint(1, 3)
    parts = [partition(rng, size) for _ in range(points + 1)]
    spectral = ";".join(",".join(str(m) for m in p) for p in parts)
    argv = ["accessory", spectral, "-L", str(size), "-N", str(points)]
    return Job("accessory", argv, {"parts": parts, "L": size, "N": points})


def small_job(rng, workdir, idx) -> Job:
    """Round-robin over the five subcommands at tiny sizes."""
    kind = idx % 5
    if kind == 0:
        return approx_job(rng, workdir, idx, rng.choice((2, 3)), rng.choice((1, 2)))
    if kind == 1:
        return tau_job(rng, workdir, idx, rng.choice((2, 3)), rng.choice((2, 3, 4)))
    if kind == 2:
        return ode_job(rng, workdir, idx, rng.randint(8, 16))
    if kind == 3:
        return selfcheck_job(rng, rng.choice((1, 2)))
    return accessory_job(rng)


def make_jobs(workload: str, seed: int, workdir: str, count: int | None = None) -> list[Job]:
    """Draw the workload's job pool and write its input files to workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    count = POOL_SIZE[workload] if count is None else count
    jobs = []
    for idx in range(count):
        if workload == "approx-wide":
            jobs.append(approx_job(rng, workdir, idx, APPROX_WIDE["L"], APPROX_WIDE["n"]))
        elif workload == "tau-deep":
            jobs.append(tau_job(rng, workdir, idx, TAU_DEEP["L"], TAU_DEEP["n_max"]))
        elif workload == "ode-long":
            jobs.append(ode_job(rng, workdir, idx, ODE_LONG["order"]))
        else:
            jobs.append(small_job(rng, workdir, idx))
    return jobs
