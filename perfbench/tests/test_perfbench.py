"""Tests of the benchmark itself: inputs, failure classification, tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import pytest

from padetau import cli
from perfbench import gen, verify
from perfbench.run import REFERENCE_CALIBRATION_S, call, to_reference
from perfbench.trace import Tracer, covered, self_times


def _files(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    ja = gen.make_jobs(workload, 7, str(a), count=25)
    jb = gen.make_jobs(workload, 7, str(b), count=25)
    jc = gen.make_jobs(workload, 8, str(c), count=25)
    assert [j.data for j in ja] == [j.data for j in jb]
    assert [[x.replace(str(a), "") for x in j.argv] for j in ja] == [
        [x.replace(str(b), "") for x in j.argv] for j in jb
    ]
    assert _files(a) == _files(b)
    assert [j.data for j in ja] != [j.data for j in jc]


def test_small_mixed_reaches_every_subcommand(tmp_path):
    jobs = gen.make_jobs("small-mixed", 0, str(tmp_path), count=10)
    assert [j.kind for j in jobs[:5]] == ["approx", "tau", "ode", "selfcheck", "accessory"]


def _run(job):
    code, stdout, _ = call(cli.main, job.argv)
    return code, stdout


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("jobs")
    return gen.make_jobs("small-mixed", 3, str(workdir), count=10)


def test_correct_outputs_pass(small_jobs):
    for job in small_jobs:
        code, stdout = _run(job)
        assert verify.classify(job, code, stdout) is None, job.argv


def _tamper_check(report):
    report["checks"][0]["pass"] = False


def _tamper_count(report):
    report["results"]["count"] += 1


def _tamper_first_result(report):
    res = report["results"]
    if "q_rows" in res:
        res["q_rows"][1][0] = res["q_rows"][1][0] + " + w^5"
    elif "dets" in res:
        res["dets"][1][1] = str(Fraction(res["dets"][1][1]) + 1)
    elif "series_file" in res:
        res["series_file"]["series"][1][3] += "1"


@pytest.mark.parametrize("kind", ["approx", "tau", "ode", "selfcheck", "accessory"])
def test_tampered_report_fails(small_jobs, kind):
    job = next(j for j in small_jobs if j.kind == kind)
    code, stdout = _run(job)
    assert code == 0
    report = json.loads(stdout)
    if kind == "accessory":
        _tamper_count(report)
    elif kind == "selfcheck":
        _tamper_check(report)
    else:
        _tamper_first_result(report)
    assert verify.classify(job, 0, json.dumps(report)) is not None


def test_failing_report_check_fails(small_jobs):
    job = next(j for j in small_jobs if j.kind == "tau")
    code, stdout = _run(job)
    report = json.loads(stdout)
    _tamper_check(report)
    assert verify.classify(job, code, json.dumps(report)) is not None


def test_wrong_exit_code_fails(small_jobs):
    job = next(j for j in small_jobs if j.kind == "ode")
    _, stdout = _run(job)
    assert verify.classify(job, 1, stdout) is not None


def test_exit_2_counts_only_on_a_singular_system(tmp_path):
    singular = ["0"] * 6
    rows = [["1", "0", "0", "0", "0", "0"], singular]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(gen.series_file(rows)))
    job = gen.Job("approx", ["approx", str(path), "-n", "1", "--emit", "all"], {"rows": rows, "n": 1})
    code, stdout = _run(job)
    assert code == 2
    assert verify.classify(job, code, stdout) is None

    regular = gen.make_jobs("approx-wide", 0, str(tmp_path), count=1)[0]
    assert verify.classify(regular, 2, "") is not None


def test_parse_poly_round_trip():
    assert verify.parse_poly("0") == []
    assert verify.parse_poly("-3/2 + w - 4*w^3") == [-1.5, 1, 0, -4]
    assert verify.parse_poly("x^2") == [0, 0, 1]


def test_elimination_matches_known_determinant():
    m = [[2, 0, 1], [1, 3, 2], [1, 1, 2]]
    assert verify.det([[Fraction(x) for x in r] for r in m]) == 6
    assert verify.det([[Fraction(x) for x in r] for r in [[0, 1], [1, 0]]]) == -1
    assert verify.det([[Fraction(x) for x in r] for r in [[1, 2], [2, 4]]]) == 0


def test_times_scale_by_the_calibrations_around_them():
    ref = REFERENCE_CALIBRATION_S
    # a machine at half the reference speed for the first 20 calibrations,
    # then at the reference speed
    calibrations = [2 * ref] * 20 + [ref] * 20
    scaled = to_reference([(0.1, 5), (0.1, 35), (0.1, 20)], calibrations)
    assert scaled[0] == pytest.approx(0.05)
    assert scaled[1] == pytest.approx(0.1)
    assert scaled[2] == pytest.approx(0.1 / 1.5)


# ------------------------------------------------------------------ tracing


def _span(sid, parent, start, end, module="m"):
    return [sid, parent, module, f"f{sid}", start, end, 0]


def test_covered_merges_and_clips():
    assert covered([]) == 0
    assert covered([(1, 3), (2, 4), (6, 7)]) == 4
    assert covered([(0, 5), (4, 12)], 2, 10) == 8


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 4.0),   # overlaps its sibling
        _span(3, 0, 9.0, 12.0),  # runs past its parent: clipped
        _span(4, 1, 1.5, 2.5),   # grandchild: only its own parent loses it
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 3 - 1)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def _trace_jobs(jobs):
    tracer = Tracer()
    for idx, job in enumerate(jobs):
        tracer.begin_job(idx)
        tracer.instrument()
        try:
            code, stdout = _run(job)
        finally:
            tracer.restore()
        assert verify.classify(job, code, stdout) is None
    return tracer.metrics(len(jobs))


def test_trace_counts_repeat_and_restore(tmp_path):
    jobs = gen.make_jobs("small-mixed", 5, str(tmp_path), count=10)
    main_before = cli.main
    first = _trace_jobs(jobs)
    assert cli.main is main_before
    second = _trace_jobs(jobs)
    for name, (value, unit) in first.items():
        if unit != "s/job" and not name.startswith("trace.overhead"):
            assert second[name] == (value, unit), name
    assert first["cli.calls"][0] == 1
    assert first["pfaffian.matchings"][0] > 0


def test_trace_counts_match_tau_structure(tmp_path):
    job = gen.tau_job(random.Random(0), str(tmp_path), 0, 3, 4)
    metrics = _trace_jobs([job])
    # n_max = 4: table D_0..D_4, then the exchange check at n = 1..3 runs
    # twice (inside the table and again for the report), 2 D's and 4 E's each.
    assert metrics["tau.dn_calls"][0] == 5 + 2 * 3 * 2
    assert metrics["tau.en_calls"][0] == 2 * 3 * 4
    assert metrics["tau.en_useful_ratio"][0] == 0.5
    assert metrics["linalg.det_calls"][0] == 2 * 4 + 2 * 3 * (2 * 2 + 4 * 2 + 1)
