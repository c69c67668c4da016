"""Randomized self-check suites: they must run green and be reproducible."""

from __future__ import annotations

import pytest

from padetau.selfcheck import SUITES, run_suite


def test_suite_names():
    assert SUITES == ("pfaffian", "identities", "all")


@pytest.mark.parametrize("suite,trials,seed", [
    ("pfaffian", 10, 3),
    ("identities", 6, 1),
    ("all", 4, 2),
])
def test_suites_run_green(suite, trials, seed):
    results, checks = run_suite(suite, trials, seed)
    assert results["suite"] == suite
    assert results["trials"] == trials
    assert results["checks_run"] == len(checks) > 0
    assert results["checks_failed"] == 0
    for check in checks:
        assert check["pass"], f"{check['name']}: {check['lhs']} != {check['rhs']}"


def test_all_is_the_union():
    _, pf = run_suite("pfaffian", 5, 9)
    _, ids = run_suite("identities", 5, 9)
    results, both = run_suite("all", 5, 9)
    assert results["checks_run"] == len(pf) + len(ids)
    assert [c["name"] for c in both][: len(pf)] == [c["name"] for c in pf]


def test_same_seed_is_reproducible():
    first = run_suite("all", 6, 42)
    second = run_suite("all", 6, 42)
    assert first == second


def test_different_seeds_draw_different_data():
    _, a = run_suite("pfaffian", 8, 0)
    _, b = run_suite("pfaffian", 8, 1)
    assert [c["lhs"] for c in a] != [c["lhs"] for c in b]


def test_rejects_unknown_suite_and_bad_trials():
    with pytest.raises(ValueError):
        run_suite("everything", 5, 0)
    with pytest.raises(ValueError):
        run_suite("all", 0, 0)


def test_degenerate_draws_are_counted_data():
    """Only the suites that draw random families report degenerate draws;
    the pfaffian report keeps its shape."""
    pf, _ = run_suite("pfaffian", 3, 0)
    assert "degenerate_draws" not in pf
    for suite in ("identities", "all"):
        results, _ = run_suite(suite, 25, 1)
        assert results["degenerate_draws"] == 2
        assert results["checks_failed"] == 0
