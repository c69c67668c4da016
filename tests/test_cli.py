"""End-to-end CLI behavior: exit codes, report content, determinism."""

from __future__ import annotations

import json
import random
import shlex
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import padetau.cli
import padetau.linalg
import padetau.pade
import padetau.reports
import padetau.tau
from helpers import family_from_rows
from padetau.cli import main
from padetau.errors import ConsistencyError
from padetau.linalg import ExactMatrix
from padetau.ode import RationalODE, ode_to_dict
from padetau.series import Polynomial
from test_golden import DEGENERATE_LEVEL


def write_json(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def arithmetic_file(order=8) -> dict:
    """L = 2 family with f_1 = sum_k k*w^k."""
    return {
        "v": 1,
        "L": 2,
        "order": order,
        "series": [["1"] + ["0"] * (order - 1), [str(k) for k in range(order)]],
    }


def geometric_file(order=8) -> dict:
    """L = 2 family with f_1 = w/(1-w); its n = 2 determinant vanishes."""
    return {
        "v": 1,
        "L": 2,
        "order": order,
        "series": [["1"] + ["0"] * (order - 1), ["0"] + ["1"] * (order - 1)],
    }


def mixed_file(size: int, order: int, seed: int = 7) -> dict:
    """A random family, one denominator in 1..9 per member."""
    rng = random.Random(seed)
    series = [["1"] + ["0"] * (order - 1)]
    for _ in range(size - 1):
        den = rng.randint(1, 9)
        series.append(["0"] + [f"{rng.randint(-9, 9)}/{den}" for _ in range(order - 1)])
    return {"v": 1, "L": size, "order": order, "series": series}


def run(capsys, argv, **env):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out.endswith("\n")
    return json.loads(out)


class TestApprox:
    def test_worked_family_emits_everything(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        report = run_report(capsys, ["approx", path, "-n", "1", "--emit", "all"])
        assert list(report) == ["v", "command", "inputs", "results", "checks"]
        assert report["v"] == 1
        assert report["command"] == "approx"
        assert report["inputs"] == {"input": path, "n": 1, "emit": "all"}
        results = report["results"]
        assert len(results["fingerprint"]) == 16
        assert results["vanishing_remainders"] == []
        assert results["q_rows"] == [["0", "1"], ["-1", "1 - 2*w"]]
        assert results["p_matrix"] == [["1 - 2*w", "w"], ["-w", "0"]]
        assert results["remainders"][0][:5] == ["0", "0", "1", "2", "3"]
        assert results["remainders"][1][:6] == ["0", "0", "0", "-1", "-2", "-3"]
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "mahler_duality",
            "q_degree_bounds",
            "q_normalization",
            "det_shift_matrix",
        ]
        assert all(c["pass"] for c in report["checks"])

    def test_default_emit_is_q_only(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        report = run_report(capsys, ["approx", path, "-n", "1"])
        results = report["results"]
        assert "q_rows" in results
        assert "p_matrix" not in results
        assert "remainders" not in results

    def test_degenerate_family_exits_2(self, capsys, tmp_path):
        squared = {
            "v": 1,
            "L": 2,
            "order": 8,
            "series": [["1"], ["0", "0", "1"]],
        }
        path = write_json(tmp_path, "fam.json", squared)
        code, out, err = run(capsys, ["approx", path, "-n", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("degenerate precondition:")
        assert "type-I system determinant" in err

    def test_type_one_rows_take_one_reduced_elimination(self, capsys, tmp_path, monkeypatch):
        """approx builds no ExactMatrix and calls neither det_exact nor
        solve_exact; hermite_pade runs one Bareiss elimination, of the
        reduced D_n matrix of order (L-1)n."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for mod in [m for name, m in sys.modules.items() if name.startswith("padetau")]:
            for name in ("det_exact", "solve_exact"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        monkeypatch.setattr(
            ExactMatrix, "__init__", counted("ExactMatrix", ExactMatrix.__init__)
        )
        size, n = 5, 2
        data = mixed_file(size, 15)
        report = run_report(capsys, ["approx", write_json(tmp_path, "fam.json", data), "-n", str(n), "--emit", "all"])
        assert all(c["pass"] for c in report["checks"])
        assert calls == Counter()

        orders = []
        honest = padetau.linalg.bareiss

        def bareiss(a, k):
            orders.append((len(a), k))
            return honest(a, k)

        monkeypatch.setattr(padetau.linalg, "bareiss", bareiss)
        padetau.pade.hermite_pade(padetau.reports.series_file_to_family(data), n)
        m = (size - 1) * n
        assert orders == [(m, m)]
        assert calls == Counter()

    def test_no_polynomial_is_multiplied(self, capsys, tmp_path, monkeypatch):
        """approx at L = 5, n = 2 multiplies no Polynomial by a Polynomial:
        det and adj Q, det R and the product Q P^T all go through integer
        points. Scalar multiples still go through Polynomial.__mul__."""
        products = Counter()
        honest = Polynomial.__mul__

        def counted(self, other):
            products[type(other).__name__] += 1
            return honest(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        path = write_json(tmp_path, "fam.json", mixed_file(5, 15))
        report = run_report(capsys, ["approx", path, "-n", "2", "--emit", "all"])
        assert all(c["pass"] for c in report["checks"])
        assert products["Polynomial"] == 0

    def test_insufficient_order_exits_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file(order=3))
        code, out, err = run(capsys, ["approx", path, "-n", "1"])
        assert code == 3
        assert out == ""
        assert err.startswith("insufficient order:")


class TestTau:
    def test_worked_arithmetic_table(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        report = run_report(capsys, ["tau", path, "--n-max", "2"])
        results = report["results"]
        assert results["dets"] == [[0, "1"], [1, "1"], [2, "1"]]
        assert results["ratios"] == [[0, "1"], [1, "1"]]
        assert results["degenerate"] == []
        names = [c["name"] for c in report["checks"]]
        assert names == ["exchange_identity_n1"]
        assert all(c["pass"] for c in report["checks"])

    def test_degenerate_determinant_is_data_not_an_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", geometric_file())
        report = run_report(capsys, ["tau", path, "--n-max", "2"])
        results = report["results"]
        assert results["dets"] == [[0, "1"], [1, "1"], [2, "0"]]
        assert results["ratios"] == [[0, "1"], [1, "0"]]
        assert results["degenerate"] == [2]
        assert all(c["pass"] for c in report["checks"])

    def test_insufficient_order_exits_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        code, out, err = run(capsys, ["tau", path, "--n-max", "9"])
        assert code == 3
        assert "need order >= 18" in err

    def test_each_determinant_is_computed_once(self, capsys, tmp_path, monkeypatch):
        """A nondegenerate table is two eliminations, one per form of
        D_{n_max}'s matrix, plus det_exact on each exchange grid; no D_n or
        E^{i,j}_n is computed level by level. On DEGENERATE_LEVEL (D_2 = 0)
        the per-level route starts at n = 2 and computes each value once."""
        calls = Counter()

        def counted(fn):
            def wrapper(fam, n, *ij):
                calls[(n, *ij)] += 1
                return fn(fam, n, *ij)

            return wrapper

        for name in ("tau_determinant", "bordered_determinant"):
            monkeypatch.setattr(padetau.tau, name, counted(getattr(padetau.tau, name)))
        eliminations = []
        honest = padetau.linalg.bareiss

        def bareiss(a, n, group=None, visit=None):
            eliminations.append((len(a), n, group))
            return honest(a, n, group, visit)

        monkeypatch.setattr(padetau.linalg, "bareiss", bareiss)
        rng = random.Random(3)
        order = 15
        series = [["1"] + ["0"] * (order - 1)]
        series += [["0"] + [str(rng.randint(-5, 5)) for _ in range(order - 1)] for _ in range(2)]
        path = write_json(tmp_path, "fam.json", {"v": 1, "L": 3, "order": order, "series": series})
        report = run_report(capsys, ["tau", path, "--n-max", "5"])
        assert len(report["checks"]) == 4
        assert all(c["pass"] for c in report["checks"])
        assert report["results"]["degenerate"] == []
        assert calls == Counter()
        # full form 15 x 15 in groups of 3, reduced 10 x 10 in groups of 2,
        # then the four 2 x 2 exchange grids
        assert eliminations == [(15, 15, 3), (10, 10, 2)] + [(2, 2, None)] * 4

        path = write_json(tmp_path, "degenerate.json", DEGENERATE_LEVEL)
        report = run_report(capsys, ["tau", path, "--n-max", "4"])
        assert report["results"]["degenerate"] == [2]
        d_keys = {(n,) for n in (2, 3, 4)}
        e_keys = {(n, i, j) for n in (2, 3) for i in (1, 2) for j in (1, 2)}
        assert set(calls) == d_keys | e_keys
        assert set(calls.values()) == {1}

    def test_only_the_exchange_grids_use_det_exact(self, monkeypatch):
        """D_n and E^{i,j}_n go to block_toeplitz_det; det_exact only sees
        the (L-1)x(L-1) exchange grid, once per interior level."""
        sizes = []

        def counted(m):
            sizes.append((m.rows, m.cols))
            return padetau.linalg.det_exact(m)

        monkeypatch.setattr(padetau.tau, "det_exact", counted)
        rng = random.Random(5)
        rows = [[1] + [0] * 23] + [[0] + [rng.randint(-5, 5) for _ in range(23)] for _ in range(2)]
        fam = family_from_rows(rows)
        table = padetau.tau.tau_quotient_table(fam, 8)
        assert len(table.exchange) == 7
        assert sizes == [(2, 2)] * 7

    def test_corrupted_reduced_route_exits_4(self, capsys, tmp_path, monkeypatch):
        """The reduced form (no f_0 blocks) is a second route: if it drifts
        by one, D_n and E^{i,j}_n raise ConsistencyError, level by level and
        in the table's reduced pass, and tau exits 4."""
        honest = padetau.linalg.block_toeplitz_det

        def corrupted(fam, bands):
            value = honest(fam, bands)
            return value if bands[0][0].series_index == 0 else value + 1

        monkeypatch.setattr(padetau.tau, "block_toeplitz_det", corrupted)
        fam = family_from_rows(arithmetic_file()["series"])
        with pytest.raises(ConsistencyError, match="full 1 != reduced 2"):
            padetau.tau.tau_determinant(fam, 1)
        with pytest.raises(ConsistencyError, match=r"E\^\(1,1\)_1: full 1 != reduced 2"):
            padetau.tau.bordered_determinant(fam, 1, 1, 1)
        honest_pass = padetau.tau._tau_pass

        def corrupted_pass(fam, n_max, reduced):
            dets, grids = honest_pass(fam, n_max, reduced)
            if reduced:
                dets = [d + 1 for d in dets]
                grids = [[[e + 1 for e in row] for row in grid] for grid in grids]
            return dets, grids

        monkeypatch.setattr(padetau.tau, "_tau_pass", corrupted_pass)
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        code, out, err = run(capsys, ["tau", path, "--n-max", "2"])
        assert code == 4
        assert out == ""
        assert err == "internal error: D_1: full 1 != reduced 2\n"


class TestOde:
    def test_pii_worked_values_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "series.json"
        report = run_report(
            capsys,
            [
                "ode",
                "--pii", "1/2", "0", "-1", "1", "2",
                "--order", "10",
                "--out", str(out_path),
            ],
        )
        results = report["results"]
        assert results["L"] == 2
        assert results["rank_at_infinity"] == 3
        assert results["irregular"] == [["-1", "1"], ["0", "0"], ["-1", "1"]]
        assert results["exponents"] == ["1/2", "-1/2"]
        assert results["series_file"]["series"][1][1:4] == ["1", "-1/2", "-1/2"]
        assert results["written_to"] == str(out_path)
        assert "degenerate_members" not in results
        check = report["checks"][0]
        assert check["name"] == "ode_residual_to_order_10"
        assert check["pass"]
        written = json.loads(out_path.read_text(encoding="utf-8"))
        assert written == results["series_file"]

    def test_spec_file_diagonal_system(self, capsys, tmp_path):
        ode = RationalODE(
            size=2,
            poles=(),
            infinity=(
                ExactMatrix(((Fraction(-5), Fraction(0)), (Fraction(0), Fraction(-7)))),
                ExactMatrix(((Fraction(-3), Fraction(0)), (Fraction(0), Fraction(2)))),
            ),
        )
        path = write_json(tmp_path, "ode.json", ode_to_dict(ode))
        report = run_report(capsys, ["ode", "--spec", path, "--order", "6"])
        results = report["results"]
        assert results["irregular"] == [["-5", "-7"], ["-3", "2"]]
        assert results["exponents"] == ["0", "0"]
        # The off-diagonal member vanishes identically: flagged, not fatal.
        assert results["degenerate_members"] == [1]
        assert "note" in results
        assert report["checks"][0]["pass"]

    def test_negative_rational_parameter_is_a_value(self, capsys):
        report = run_report(
            capsys, ["ode", "--pii", "-1/2", "0", "-1", "1", "2", "--order", "10"]
        )
        assert report["inputs"]["pii"] == ["-1/2", "0", "-1", "1", "2"]
        assert report["results"]["exponents"] == ["-1/2", "1/2"]
        assert report["checks"][0]["pass"]

    @pytest.mark.parametrize(
        "order, code, needle",
        [
            ("1", 3, "insufficient order: need an expansion of order >= 2"),
            ("0", 1, "error: order must be >= 1"),
        ],
    )
    def test_too_short_orders(self, capsys, order, code, needle):
        got, out, err = run(capsys, ["ode", "--pii", "1/2", "0", "-1", "1", "2", "--order", order])
        assert got == code
        assert out == ""
        assert err == needle + "\n"

    def test_readme_invocations_succeed(self, capsys, tmp_path, monkeypatch):
        """Every `padetau ode` line in README's ode section, run as written."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### ode", 1)[1].split("\n### ", 1)[0]
        lines = [ln for ln in section.splitlines() if ln.startswith("padetau ode ")]
        assert "padetau ode --pii -1/2 0 -1 1 2 --order 10" in lines
        # system.json is the README's own ODE system example
        spec = readme.split("**ODE system**", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        (tmp_path / "system.json").write_text(spec, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for line in lines:
            code, out, err = run(capsys, shlex.split(line)[1:])
            assert code == 0, (line, err)
            assert all(c["pass"] for c in json.loads(out)["checks"]), line

    def test_order_over_the_series_limit_exits_1(self, capsys, tmp_path, monkeypatch):
        """L * order = 100 002 > MAX_SERIES_COEFFICIENTS: refused before
        any expansion, with one line and no --out file."""
        monkeypatch.setattr(padetau.cli, "gauge_expansion", lambda *a: pytest.fail("expanded"))
        monkeypatch.chdir(tmp_path)
        argv = ["ode", "--pii", "1/2", "0", "-1", "1", "2", "--order", "50001", "--out", "o.json"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: L * order = 100002 exceeds the limit of 100000 coefficients\n"
        assert not (tmp_path / "o.json").exists()

    def test_single_member_system_exits_1_before_expanding(self, capsys, tmp_path, monkeypatch):
        """L = 1 has no family to write: refused before any expansion,
        with one line and no --out file."""
        monkeypatch.setattr(padetau.cli, "gauge_expansion", lambda *a: pytest.fail("expanded"))
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, "one.json", {"v": 1, "L": 1, "poles": [], "infinity": [[["1"]]]})
        argv = ["ode", "--spec", "one.json", "--order", "8000", "--out", "o.json"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: a family needs at least two members\n"
        assert not (tmp_path / "o.json").exists()

    def test_short_order_writes_no_out_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["ode", "--pii", "1/2", "0", "-1", "1", "2", "--order", "1", "--out", "o.json"]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert not (tmp_path / "o.json").exists()

    def test_failing_residual_writes_no_out_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(padetau.cli, "gauge_residual", lambda ode, gauge: (False, 10))
        out_path = tmp_path / "o.json"
        argv = ["ode", "--pii", "1/2", "0", "-1", "1", "2", "--order", "10", "--out", str(out_path)]
        report = run_report(capsys, argv)
        assert report["results"]["written_to"] is None
        assert report["inputs"]["out"] == str(out_path)
        assert not report["checks"][0]["pass"]
        assert not out_path.exists()

    def test_zero_parameter_exits_2(self, capsys):
        code, out, err = run(capsys, ["ode", "--pii", "1/2", "0", "-1", "0", "2", "--order", "8"])
        assert code == 2
        assert out == ""
        assert err.startswith("degenerate precondition:")


class TestSelfcheck:
    ARGS = ["selfcheck", "--suite", "pfaffian", "--trials", "5", "--seed", "7"]

    def test_reports_are_reproducible(self, capsys):
        first = run(capsys, self.ARGS)
        second = run(capsys, self.ARGS)
        assert first == second
        report = json.loads(first[1])
        assert report["seed"] == 7
        assert report["results"]["checks_failed"] == 0
        assert list(report) == ["v", "command", "inputs", "results", "checks", "seed"]

    def test_env_seed_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "11")
        report = run_report(capsys, self.ARGS)
        assert report["seed"] == 11

    @pytest.mark.parametrize("seed", range(8))
    def test_documented_defaults_exit_0(self, capsys, seed):
        """`padetau selfcheck` at its defaults (all suites, 25 trials)."""
        report = run_report(capsys, ["selfcheck", "--seed", str(seed)])
        results = report["results"]
        assert results["trials"] == 25
        assert results["checks_failed"] == 0
        assert results["degenerate_draws"] >= 0

    def test_bad_suite_name_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["selfcheck", "--suite", "bogus"])
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")


class TestAccessory:
    def test_documented_counts(self, capsys):
        report = run_report(capsys, ["accessory", "1,1;1,1;1,1", "-L", "2", "-N", "2"])
        assert report["results"]["count"] == 0
        assert report["results"]["spectral"] == [[1, 1], [1, 1], [1, 1]]
        report = run_report(capsys, ["accessory", "1,1;1,1;1,1;1,1", "-L", "2", "-N", "3"])
        assert report["results"]["count"] == 2

    def test_wrong_partition_count_exits_1(self, capsys):
        code, out, err = run(capsys, ["accessory", "1,1;1,1", "-L", "2", "-N", "2"])
        assert code == 1
        assert err.startswith("error:")

    def test_unparseable_partition_exits_1(self, capsys):
        code, out, err = run(capsys, ["accessory", "1,x;1,1;1,1", "-L", "2", "-N", "2"])
        assert code == 1
        assert err.startswith("error:")


class TestUsageAndIOErrors:
    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert err.startswith("usage error:")

    def test_missing_required_flag(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        code, out, err = run(capsys, ["approx", path])
        assert code == 1
        assert err.startswith("usage error:")

    def test_bad_emit_choice(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        code, out, err = run(capsys, ["approx", path, "-n", "1", "--emit", "xyz"])
        assert code == 1
        assert err.startswith("usage error:")

    def test_broken_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run(capsys, ["approx", str(path), "-n", "1"])
        assert code == 1
        assert err.startswith("error:")

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, ["approx", str(tmp_path / "absent.json"), "-n", "1"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [["approx", "-n", "1"], ["tau", "--n-max", "1"]])
    def test_oversized_series_file_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "big.json"
        path.write_text('{"v":1,"L":2,"order":2000000,"series":[["1"],["0","1"]]}', encoding="ascii")
        assert path.stat().st_size == 56
        code, out, err = run(capsys, [command[0], str(path), *command[1:]])
        assert code == 1
        assert out == ""
        assert err.startswith("error: L * order = 4000000 exceeds the limit of 100000")
        assert err.count("\n") == 1

    def test_zero_denominator_exits_1(self, capsys, tmp_path):
        data = arithmetic_file()
        data["series"][1][2] = "1/0"
        path = write_json(tmp_path, "fam.json", data)
        for argv in (
            ["approx", path, "-n", "1"],
            ["ode", "--pii", "1/0", "0", "1", "1", "2", "--order", "6"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "zero denominator" in err
            assert err.count("\n") == 1

    def test_consistency_error_exits_4(self, capsys, tmp_path, monkeypatch):
        def broken(fam, n_max):
            raise ConsistencyError("D_1: full 1 != reduced 2")

        monkeypatch.setattr(padetau.cli, "tau_quotient_table", broken)
        path = write_json(tmp_path, "fam.json", arithmetic_file())
        code, out, err = run(capsys, ["tau", path, "--n-max", "2"])
        assert code == 4
        assert out == ""
        assert err == "internal error: D_1: full 1 != reduced 2\n"

    @pytest.mark.parametrize("bad", ["1.5", " 2 ", "1_0", "1e5", "+1", "0x1", True, False])
    def test_series_coefficient_outside_the_grammar_exits_1(self, capsys, tmp_path, bad):
        data = arithmetic_file()
        data["series"][1][2] = bad
        path = write_json(tmp_path, "fam.json", data)
        self.assert_input_error(capsys, ["approx", path, "-n", "1"])

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"v": True}, "version"),
            ({"L": True}, "L must be"),
            # order 1 with one-coefficient rows would otherwise pass the
            # schema and only fail later, as an insufficient order
            ({"order": True, "series": [["1"], ["0"]]}, "order must be"),
        ],
    )
    def test_series_file_boolean_for_an_int_exits_1(self, capsys, tmp_path, change, needle):
        data = arithmetic_file()
        data.update(change)
        path = write_json(tmp_path, "fam.json", data)
        err = self.assert_input_error(capsys, ["tau", path, "--n-max", "1"])
        assert needle in err

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"v": True}, "version"),
            ({"L": True}, "L must be an integer"),
            ({"infinity": [[["1.5", "0"], ["0", "3"]]]}, "'1.5'"),
            ({"infinity": [[[True, "0"], ["0", "3"]]]}, "True"),
            ({"poles": [{"position": "1e2", "matrices": [[["1", "0"], ["0", "2"]]]}]}, "'1e2'"),
        ],
    )
    def test_ode_spec_outside_the_grammar_exits_1(self, capsys, tmp_path, change, needle):
        spec = {"v": 1, "L": 2, "poles": [], "infinity": [[["-2", "0"], ["0", "3"]]]}
        spec.update(change)
        path = write_json(tmp_path, "spec.json", spec)
        err = self.assert_input_error(capsys, ["ode", "--spec", path, "--order", "4"])
        assert needle in err

    @pytest.mark.parametrize(
        "poles, needle",
        [
            ([{"position": "1"}], "poles[0] has no matrices"),
            ([{"matrices": [[["1", "0"], ["0", "2"]]]}], "poles[0] has no position"),
            ({"position": "1"}, "poles must be a list"),
            (["1"], "poles[0] must be an object"),
        ],
    )
    def test_ode_spec_pole_structure_exits_1(self, capsys, tmp_path, poles, needle):
        spec = {"v": 1, "L": 2, "poles": poles, "infinity": [[["-2", "0"], ["0", "3"]]]}
        path = write_json(tmp_path, "spec.json", spec)
        err = self.assert_input_error(capsys, ["ode", "--spec", path, "--order", "4"])
        assert err == f"error: {needle}\n"

    @pytest.mark.parametrize("bad", ["0.5", "1_0", "1e3", " 1"])
    def test_pii_parameter_outside_the_grammar_exits_1(self, capsys, bad):
        self.assert_input_error(capsys, ["ode", "--pii", bad, "0", "1", "1", "2", "--order", "6"])

    @pytest.mark.parametrize("bad", [" 1,1;1,1;1,1", "1,+1;1,1;1,1", "1,1;1,1;1, 1"])
    def test_partition_outside_the_grammar_exits_1(self, capsys, bad):
        self.assert_input_error(capsys, ["accessory", bad, "-L", "2", "-N", "2"])

    @staticmethod
    def assert_input_error(capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_series_file_schema_violation_exits_1(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", {"v": 2, "L": 2, "order": 4, "series": []})
        code, out, err = run(capsys, ["approx", path, "-n", "1"])
        assert code == 1
        assert err.startswith("error:")


class TestParserReuse:
    def test_one_parser_serves_mixed_calls_in_any_order(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        fam = write_json(tmp_path, "fam.json", arithmetic_file())
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        argvs = [
            ["approx", fam, "-n", "2", "--emit", "all"],
            ["approx", fam],
            ["approx", fam, "-n", "1", "--emit", "xyz"],
            ["ode", "--pii", "-1/2", "0", "-1", "1", "2", "--order", "10"],
            ["tau", str(broken), "--n-max", "2"],
            ["tau", fam, "--n-max", "2"],
            ["selfcheck", "--suite", "pfaffian", "--trials", "2", "--seed", "3"],
            ["accessory", "1,1;1,1;1,1", "-L", "2", "-N", "1"],
            ["frobnicate"],
        ]
        fresh = {}
        for argv in argvs:
            padetau.cli._build_parser.cache_clear()
            fresh[tuple(argv)] = run(capsys, argv)
        assert {code for code, _, _ in fresh.values()} >= {0, 1}

        padetau.cli._build_parser.cache_clear()
        for order in (argvs, argvs[::-1]):
            for argv in order:
                assert run(capsys, argv) == fresh[tuple(argv)], argv
        assert padetau.cli._build_parser.cache_info().misses == 1
