"""End-to-end CLI behavior: exit codes, report content, determinism."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from padetau.cli import main
from padetau.linalg import ExactMatrix
from padetau.ode import RationalODE, ode_to_dict


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

    def test_series_file_schema_violation_exits_1(self, capsys, tmp_path):
        path = write_json(tmp_path, "fam.json", {"v": 2, "L": 2, "order": 4, "series": []})
        code, out, err = run(capsys, ["approx", path, "-n", "1"])
        assert code == 1
        assert err.startswith("error:")
