"""Golden outputs: the SHA-256 of each report for a few fixed invocations.

Reports must stay byte-identical on fixed inputs (acceptance criterion
10); a refactor that changes any byte of these reports fails here. Inputs
are written into tmp_path and named by relative paths, so the "input"
field of each report does not depend on where the test runs.

To re-pin after a deliberate change of output, print the new digests
and update GOLDEN together with a note of what changed and why.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from padetau.cli import main


def family_file(size: int, order: int) -> dict:
    """A fixed nondegenerate family: f_0 = 1, f_i(0) = 0, small rationals."""
    rows = [["1"] + ["0"] * (order - 1)]
    for i in range(1, size):
        rows.append(
            ["0"]
            + [
                str(Fraction((i * k * k + 3 * k + i) % 11 - 5, 1 + (i + k) % 3))
                for k in range(1, order)
            ]
        )
    return {"v": 1, "L": size, "order": order, "series": rows}


def mixed_family_file(size: int, order: int) -> dict:
    """Like family_file, with denominators 1..9 that differ between members."""
    rows = [["1"] + ["0"] * (order - 1)]
    for i in range(1, size):
        rows.append(
            ["0"]
            + [
                str(Fraction((2 * i * k + k * k + i) % 13 - 6, 1 + (i * i + 2 * k) % 9))
                for k in range(1, order)
            ]
        )
    return {"v": 1, "L": size, "order": order, "series": rows}


# An L = 3 family with D_1 = -4, D_2 = 0 and D_3 = -8: at n = 2 both sides
# of the exchange identity D_3 D_2 = det(E^{i,j}_2) are zero.
DEGENERATE_LEVEL = {
    "v": 1,
    "L": 3,
    "order": 12,
    "series": [
        ["1"] + ["0"] * 11,
        [str(c) for c in (0, 2, -2, 1, 0, -2, -2, -1, 2, 1, 0, 0)],
        [str(c) for c in (0, -2, 0, 1, -1, 1, 2, 2, -2, -1, 2, 2)],
    ],
}

# An L = 3 family with D_1 = 0: the whole table comes from the per-level route.
SINGULAR_FIRST_LEVEL = {
    "v": 1,
    "L": 3,
    "order": 12,
    "series": [
        ["1"] + ["0"] * 11,
        [str(c) for c in (0, 1, 2, -1, 3, 0, 2, -2, 1, 1, -3, 2)],
        [str(c) for c in (0, 2, 4, 1, -1, 2, 0, 3, -2, 1, 2, -1)],
    ],
}

# An L = 3 family with b^1_1 = 0 and D_1 = -1/2: eliminating D_4's matrix
# swaps rows inside the first group, in the full and in the reduced form.
SWAP_IN_GROUP = {
    "v": 1,
    "L": 3,
    "order": 12,
    "series": [
        ["1"] + ["0"] * 11,
        ["0", "0", "1/2", "-1", "2", "1/3", "0", "-2", "1", "3/2", "-1", "2"],
        ["0", "1", "-1/3", "2", "0", "-1", "1/2", "2", "-3", "1", "0", "1/5"],
    ],
}

# ODE specs with poles at non-integer positions, so the scales of the
# integer (Psi, S) recursion meet pole, matrix and gap denominators.
# L = 2, rank 1 at infinity, one rank-1 pole at 1/3.
ODE_L2_POLE = {
    "v": 1,
    "L": 2,
    "poles": [
        {"position": "1/3", "matrices": [[["1", "2"], ["0", "-1"]], [["1/2", "0"], ["1", "1"]]]}
    ],
    "infinity": [[["-2", "0"], ["0", "3"]]],
}
# L = 3, rank 2 at infinity, one rank-1 pole at -2/5.
ODE_L3_RANK2 = {
    "v": 1,
    "L": 3,
    "poles": [
        {
            "position": "-2/5",
            "matrices": [
                [["1", "2", "0"], ["0", "-1", "1"], ["1", "0", "2"]],
                [["1/2", "0", "1"], ["1", "1", "0"], ["0", "2", "1/3"]],
            ],
        }
    ],
    "infinity": [
        [["1", "0", "2"], ["0", "3", "1"], ["1", "1", "0"]],
        [["-2", "0", "0"], ["0", "3", "0"], ["0", "0", "1/2"]],
    ],
}

INPUTS = {f"fam{size}.json": family_file(size, 2 * size + 2) for size in (2, 3, 4, 5)}
INPUTS["tau3.json"] = family_file(3, 14)
INPUTS["tau5.json"] = mixed_family_file(5, 15)
INPUTS["mixed6.json"] = mixed_family_file(6, 14)
INPUTS["degenerate3.json"] = DEGENERATE_LEVEL
INPUTS["singular3.json"] = SINGULAR_FIRST_LEVEL
INPUTS["swap3.json"] = SWAP_IN_GROUP
INPUTS["deep2.json"] = mixed_family_file(2, 20)
INPUTS["ode2.json"] = ODE_L2_POLE
INPUTS["ode3.json"] = ODE_L3_RANK2

GOLDEN = {
    "approx fam2.json -n 2 --emit all":
        "212a51e10a1571524f323e8168db23504706fb311097d09b2f80198a779b638e",
    "approx fam3.json -n 2 --emit all":
        "52b1d969b9b8ffb8884825b9e6c69a5e2a60971a1093ff394eb590710d45ea35",
    "approx fam4.json -n 2 --emit all":
        "4cc70dc8c090c02199f2d18acf701c137676997f9df5bdd532509f65877fec5a",
    "approx fam5.json -n 2 --emit all":
        "e5c621c2d3d3d762c112bf83ae511edc7449dd3ee35e8200b1e25d8d9c189713",
    "approx tau5.json -n 2 --emit all":
        "09d8d651b317cc093398bcec62e7786e038549e1fedada0472ed38ee87fff38c",
    "approx mixed6.json -n 2 --emit all":
        "16482910a0026e28e8476d5023bb3addc0c0fb11d9ceacba734f6c280516b0a9",
    "tau tau3.json --n-max 4":
        "dc5da0641dfcb0125248b81643b300aef487b544ff44488146f4a14ca7946864",
    "tau tau5.json --n-max 3":
        "075ba700d874e4966544d973ccd46ba84ea10eb30420b346e0a051e948d308fb",
    "tau degenerate3.json --n-max 4":
        "3c0a6f61ade08276c7b6a50a4588f389fb13033a8efe8bddec385de24f3c68b4",
    "tau singular3.json --n-max 4":
        "093892cb9b5db501daa03de7034d36c0232e09924a12abcf04afc01cf91b3b44",
    "tau swap3.json --n-max 4":
        "55cd58a93e0fb2df7f3e1846c3bb67a22043fe459150b9c7c47fe631b15dbfb6",
    "tau deep2.json --n-max 10":
        "91a4f3da832118887228db62d3fed961992c37452edb278174862ee2590cd9b8",
    "ode --pii 1/2 0 -1 1 2 --order 20":
        "ff92d7f74c911592945e29f1d1799354ccabecdd2d7699271c54aa23638de484",
    "ode --spec ode2.json --order 10":
        "7bded7b3ace4fc8de60b28fd87ef2bafd01e63093d346b8db52ed744cf557e4a",
    "ode --spec ode3.json --order 12":
        "1afaa8bf9731fdff210e7a69b39ed683db779a0fbbe16d0a7689a42356e6eff8",
    "selfcheck --suite identities --seed 0":
        "ffb6416b0c1cd1654452498e61f14344e22377391937a885e30c6b94bb028f0a",
    "selfcheck --suite pfaffian --seed 0":
        "3b6ad8df564dffd4b1cec14e09e9d0a19661f830b406145f2df6b0d1ee252e58",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEED", raising=False)
    return tmp_path


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_digest(command, workdir, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command], out
