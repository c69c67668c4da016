"""Fuzz the three input parsers through `padetau.cli.main`.

Whatever the input, the CLI may only answer with a documented exit code
(0-4), at most one line on stderr and no escaped exception. Inputs are
either arbitrary small JSON values or a valid document with a few fields
replaced or deleted, so the fuzz reaches the checks deep inside each
parser as well as the first ones.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from padetau.cli import main

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}
DELETE = object()

small_text = st.text(alphabet="-0123456789/ .e+_xL", max_size=6)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=8)
    | st.sampled_from(["0", "1", "-1/2", "2/3", "1/0"])
    | small_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["v", "L", "position", "matrices"]), inner, max_size=3),
    max_leaves=8,
)

SERIES_FILE = {
    "v": 1,
    "L": 2,
    "order": 4,
    "series": [["1", "0", "0", "0"], ["0", "1", "-1/2", "3"]],
}

ODE_SPEC = {
    "v": 1,
    "L": 2,
    "poles": [{"position": "1/3", "matrices": [[["1", "0"], ["0", "2"]]]}],
    "infinity": [[["-2", "0"], ["0", "3"]]],
}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from _paths(child, prefix + (idx,))


def _replace(doc, path, value):
    if not path:
        return None if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, draw(json_values | st.just(DELETE)))
    return doc


def documents(base):
    return json_values | mutated(base)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_outcome(argv):
    code, out, err = run_cli(argv)
    assert code in DOCUMENTED_EXIT_CODES, (code, err)
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert out == ""
        assert err.endswith("\n")


def run_on_document(doc, make_argv):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert_documented_outcome(make_argv(path))


@settings(max_examples=100, deadline=None)
@given(documents(SERIES_FILE), st.sampled_from(("approx", "tau")))
def test_series_file_parser(doc, command):
    def argv(path):
        if command == "approx":
            return ["approx", path, "-n", "1", "--emit", "all"]
        return ["tau", path, "--n-max", "1"]

    run_on_document(doc, argv)


@settings(max_examples=100, deadline=None)
@given(documents(ODE_SPEC))
def test_ode_spec_parser(doc):
    run_on_document(doc, lambda path: ["ode", "--spec", path, "--order", "3"])


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="0123456789,;-+ x", max_size=12),
    st.integers(min_value=-1, max_value=4),
    st.integers(min_value=-1, max_value=4),
)
def test_accessory_partition_parser(spectral, size, points):
    assert_documented_outcome(["accessory", spectral, "-L", str(size), "-N", str(points)])
