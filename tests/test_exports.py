"""Every public name the package declares resolves.

`perfbench`'s tracer looks up each name in each module's `__all__`, and
`padetau/__init__.py` re-exports names from the submodules; a name left
behind after its definition is deleted would break both.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import padetau

SUBMODULES = sorted(
    f"padetau.{info.name}" for info in pkgutil.iter_modules(padetau.__path__)
)


def test_every_all_entry_resolves():
    declared = 0
    for name in SUBMODULES:
        mod = importlib.import_module(name)
        for public in getattr(mod, "__all__", ()):
            declared += 1
            assert hasattr(mod, public), f"{name}.__all__ names missing {public!r}"
    assert declared > 0


def test_every_package_import_resolves():
    tree = ast.parse(Path(padetau.__file__).read_text(encoding="utf-8"))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"padetau.{node.module}")
            for alias in node.names:
                imported += 1
                assert hasattr(mod, alias.name), f"padetau.{node.module} has no {alias.name!r}"
                assert hasattr(padetau, alias.asname or alias.name)
    assert imported > 0
