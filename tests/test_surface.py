"""The module surface of arclab: every name a module exports exists, and
no library check is an ``assert``.

Tools that walk ``__all__`` and look each name up (the benchmark tracer
wraps every exported function this way) fail on a stale entry, and
``python -O`` strips assert statements, so a check written as one would
silently vanish.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arclab"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"arclab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"arclab.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"arclab.{name}.__all__ names missing attributes {missing}"


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/arclab (stripped by python -O): {found}"
