"""The module surface of arclab: every name a module exports exists, every
exported function and every public method of an exported class is reached
by a command, every exported exception class is raised, no library check is
an ``assert``, and every name a library module imports is read.

Tools that walk ``__all__`` and look each name up (the benchmark tracer
wraps every exported function this way) fail on a stale entry.  A function
that no command calls is code that only its tests use, so it belongs with
the tests.  ``python -O`` strips assert statements, so a check written as
one would silently vanish.
"""

import argparse
import ast
import importlib
import json
import inspect
import sys
from pathlib import Path

import pytest

from arclab import certifier
from arclab.cli import build_parser, main

from conftest import ARCS_DIR

SRC = Path(__file__).resolve().parent.parent / "src" / "arclab"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# exported functions that no command calls, each with the reason it stays
UNREACHED = {
    "arcgeom.det_full": "perfbench/inputs.py draws its invertible matrices with it",
    "cli.format_arc_file": "perfbench/inputs.py writes its generated arcs with it",
    "certifier.CertMatrix.matrix": "the tracer's matrix_cells and the tests' references read it",
}


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


def test_library_reads_every_name_it_imports():
    # no linter runs on the library: a name that a module imports and never
    # reads is a leftover of a deletion.  __init__ imports to re-export, and
    # a __future__ import is a compiler switch
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [
            f"{path.name}:{node.lineno} {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for name in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
            if name not in read
        ]
    assert not unread, f"names imported and never read in src/arclab: {unread}"


def test_every_exported_exception_is_raised():
    # an exception class that the library exports and never raises is a
    # leftover of a deleted check, which callers may still catch in vain
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    unraised, exported = [], 0
    for name in MODULES:
        module = importlib.import_module(f"arclab.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                exported += 1
                if attr not in raised:
                    unraised.append(f"{name}.{attr}")
    assert exported >= 10
    assert not unraised, f"exported exceptions that src/arclab never raises: {unraised}"


def command_lines():
    """Every command and alias: the arc-file commands on each shipped arc
    (in text, search on the q=81 arc exiting 3 and hypersurface on the
    arcs too small for a surface exiting 2), then an exhaustive and a
    sampled conjecture scan (structured)."""
    for path in sorted(ARCS_DIR.glob("*.arc")):
        arc = str(path)
        yield from (
            ["analyze", arc, "--n", "1"],
            ["property-w", arc, "--n", "1"],
            ["cosecants", arc, "--n", "2"],
            ["bound", arc],
            ["hypersurface", arc],
            ["search", arc],
        )
    # at n = 1 the 4-point frame is the whole arc; at n = 2 one node
    # cannot find the 5-arcs, so the scan samples
    scan = ["--emit", "structured", "conjecture-scan", "--p", "5", "--k", "3"]
    yield scan + ["--n", "1"]
    yield scan + ["--n", "2", "--budget", "1", "--samples", "2"]


def public_functions(label, obj):
    """(label, function) for an exported function, or for each public
    method and property getter of an exported class, special methods
    such as __len__ included.  Overrides of object's own (__init__,
    __repr__, __eq__, __hash__) serve the object model rather than a
    caller, and methods that dataclasses generate are not library code."""
    if inspect.isfunction(obj):
        yield label, obj
    if not inspect.isclass(obj):
        return
    for attr, member in vars(obj).items():
        fn = member.fget if isinstance(member, property) else member
        public = not attr.startswith("_") or (attr.endswith("__") and not hasattr(object, attr))
        if inspect.isfunction(fn) and public and not fn.__code__.co_filename.startswith("<"):
            yield f"{label}.{attr}", fn


def test_every_exported_function_is_reached_by_a_command(capsys):
    lines = list(command_lines())
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {parser.parse_args(argv).command for argv in lines} == set(sub.choices)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes, outs = [], []
    sys.setprofile(profile)
    try:
        for argv in lines:
            codes.append(main(argv))
            outs.append(capsys.readouterr().out)
    finally:
        sys.setprofile(None)
    assert 4 not in codes and {2, 3} < set(codes)
    scans = [json.loads(out) for out in outs[-2:]]
    assert [(rep["mode"], rep["total"]) for rep in scans] == [("exhaustive", 1), ("sampled", 2)]
    unreached, exported = [], set()
    for name in MODULES:
        module = importlib.import_module(f"arclab.{name}")
        for attr in getattr(module, "__all__", ()):
            exported.add(f"{name}.{attr}")
            for label, fn in public_functions(f"{name}.{attr}", getattr(module, attr)):
                exported.add(label)
                if fn.__code__ not in called and label not in UNREACHED:
                    unreached.append(label)
    assert set(UNREACHED) <= exported, f"stale entries in UNREACHED: {set(UNREACHED) - exported}"
    assert not unreached, f"exported functions that no command reaches: {unreached}"


def test_no_command_builds_dense_mn(monkeypatch, capsys):
    # every answer reads M_n's null space from its star geometry, so with
    # the dense data refused every command line exits as before
    lines = list(command_lines())
    want = [main(argv) for argv in lines]

    def refuse(*args):
        raise AssertionError("a command built M_n's dense data")

    monkeypatch.setattr(certifier, "_mn_data", refuse)
    assert [main(argv) for argv in lines] == want
    capsys.readouterr()
