"""Every attempt leaves through one exit: only the control unit and the
session's ``_execute`` terminate a TEE, and nothing else in the runtime reads
the control unit's TEE state, so no attempt can end without passing there."""

import ast
from pathlib import Path

import pytest

import itx

PACKAGE = Path(itx.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def the_exit(tree: ast.Module) -> set[int]:
    """The ids of every node inside ``TrustedJobSession._execute``."""
    session = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TrustedJobSession")
    execute = next(n for n in session.body if isinstance(n, ast.FunctionDef) and n.name == "_execute")
    return {id(node) for node in ast.walk(execute)}


def terminate_calls(tree: ast.Module) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "tee_terminate"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_control_unit_and_the_one_exit_terminate_a_tee(path):
    """Both callers do call it, so the exemption cannot go stale."""
    tree = ast.parse(path.read_text())
    calls = terminate_calls(tree)
    allowed = the_exit(tree) if path.stem == "runtime" else set()
    assert bool(calls) == (path.stem in ("ccu", "runtime"))
    assert [call.lineno for call in calls if id(call) not in allowed] == [] or path.stem == "ccu"


def test_nothing_in_the_runtime_but_the_one_exit_reads_the_tee():
    tree = ast.parse((PACKAGE / "runtime.py").read_text())
    inside = the_exit(tree)
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "tee"]
    assert [node.lineno for node in reads if id(node) not in inside] == []
    assert reads
