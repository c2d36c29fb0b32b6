"""Every function, method and class defined in the package is named
somewhere outside its own definition, and every attribute the package
stores on ``self`` is read somewhere: in the package, the tests or the
benchmark.  Dunder methods are exempt, since the language calls them.
Every field of an attested record is read by a module of the package other
than the one that writes it: the manifest records (the compiler), the
attestation report (the control unit) and the key package (the parties)."""

import ast
import dataclasses
import functools
import re
from collections import defaultdict
from pathlib import Path

import itx
from itx.attestation import AttestationReport, KeyPackage
from itx.manifest import BindingSpec, JobManifest, StreamTableEntry, SyncPlan, TileLayout

PACKAGE = Path(itx.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    path for folder in ("tests", "bench") for path in (ROOT / folder).rglob("*.py")
)


@functools.cache
def parsed() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in SOURCES}


def mentions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every identifier a module mentions, in code or as a
    dotted-name string such as ``"itx.sxp:SxpEngine.load_key"`` (the
    benchmark wraps functions it finds by name)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.:]+", node.value):
                found += [(word, node.lineno) for word in re.split(r"[.:]", node.value)]
    return found


def unused_definitions() -> list[str]:
    trees = parsed()
    named = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in mentions(tree):
            named[name].append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in named[node.name]
            ):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    return dead


def test_every_definition_is_used():
    assert unused_definitions() == []


def unread_attributes() -> list[str]:
    """``self.x`` stores in the package whose attribute name is never
    loaded anywhere; a ``+=`` counts as a store, not a read."""
    trees = parsed()
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{node.lineno} self.{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(trees[path])
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in loaded
    ]


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []


ATTESTED = {  # the module that writes each attested record, whose own reads do not count
    "compiler.py": (JobManifest, StreamTableEntry, BindingSpec, TileLayout, SyncPlan),
    "ccu.py": (AttestationReport,),
    "pki.py": (KeyPackage,),
}


def unread_attested_fields() -> list[str]:
    """Fields of the attested records that no package module but their
    writer loads as an attribute: a field that is attested or signed and
    that nothing enforces or uses."""
    trees = parsed()

    def loaded_outside(writer: str) -> set[str]:
        return {
            node.attr
            for path in PACKAGE.glob("*.py")
            if path.name != writer
            for node in ast.walk(trees[path])
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }

    return [
        f"{cls.__name__}.{f.name}"
        for writer, classes in ATTESTED.items()
        for loaded in [loaded_outside(writer)]
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.name not in loaded
    ]


def test_every_attested_field_is_read():
    assert unread_attested_fields() == []
