"""Every function, method and class defined in the package is named
somewhere outside its own definition, and every attribute the package
stores on ``self`` is read somewhere: in the package, the tests or the
benchmark.  Dunder methods are exempt, since the language calls them.
Nothing exists for the tests alone: each definition is named by the package
or the benchmark, or is on ``TEST_FACING`` with its reason.
Every field of a dataclass the package defines is read somewhere, and every
field of an attested record is read by a module of the package other than
the one that writes it: the manifest records (the compiler), the
attestation report (the control unit) and the key package (the parties).
Every option, a parameter with a default, is set by some call in the
package or the benchmark, or is on ``UNSET_OPTIONS`` with its reason."""

import ast
import dataclasses
import functools
import importlib
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
PROGRAM = [path for path in SOURCES if not path.is_relative_to(ROOT / "tests")]  # the package and bench/


@functools.cache
def parsed() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in SOURCES}


def words(node: ast.AST) -> list[str]:
    """The names a dotted-name string constant such as
    ``"itx.sxp:SxpEngine.load_key"`` spells (the benchmark wraps functions it
    finds by name); none for any other node."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.:]+", node.value):
        return re.split(r"[.:]", node.value)
    return []


def mentions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every identifier a module mentions, in code or as a
    dotted-name string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        else:
            found += [(word, node.lineno) for word in words(node)]
    return found


@functools.cache
def loaded() -> set[str]:
    """Every attribute name a package, test or bench file loads."""
    return {
        node.attr
        for tree in parsed().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unused_definitions(scope: list[Path] = SOURCES) -> list[str]:
    """Definitions of the package that no file of ``scope`` names outside themselves."""
    trees = parsed()
    named = defaultdict(list)  # name -> [(path, line)]
    for path in scope:
        for name, line in mentions(trees[path]):
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


UNSCRIPTED = "an attack the action language cannot express yet, built only by tests (ROADMAP item 1)"
HOST_SURFACE = "the host's guarded surface, pinned by the access-gate tests until the host holds a port (ROADMAP item 2)"
ORACLE = "the codec's one-frame form, which the GCM oracle tests hold the packet engine to"
TEST_FACING = {  # definitions only the tests name, and why each stays
    "SwapBinary": UNSCRIPTED,
    "SubstituteCheckpoint": UNSCRIPTED,
    "host_read_tile": HOST_SURFACE,
    "host_write_tile": HOST_SURFACE,
    "host_read_register": HOST_SURFACE,
    "host_autoload": HOST_SURFACE,
    "host_reset": HOST_SURFACE,
    "encrypt_frame": ORACLE,
    "decrypt_frame": ORACLE,
}


def test_nothing_exists_for_the_tests_alone():
    """A new definition only the tests name fails, and so does an entry
    whose definition went or got a caller in the package or the benchmark."""
    assert {where.split()[1] for where in unused_definitions(PROGRAM)} == set(TEST_FACING)


def unread_attributes() -> list[str]:
    """``self.x`` stores in the package whose attribute name is never
    loaded anywhere; a ``+=`` counts as a store, not a read."""
    return [
        f"{path.name}:{node.lineno} self.{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parsed()[path])
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in loaded()
    ]


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []


def unread_fields() -> list[str]:
    """Fields of the package's dataclasses that no package, test or bench
    file loads as an attribute or names in a dotted-name string (``StreamIV``
    reads its fields by name, through ``attrgetter``)."""
    named = loaded() | {word for tree in parsed().values() for node in ast.walk(tree) for word in words(node)}
    modules = [importlib.import_module(f"itx.{path.stem}") for path in sorted(PACKAGE.glob("[!_]*.py"))]
    return [
        f"{cls.__name__}.{f.name}"
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        for f in dataclasses.fields(cls)
        if f.name not in named
    ]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


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


def call_name(node: ast.Call) -> str | None:
    """The last name of a call's callable: ``f`` for ``f(...)`` and ``x.f(...)``."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def unset_options() -> list[str]:
    """Defaulted parameters of the package's functions and methods that no
    call in the package or the benchmark to a callable of that name passes:
    by keyword, by a positional argument that reaches it, or by a ``*`` or
    ``**`` argument.  ``__init__`` is called by its class's name; other dunder
    methods and the ``TEST_FACING`` definitions are exempt."""
    trees = parsed()
    positional, keywords, unpacked = defaultdict(int), defaultdict(set), set()
    for path in PROGRAM:
        for node in ast.walk(trees[path]):
            name = call_name(node) if isinstance(node, ast.Call) else None
            if name is None:
                continue
            positional[name] = max(positional[name], sum(not isinstance(a, ast.Starred) for a in node.args))
            keywords[name].update(k.arg for k in node.keywords if k.arg)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                unpacked.add(name)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        owners = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(node))
            name = owner if node.name == "__init__" else node.name
            dunder = node.name.startswith("__") and node.name != "__init__"
            if dunder or name in TEST_FACING or name in unpacked:
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            skipped = int(owner is not None and not static)  # self or cls, which no call passes
            args = node.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            options = [(p.arg, i - skipped) for i, p in enumerate(params) if i >= first]
            options += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            unset += [
                f"{name}({param})"
                for param, at in options
                if param not in keywords[name] and (at is None or at >= positional[name])
            ]
    return unset


UNSET_OPTIONS = {  # options no call in the package or the benchmark passes, and why each stays
    "tee_init(epoch)": "the host passes it, through ``TrustedJobSession._staged``'s ``*args``",
    "tee_init(checkpoint_id)": "the host passes it, through ``TrustedJobSession._staged``'s ``*args``",
    "main(argv)": "the console script calls ``main()`` and argparse reads ``sys.argv``; the CLI tests pass theirs",
    "make_deployment(ca)": "a second card under one CA, which only the verifier's wrong-card row builds",
}


def test_every_option_is_set():
    """A new option no caller sets fails, and so does an entry whose option
    went or got a caller in the package or the benchmark."""
    assert set(unset_options()) == set(UNSET_OPTIONS)
