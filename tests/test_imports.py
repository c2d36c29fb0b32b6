"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import itx

MODULES = sorted(Path(itx.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


CIPHERS = "cryptography.hazmat.primitives.ciphers"


def imported_paths(tree: ast.Module) -> list[str]:
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
    return paths


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_aes_comes_only_through_the_aead(path):
    """The package's one AES primitive is the library AEAD: no module builds
    a cipher from the raw modes of ``cryptography``'s ``ciphers`` package."""
    raw = [
        name
        for name in imported_paths(ast.parse(path.read_text()))
        if (name == CIPHERS or name.startswith(CIPHERS + "."))
        and not name.startswith(CIPHERS + ".aead.")
    ]
    assert raw == []


def called_names(tree: ast.Module) -> set[str]:
    """Names called in ``tree``, bare (``f()``) or as an attribute (``m.f()``)."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize("module", ["device", "sxp"])
def test_the_data_path_builds_no_iv_object(module):
    """The device and the SXP handle a frame's IV as bytes: per-frame
    ``StreamIV`` objects stay off the data path."""
    tree = ast.parse((Path(itx.__file__).parent / f"{module}.py").read_text())
    assert "StreamIV" not in called_names(tree)


def test_the_codec_copies_no_template_per_frame():
    """The stream functions derive each frame's IV from the template's fixed
    field; they do not copy the template with ``dataclasses.replace``."""
    tree = ast.parse((Path(itx.__file__).parent / "frame_codec.py").read_text())
    attributes = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    assert "dataclasses.replace" not in {*imported_paths(tree), *attributes}


def package_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(module, line) of every module of the package that ``tree`` imports;
    the package imports its own modules relatively."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found += [(name, node.lineno) for name in names]
    return found


@pytest.mark.parametrize("module, forbidden", [("pki", {"ccu", "device"})])
def test_the_party_module_imports_no_control_unit_and_no_device(module, forbidden):
    """The parties' module keeps to its role: it reads the shared protocol
    types (``attestation``, ``certs``) but imports neither the control unit
    nor the device it judges."""
    tree = ast.parse((Path(itx.__file__).parent / f"{module}.py").read_text())
    crossings = [f"{module}.py:{line} imports {name}" for name, line in package_imports(tree) if name in forbidden]
    assert crossings == []
