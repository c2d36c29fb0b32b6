"""Only the manifest, which answers every ring-address question, reads the
fields that place or size a region in the ring; the
compiler, which allocates the ring, writes them, and every other module asks
the manifest."""

import ast
from pathlib import Path

import pytest

import itx

MODULES = sorted(Path(itx.__file__).parent.glob("*.py"))
LAYOUT_FIELDS = {"region_base", "region_frames"}
READERS = {"manifest"}


def layout_reads(tree: ast.Module) -> list[tuple[int, str]]:
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in LAYOUT_FIELDS
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_ring_map_and_the_allocator_read_layout_fields(path):
    """The reader does read them, so the exemption cannot go stale."""
    reads = layout_reads(ast.parse(path.read_text()))
    assert bool(reads) == (path.stem in READERS), reads
