"""One admission rule: the control unit and the clear reference refuse the
same manifests, with the same typed error, before either runs anything, and
what they admit runs inside the device's tiles.

Each example mutates a compiled manifest once, near the edges of what the
rule admits, and hands it to both consumers: ``tee_init`` (with no parties,
so only the manifest is judged) and ``run_clear_reference``, whose device is
replaced by a sentinel so that getting as far as building it counts as
admitting the job.  An admitted job then runs in the clear on a device that
checks, at every barrier, that no tile's memory changed size: it completes,
or refuses with a typed error."""

import dataclasses
import functools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from itx import runtime
from itx.ccu import INITIALIZED, NO_TEE
from itx.device import MODE_NORMAL, TILE_COUNT, TILE_MEMORY
from itx.errors import ItxError
from itx.manifest import SyncPlan
from itx.sandbox import make_deployment, make_sgd_fixture, make_sum_fixture


@functools.cache
def deployment():
    return make_deployment(seed=11)


@functools.cache
def fixture(kind: str):
    """A 2-step SGD job (with checkpoints) or a 17-stream sum (without)."""
    if kind == "sgd":
        return make_sgd_fixture(deployment(), steps=2)
    return make_sum_fixture(deployment(), stream_count=17)


TILES = st.sampled_from([-1, 0, 1, TILE_COUNT - 1, TILE_COUNT])
OFFSETS = st.sampled_from([-16, -1, 0, 0x2000, TILE_MEMORY - 48, TILE_MEMORY - 16, TILE_MEMORY - 6, TILE_MEMORY])
LENGTHS = st.sampled_from([-16, -1, 0, 1, 16, 48])
INDICES = st.integers(0, TILE_COUNT - 1)


def replace_layout(manifest, tile: int, **changes):
    layouts = list(manifest.tile_layouts)
    layouts[tile] = dataclasses.replace(layouts[tile], **changes)
    return dataclasses.replace(manifest, tile_layouts=tuple(layouts))


@st.composite
def moved(draw, manifest):
    i = draw(st.integers(0, len(manifest.plans) - 1))
    move = (draw(TILES), draw(OFFSETS), draw(TILES), draw(OFFSETS), draw(LENGTHS))
    plans = list(manifest.plans)
    plans[i] = dataclasses.replace(plans[i], moves=(*plans[i].moves, move))
    return dataclasses.replace(manifest, plans=tuple(plans))


@st.composite
def relaid(draw, manifest):
    layouts, i, j = list(manifest.tile_layouts), draw(INDICES), draw(INDICES)
    change = draw(st.sampled_from(["drop", "repeat", "swap"]))
    if change == "drop":
        del layouts[i]
    elif change == "repeat":
        layouts.insert(j, layouts[i])
    else:
        layouts[i], layouts[j] = layouts[j], layouts[i]
    return dataclasses.replace(manifest, tile_layouts=tuple(layouts))


def bound_tiles(manifest) -> list[int]:
    return [layout.tile_id for layout in manifest.tile_layouts if layout.bindings]


@st.composite
def rebound(draw, manifest):
    tile = draw(st.sampled_from(bound_tiles(manifest)))
    bindings = manifest.tile_layouts[tile].bindings
    k = draw(st.integers(0, len(bindings) - 1))
    if draw(st.booleans()):  # the same stream bound twice
        return replace_layout(manifest, tile, bindings=(*bindings, bindings[k]))
    sid = draw(st.sampled_from([*manifest.stream_table, 0, 77]))
    changed = dataclasses.replace(bindings[k], stream_id=sid)
    return replace_layout(manifest, tile, bindings=(*bindings[:k], changed, *bindings[k + 1 :]))


@st.composite
def reblocked(draw, manifest):
    tile = draw(st.sampled_from(bound_tiles(manifest)))
    first, *rest = manifest.tile_layouts[tile].bindings
    changed = dataclasses.replace(first, block_len=draw(st.sampled_from([-1, 0, 1, 2, 3])))
    return replace_layout(manifest, tile, bindings=(changed, *rest))


@st.composite
def rechecked(draw, manifest):
    return replace_layout(manifest, draw(INDICES), ckpt_buf_off=draw(OFFSETS), ckpt_len=draw(LENGTHS))


@st.composite
def flagged(draw, manifest):
    i = draw(st.integers(0, len(manifest.plans) - 1))
    plans = list(manifest.plans)
    plans[i] = dataclasses.replace(plans[i], checkpoint=True)
    return dataclasses.replace(manifest, plans=tuple(plans))


@st.composite
def opened(draw, manifest):
    """Barrier 0, where the tiles start without parking, runs a plan that moves or checkpoints."""
    move = (draw(INDICES), 0x2000, draw(INDICES), 0x2000, 16)
    plan = draw(st.sampled_from([SyncPlan(moves=(move,)), SyncPlan(checkpoint=True), SyncPlan(True, (move,))]))
    (_, offsets), *rest = manifest.schedule
    return dataclasses.replace(manifest, plans=(*manifest.plans, plan), schedule=((len(manifest.plans), offsets), *rest))


class Built(Exception):
    """The clear run got as far as building its device: it admitted the job."""


class SizeKeeping(runtime._ClearDevice):
    """The clear device, checking at every barrier that each tile kept its size."""

    def run_interval(self):
        barrier = super().run_interval()
        assert [len(tile.memory) for tile in self.tiles] == [TILE_MEMORY] * TILE_COUNT
        return barrier


def refusal(call) -> ItxError | None:
    """The typed error ``call`` refuses with; None if it admits."""
    try:
        call()
    except ItxError as exc:
        return exc
    except Built:
        pass
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["sgd", "sum"]))
def test_the_control_unit_and_the_clear_reference_refuse_the_same_manifests(data, kind):
    job = fixture(kind)
    family = data.draw(st.sampled_from([moved, relaid, rebound, reblocked, rechecked, flagged, opened]))
    manifest = data.draw(family(job.compiled.manifest))
    dep = deployment()
    by_ccu = refusal(lambda: dep.ccu.tee_init(manifest.to_bytes(), {}, {}, {}))
    if by_ccu is None:
        assert dep.ccu.tee.phase == INITIALIZED
        dep.device.reset("sbr")
    assert dep.ccu.tee.phase == NO_TEE and dep.device.mode == MODE_NORMAL
    clear_run = functools.partial(runtime.run_clear_reference, manifest, job.compiled.binaries, job.clear_inputs())
    with mock.patch.object(runtime, "_ClearDevice", side_effect=Built):
        by_clear = refusal(clear_run)
    assert type(by_ccu) is type(by_clear), (by_ccu, by_clear)
    if by_clear is None:
        with mock.patch.object(runtime, "_ClearDevice", SizeKeeping):
            refusal(clear_run)
