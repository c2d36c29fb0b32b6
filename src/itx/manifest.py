"""Job manifest: the compiler-emitted plan that the CCU attests and enforces.

The manifest binds together everything integrity-relevant about a job: the
hash chain of its tile binaries, the bootloader measurement, the stream
table, per-tile data layouts, and the barriers: ``plans`` states each
distinct plan (the streams it keys, register maps, key loads) once, and
``schedule`` gives each sync id a plan index and stream offsets, expanded by
``plan(sync_id)``.  Each fact is stated once: the job's frame size and
cleartext region sit on the manifest, and a stream's owner and extent on its
stream-table entry.  The device's geometry is not a fact of the job: there is
one chip, and its constants live in ``sxp``.
Parties review a manifest before releasing keys.  Its measurement is the
SHA-256 of its canonical bytes (``to_bytes()``); the host hands those bytes
to the control unit, and the attestation report commits to their digest.

It is also the one reader of the ring layout: the SXP keys a DMA frame by
its address, so every ring address (a stream's extent, frame *i* under a
window, a tile's code and checkpoint frames) is a pure function of the
fields below, and each role asks its own manifest.  A stream's extent is
read from its entry, whether frame *i* is in a window from ``in_window``,
and a plan's register image is derived: ``registers(plan)`` maps region 0 to
the cleartext region (which no device write targets), each stream the plan
keys to its extent, and each loaded context to its stream's region.

It alone decides which jobs a device may run: the clear reference applies
``admit``, the control unit ``validated_images``, which adds each plan's
register image and key loads, and the device re-checks none of it.

Routing note: all requests (reads and writes) are key-selected on the egress
path, so a plan's one register image serves both directions: the plan states
its ``ctxmap``, and the image's ``kphysmap`` maps each context the plan loads
to the region of the stream it is loaded with.  Keys live in
direction-specific context banks: ``ingress_loads`` key read traffic
(completions carry the stamped index), ``egress_loads`` key write traffic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .encoding import Record, digest_hex
from .errors import InvalidRegisterProgram
from .frame_codec import payload_capacity
from .sxp import TILE_COUNT, TILE_MEMORY, AddressRegion, SxpRegisters

# stream kinds
CODE = "code"
DATA = "data"
CHECKPOINT = "checkpoint"
OUTPUT = "output"

DIR_IN = "in"
DIR_OUT = "out"


@dataclass(frozen=True)
class StreamTableEntry(Record):
    party: str  # the owner, who keys the stream; empty for streams keyed by the control unit itself
    direction: str
    kind: str
    plaintext_length: int
    region_base: int  # base tile-PCI address of the stream's buffer region
    region_frames: int  # frames the region holds


@dataclass(frozen=True)
class BindingSpec(Record):
    """How one tile walks one stream: global index of the k-th access is
    start_index + (k // block_len) * stride + (k % block_len)."""

    stream_id: int
    buf_off: int  # tile-memory destination/source offset
    start_index: int
    stride: int = 1
    block_len: int = 1

    def frame_index(self, k: int) -> int:
        return self.start_index + (k // self.block_len) * self.stride + (k % self.block_len)


@dataclass(frozen=True)
class TileLayout(Record):
    tile_id: int
    code_offset: int  # byte offset of this tile's frames inside the code region
    code_frames: int
    binary_length: int
    bindings: tuple[BindingSpec, ...] = ()
    ckpt_buf_off: int = 0  # tile-memory range covered by checkpoints
    ckpt_len: int = 0


def inside_tile(offset: int, length: int) -> bool:
    """Whether ``length`` bytes at ``offset`` lie inside a tile's memory."""
    return 0 <= length and 0 <= offset <= TILE_MEMORY - length


def frame_count(length: int, payload_size: int) -> int:
    """How many frames ``length`` plaintext bytes fill, ``payload_size`` to a frame; never none."""
    return max(1, -(-length // payload_size))


def checkpoint_frames(n_bindings: int, ckpt_len: int, payload_size: int) -> int:
    """Frames one tile's checkpoint fills: its ``<I`` pc, its cursor table
    (``<I`` count, a ``<HI`` pair per binding) and its checkpointed memory."""
    return frame_count(8 + 6 * n_bindings + ckpt_len, payload_size)


def checkpoint_span(layouts: Iterable[TileLayout], payload_size: int) -> int:
    """Frames in every tile's checkpoint slot: as many as the longest checkpoint fills."""
    return max(checkpoint_frames(len(l.bindings), l.ckpt_len, payload_size) for l in layouts)


@dataclass(frozen=True)
class SyncPlan(Record):
    """Register state and host actions for a barrier (one plan may serve many).

    The host fills the input streams among a barrier's schedule offsets.  The
    boot, checkpoint and restore plans are frame-serial: the control unit
    sends their encrypted traffic strictly one frame at a time, so they
    alone may map several exchange-block contexts to one key context.
    """

    stream_regions: dict[int, int] = field(default_factory=dict)  # stream id -> key region id
    ctxmap: dict[int, int] = field(default_factory=dict)  # exchange-block ctx -> key ctx
    ingress_loads: tuple[tuple[int, int], ...] = ()  # (context, stream_id), read bank
    egress_loads: tuple[tuple[int, int], ...] = ()  # (context, stream_id), write bank
    invalidate: tuple[int, ...] = ()  # contexts rotated out before loading
    checkpoint: bool = False
    moves: tuple[tuple[int, int, int, int, int], ...] = ()  # src, src_off, dst, dst_off, len


@dataclass(frozen=True)
class JobManifest(Record):
    ipu_id: int
    binary_hash: str  # hex digest of the chained tile binaries
    bootloader_measurement: str
    stream_table: dict[int, StreamTableEntry]
    tile_layouts: tuple[TileLayout, ...]
    boot_plan: SyncPlan  # registers/keys for the secure bootstrap phase
    plans: tuple[SyncPlan, ...]  # each distinct barrier plan once
    schedule: tuple[tuple[int, dict[int, int]], ...]  # sync id -> (plan index, stream offsets)
    checkpoint_plan: Optional[SyncPlan]  # egress state for checkpoint saves
    restore_plan: Optional[SyncPlan]  # ingress state for checkpoint restore
    model_receivers: tuple[str, ...]  # sorted and distinct, each a stream owner
    frame_size: int  # every stream's frame size, in bytes
    clear_region: tuple[int, int]  # the ring range of region 0 in every plan's image

    def measurement(self) -> str:
        return digest_hex(self.to_bytes())

    def stream_of_kind(self, kind: str) -> int:
        """The id of the job's stream of ``kind`` (one each of code, checkpoint and output)."""
        for sid, entry in self.stream_table.items():
            if entry.kind == kind:
                return sid
        raise KeyError(f"no {kind} stream in the manifest")

    def plan(self, sync_id: int) -> Optional[tuple[SyncPlan, dict[int, int]]]:
        """(plan, stream offsets) of barrier ``sync_id``; barrier 0 precedes the first interval."""
        if not 0 <= sync_id < len(self.schedule):
            return None
        index, offsets = self.schedule[sync_id]
        return self.plans[index], offsets

    # -- the ring map ----------------------------------------------------------

    def extent(self, stream_id: int) -> tuple[int, int]:
        """The ring range of a stream's region."""
        entry = self.stream_table[stream_id]
        return entry.region_base, entry.region_base + entry.region_frames * self.frame_size

    def in_window(self, stream_id: int, index: int, first: int) -> bool:
        """Whether a stream's frame ``index`` is in the window that starts at frame ``first``."""
        return first <= index < first + self.stream_table[stream_id].region_frames

    def frame_address(self, stream_id: int, index: int, window: int = 0) -> int:
        """Ring address of a stream's frame ``index`` while its window starts at frame ``window``."""
        return self.stream_table[stream_id].region_base + (index - window) * self.frame_size

    def registers(self, plan: SyncPlan) -> SxpRegisters:
        """A plan's register image, validated as it is built: region 0 is the
        cleartext region, each stream the plan keys has its extent, and each
        context the plan loads maps to the region of the stream it is loaded with."""
        regions = {0: AddressRegion(*self.clear_region)}
        for sid, rid in plan.stream_regions.items():
            regions[rid] = AddressRegion(*self.extent(sid))
        kphysmap: dict[int, int] = {}
        for ctx, sid in plan.ingress_loads + plan.egress_loads:
            if sid not in plan.stream_regions:
                raise InvalidRegisterProgram(f"a key load for stream {sid}, which the plan does not key")
            if kphysmap.setdefault(ctx, plan.stream_regions[sid]) != plan.stream_regions[sid]:
                raise InvalidRegisterProgram(f"context {ctx} is loaded for two regions")
        return SxpRegisters(kxbctxmap=plan.ctxmap, ksellimit=regions, kphysmap=kphysmap)

    def code_addresses(self, layout: TileLayout) -> list[int]:
        """Ring addresses of a tile's code frames, in frame order."""
        sid = self.stream_of_kind(CODE)
        return [self.frame_address(sid, f) + layout.code_offset for f in range(layout.code_frames)]

    def checkpoint_addresses(self) -> dict[int, list[int]]:
        """Tile -> ring addresses of the frames its checkpoint fills, from the
        start of its slot; every slot is as long as the longest checkpoint."""
        sid = self.stream_of_kind(CHECKPOINT)
        payload = payload_capacity(self.frame_size)
        span = checkpoint_span(self.tile_layouts, payload)
        frames = {l.tile_id: checkpoint_frames(len(l.bindings), l.ckpt_len, payload) for l in self.tile_layouts}
        return {t: [self.frame_address(sid, t * span + f) for f in range(n)] for t, n in frames.items()}

    # -- admission -----------------------------------------------------------

    def validate(self) -> "JobManifest":
        self.validated_images()
        return self

    def validated_images(self) -> dict[int, SxpRegisters]:
        """Apply the whole rule, and return the register image that doing so
        built for each plan (boot, checkpoint, restore and barrier plans),
        keyed by ``id(plan)``: the control unit programs these at barriers."""
        self.admit()
        plans = {"boot plan": self.boot_plan, "checkpoint plan": self.checkpoint_plan,
                 "restore plan": self.restore_plan, **{f"plan {i}": p for i, p in enumerate(self.plans)}}
        return {id(plan): self._validate_plan(where, plan) for where, plan in plans.items() if plan is not None}

    def admit(self) -> "JobManifest":
        """Apply the rule but for what only a packet engine needs (each plan's
        register image and key loads).  A bad frame size raises
        ``InvalidFrameSize``, every other refusal ``InvalidRegisterProgram``."""
        payload_capacity(self.frame_size)
        kinds = Counter(entry.kind for entry in self.stream_table.values())
        saves = kinds[CHECKPOINT] == 1
        if kinds[CODE] != 1 or kinds[OUTPUT] != 1 or kinds[CHECKPOINT] > 1:
            raise InvalidRegisterProgram(f"stream kinds {dict(kinds)}: not one code and one output stream")
        if not saves == (self.checkpoint_plan is not None) == (self.restore_plan is not None):
            raise InvalidRegisterProgram("a checkpoint stream, checkpoint plan and restore plan come only together")
        if len(self.tile_layouts) != TILE_COUNT:
            raise InvalidRegisterProgram("the manifest does not lay out each device tile exactly once")
        for i, layout in enumerate(self.tile_layouts):
            sids = {spec.stream_id for spec in layout.bindings if spec.block_len >= 1}
            if layout.tile_id != i:
                raise InvalidRegisterProgram(f"layout {i} is tile {layout.tile_id}, not each device tile exactly once")
            if len(sids) != len(layout.bindings) or not self.stream_table.keys() >= sids:
                raise InvalidRegisterProgram(f"tile {i}: a stream binding walks blocks of fewer than one frame, "
                                             "or names a stream twice or one not in the table")
            if not inside_tile(layout.ckpt_buf_off, layout.ckpt_len):
                raise InvalidRegisterProgram(f"tile {i}: the checkpointed range leaves the tile's memory")
        for i, plan in enumerate(self.plans):
            if plan.checkpoint and not saves:
                raise InvalidRegisterProgram(f"plan {i} checkpoints a job without checkpoints")
            if len(set(plan.ctxmap.values())) != len(plan.ctxmap):  # a barrier plan is never frame-serial
                raise InvalidRegisterProgram(f"plan {i}: several exchange-block contexts share one key context "
                                             "outside a frame-serial phase")
            for src, at, dst, to, n in plan.moves:  # n bytes at ``at`` on tile src go to ``to`` on tile dst
                if not (0 <= src < TILE_COUNT and 0 <= dst < TILE_COUNT and inside_tile(at, n) and inside_tile(to, n)):
                    raise InvalidRegisterProgram(f"plan {i}: a move from tile {src} to {dst} leaves the device's tiles")
        if not self.schedule:
            raise InvalidRegisterProgram("empty barrier schedule")
        for sync_id, (index, offsets) in enumerate(self.schedule):
            if not 0 <= index < len(self.plans):
                raise InvalidRegisterProgram(f"sync point {sync_id}: no plan {index}")
            if any(off < 0 or sid not in self.stream_table for sid, off in offsets.items()):
                raise InvalidRegisterProgram(f"sync point {sync_id}: bad stream offsets {offsets}")
        receivers, owners = self.model_receivers, {entry.party for entry in self.stream_table.values()} - {""}
        if not (receivers and owners.issuperset(receivers) and receivers == tuple(sorted(set(receivers)))):
            raise InvalidRegisterProgram(f"bad model receivers {receivers}: not sorted, distinct stream owners")
        return self

    def _validate_plan(self, where: str, plan: SyncPlan) -> SxpRegisters:
        for sid, rid in plan.stream_regions.items():
            if rid == 0:
                raise InvalidRegisterProgram(f"{where}: stream {sid} in cleartext region")
            if sid not in self.stream_table:
                raise InvalidRegisterProgram(f"{where}: unknown stream {sid}")
        if len(set(plan.stream_regions.values())) != len(plan.stream_regions):
            raise InvalidRegisterProgram(f"{where}: several streams share one key region")
        return self.registers(plan)  # building an image validates it
