"""Job manifest: the compiler-emitted plan that the CCU attests and enforces.

The manifest binds together everything integrity-relevant about a job: the
hash chain of its tile binaries, the bootloader measurement, the stream
table, per-tile data layouts, and the barriers: ``plans`` states each
distinct plan (its moves, whether it checkpoints) once, and ``schedule``
gives each sync id a plan index and stream offsets, expanded by
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
read from its entry, and whether frame *i* is in a window from ``in_window``.

No field states a key.  The interval after a barrier keys the streams of
its schedule offsets, and each frame-serial phase (boot, checkpoint save and
restore) the one stream of its kind; the register image and key loads of
each follow from those streams, the tile bindings and the stream table
(``keyed`` names them, ``validated_images`` derives them).  The device
empties both key banks whenever its tiles park, so a key is present only in
the interval or phase that keys its stream.

It alone decides which jobs a device may run: the clear reference applies
``admit``, the control unit ``validated_images``, which adds each derived
register image, and the device re-checks none of it.

Routing note: all requests (reads and writes) are key-selected on the egress
path, by the requesting tile's exchange block, so one register image serves
both directions, and no exchange block may walk two streams keyed at once.
Keys live in direction-specific context banks: an input stream's key in the
ingress bank (completions carry the stamped index), an output stream's in
the egress bank.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .encoding import Record, digest_hex
from .errors import InvalidRegisterProgram
from .frame_codec import payload_capacity
from .sxp import TILE_COUNT, TILE_MEMORY, TILES_PER_EBC, AddressRegion, SxpRegisters

# stream kinds
CODE = "code"
DATA = "data"
CHECKPOINT = "checkpoint"
OUTPUT = "output"

DIR_IN = "in"
DIR_OUT = "out"

# key banks, named as the device's packet engines: read traffic's and write traffic's
INGRESS = "ingress"
EGRESS = "egress"

# The frame-serial phases: the control unit moves their frames strictly one
# at a time, so every exchange block may route to their one key.  Each keys
# the stream of one kind, in one bank: boot reads the code stream, a save
# writes the checkpoint stream and a restore reads it.
BOOT = (CODE, INGRESS)
SAVE = (CHECKPOINT, EGRESS)
RESTORE = (CHECKPOINT, INGRESS)

# What an image keys: its streams, and the bank of its frame-serial phase (None at a barrier).
Keyed = tuple[frozenset[int], Optional[str]]
Loads = tuple[tuple[str, int, int], ...]  # (bank, context, stream id)


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
    """What a barrier does while the tiles are parked (one plan may serve
    many): its internal exchange, and whether it checkpoints.  Its keys are
    not stated: the interval after it keys the streams of its schedule
    offsets, which are also the input streams the host fills, and the
    register image and key loads follow from them (``JobManifest.keyed``).
    """

    checkpoint: bool = False
    moves: tuple[tuple[int, int, int, int, int], ...] = ()  # src, src_off, dst, dst_off, len


@dataclass(frozen=True)
class JobManifest(Record):
    ipu_id: int
    binary_hash: str  # hex digest of the chained tile binaries
    bootloader_measurement: str
    stream_table: dict[int, StreamTableEntry]
    tile_layouts: tuple[TileLayout, ...]
    plans: tuple[SyncPlan, ...]  # each distinct barrier plan once
    schedule: tuple[tuple[int, dict[int, int]], ...]  # sync id -> (plan index, stream offsets)
    model_receivers: tuple[str, ...]  # sorted and distinct, each a stream owner
    frame_size: int  # every stream's frame size, in bytes
    clear_region: tuple[int, int]  # the ring range of region 0 in every derived image

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

    def keyed(self, at: int | tuple[str, str]) -> Keyed:
        """What the interval after barrier ``at`` keys, the streams of its
        offsets, or what the frame-serial phase ``at`` keys, the stream of its
        kind in its bank: the key of its image in ``validated_images``."""
        if isinstance(at, int):
            return frozenset(self.schedule[at][1]), None
        kind, bank = at
        return frozenset((self.stream_of_kind(kind),)), bank

    def validated_images(self) -> dict[Keyed, tuple[SxpRegisters, Loads]]:
        """Apply the whole rule, and return the register image and key loads
        that doing so derived for everything the job keys (boot, every
        barrier, and the save and restore of a job with checkpoints), each
        distinct one once, by ``keyed``: the control unit programs these."""
        self.admit()
        phases = [BOOT, *range(len(self.schedule))]
        if any(entry.kind == CHECKPOINT for entry in self.stream_table.values()):
            phases += [SAVE, RESTORE]
        walked = self._walked()
        return {keyed: self._image(*keyed, walked) for keyed in dict.fromkeys(map(self.keyed, phases))}

    def _walked(self) -> list[set[int]]:
        """Exchange block -> the streams its tiles walk."""
        walked: list[set[int]] = [set() for _ in range(TILE_COUNT // TILES_PER_EBC)]
        for layout in self.tile_layouts:
            walked[layout.tile_id // TILES_PER_EBC].update(spec.stream_id for spec in layout.bindings)
        return walked

    def _image(self, streams: frozenset[int], bank: Optional[str],
               walked: list[set[int]]) -> tuple[SxpRegisters, Loads]:
        """The register image and key loads that key ``streams``, validated as
        the image is built.  The i-th stream in id order takes context i and
        region i + 1, region 0 being the cleartext region (which no device
        write targets), with its extent.  Each exchange block whose tiles
        bind a keyed stream routes to that stream's context, or, in a
        frame-serial phase, every block does.  A key is loaded in the
        phase's ``bank``, or at a barrier in the bank of its stream's direction."""
        regions, kphysmap, contexts, loads = {0: AddressRegion(*self.clear_region)}, {}, {}, []
        for ctx, sid in enumerate(sorted(streams)):
            regions[ctx + 1], kphysmap[ctx], contexts[sid] = AddressRegion(*self.extent(sid)), ctx + 1, ctx
            loads.append((bank or (INGRESS if self.stream_table[sid].direction == DIR_IN else EGRESS), ctx, sid))
        kxbctxmap = {ebc: contexts[sid] for ebc, sids in enumerate(walked)
                     for sid in (streams if bank else sids & streams)}
        return SxpRegisters(kxbctxmap=kxbctxmap, ksellimit=regions, kphysmap=kphysmap), tuple(loads)

    def admit(self) -> "JobManifest":
        """Apply the rule but for what only a packet engine needs (each
        derived register image).  A bad frame size raises
        ``InvalidFrameSize``, every other refusal ``InvalidRegisterProgram``."""
        payload_capacity(self.frame_size)
        kinds = Counter(entry.kind for entry in self.stream_table.values())
        saves = kinds[CHECKPOINT] == 1
        if kinds[CODE] != 1 or kinds[OUTPUT] != 1 or kinds[CHECKPOINT] > 1:
            raise InvalidRegisterProgram(f"stream kinds {dict(kinds)}: not one code and one output stream")
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
        opening = self.plans[self.schedule[0][0]]  # the tiles are never parked at barrier 0
        if opening.moves or opening.checkpoint:
            raise InvalidRegisterProgram("barrier 0 never parks, so its plan can neither move nor checkpoint")
        # The egress path selects a key by exchange block: a stream keyed at a
        # barrier is walked in one block, and no block walks two keyed there.
        walked, keysets = self._walked(), {frozenset(offsets) for _, offsets in self.schedule}
        keyed = frozenset().union(*keysets)
        for a, b in combinations(walked, 2):
            if a & b & keyed:
                raise InvalidRegisterProgram(f"stream {min(a & b & keyed)}, keyed at a barrier, "
                                             "is bound in several exchange blocks")
        for streams in keysets:
            if any(len(streams & sids) > 1 for sids in walked):
                raise InvalidRegisterProgram(f"streams {sorted(streams)}, keyed at one barrier: "
                                             "an exchange block binds two of them")
        receivers, owners = self.model_receivers, {entry.party for entry in self.stream_table.values()} - {""}
        if not (receivers and owners.issuperset(receivers) and receivers == tuple(sorted(set(receivers)))):
            raise InvalidRegisterProgram(f"bad model receivers {receivers}: not sorted, distinct stream owners")
        return self
