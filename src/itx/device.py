"""Accelerator device model: tiles, tile programs, and the DMA datapath.

The device is a bulk-synchronous machine: every tile runs its program up to
the next synchronization phase, all tiles must name the same barrier, and
barrier-side state changes (internal exchanges, register reprogramming, key
loads, checkpoints) happen while the tiles are parked.

There is one chip; ``sxp`` holds its geometry, and the host's ring is sized
here.  The device runs only a manifest that ``JobManifest``'s rule admitted,
and does not re-check what the rule proves.

In trusted mode all host access paths to tiles and device registers fail
closed with ``AccessDenied``.  In either mode a tile's stream frames move
only through the packet-level crypto engines: the device has no plaintext
stream path.  The clear reference run (``runtime.run_clear_reference``)
serves its frames from a subclass of its own.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Optional

from .attestation import DEFAULT_REGISTERS, _registers_digest
from .errors import AccessDenied, ImageTooLarge, IndexOutOfRange, InvalidPhase, SecurityException
from .frame_codec import (
    IV_BLOCK_BYTES,
    IV_BYTES,
    TAG_BYTES,
    StreamType,
    frame_iv,
    iv_field,
    payload_capacity,
)
from .manifest import CHECKPOINT, CODE, OUTPUT, BindingSpec, JobManifest, TileLayout, inside_tile
from .sxp import (PACKET_BYTES, READ_REQUEST, TILE_COUNT, TILE_MEMORY, WRITE_REQUEST, ExchangePacket,
                  PendingReadTable, SxpEngine, SxpRegisters)

# ---------------------------------------------------------------------------
# ring and boot region
# ---------------------------------------------------------------------------

RING_BYTES = 1 << 20  # the host's staging ring
BOOT_RESERVED = 1024  # autoloader target region at the bottom of each tile
BINARY_OFFSET = BOOT_RESERVED  # tile binaries are placed right above it

MODE_NORMAL = "normal"
MODE_TRUSTED = "trusted"

# ---------------------------------------------------------------------------
# tile programs
#
# A packed program is the magic, a ``<H`` count of packed phases, then each
# phase as its kind byte and fields.  A loop phase repeats the next
# ``length`` phases ``times`` times and adds ``stride`` to every sync id on
# each pass, so pass p of ``SyncPhase(s)`` is ``SyncPhase(s + p * stride)``.
# ``unpack`` expands loops away: the device runs, counts ``pc`` over and
# checkpoints the flat phase tuple, the same one an unrolled binary decodes
# to.  Loops do not nest, and the expansion may hold at most
# ``MAX_PHASES``, the most an unrolled program's ``<H`` count can state.
# ---------------------------------------------------------------------------

PHASE_LOAD = 0
PHASE_COMPUTE = 1
PHASE_STORE = 2
PHASE_SYNC = 3
PHASE_LOOP = 4

MAX_PHASES = 0xFFFF

# Compute ops over little-endian int32 words in tile memory.  OP_SUM
# (src, count, dst) stores the sum of ``count`` words at ``src`` at ``dst``;
# OP_SGD_STEP (num, den, w, g, count) sets each of ``count`` words at ``w`` to
# ``w - (num * g) // den``, with floor division, ``g`` the word at the same
# index at ``g`` and ``den`` positive.  Results wrap to 32 bits, stored as
# the two's-complement int32 bytes.  A chain is a maximal run of consecutive
# SGD steps with one ``w`` and ``count``, each after the first with its ``g``
# words outside the weights, that crosses no loop boundary or pass; its head
# phase carries it.  Run as one pass it is exact: no step writes a gradient a
# later one reads, and wrap(w - t1 - t2) == wrap(wrap(w - t1) - t2) mod 2**32.
OP_SUM = 0
OP_SGD_STEP = 2

_PROGRAM_MAGIC = b"TP\x01"
_OP_ARGC = {OP_SUM: 3, OP_SGD_STEP: 5}


@cache
def _words(count: int) -> tuple[struct.Struct, struct.Struct]:
    """The signed reader and the unsigned writer of ``count`` words; ``unpack``
    bounds ``count`` by the tile's memory, and so the cache."""
    return struct.Struct(f"<{count}i"), struct.Struct(f"<{count}I")


@dataclass(frozen=True)
class LoadPhase:
    stream_id: int
    frames: int


@dataclass(frozen=True)
class StorePhase:
    stream_id: int
    frames: int


@dataclass(frozen=True)
class ComputePhase:
    op: int
    args: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)  # the args of the chain it heads


@dataclass(frozen=True)
class SyncPhase:
    sync_id: int


@dataclass(frozen=True)
class LoopPhase:
    """Run the next ``length`` phases ``times`` times, adding ``stride`` to
    their sync ids on each pass; ``unpack`` expands it, so a device never
    runs one."""

    times: int
    length: int
    stride: int


Phase = LoadPhase | StorePhase | ComputePhase | SyncPhase | LoopPhase

# One SyncPhase per sync id, shared by every program and loop pass; bounded, as ids span 32 bits.
_sync = lru_cache(maxsize=4096)(SyncPhase)


@dataclass(frozen=True)
class TileProgram:
    """Deterministically serializable per-tile phase list; ``pack`` and ``==`` ignore its phases' chains."""

    phases: tuple[Phase, ...]

    def pack(self) -> bytes:
        out = [_PROGRAM_MAGIC, struct.pack("<H", len(self.phases))]
        for ph in self.phases:
            if isinstance(ph, LoadPhase):
                out.append(struct.pack("<BHH", PHASE_LOAD, ph.stream_id, ph.frames))
            elif isinstance(ph, StorePhase):
                out.append(struct.pack("<BHH", PHASE_STORE, ph.stream_id, ph.frames))
            elif isinstance(ph, ComputePhase):
                out.append(struct.pack("<BBB", PHASE_COMPUTE, ph.op, len(ph.args)))
                out.extend(struct.pack("<i", a) for a in ph.args)
            elif isinstance(ph, SyncPhase):
                out.append(struct.pack("<BI", PHASE_SYNC, ph.sync_id))
            elif isinstance(ph, LoopPhase):
                out.append(struct.pack("<BHHI", PHASE_LOOP, ph.times, ph.length, ph.stride))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown phase {ph!r}")
        return b"".join(out)

    @classmethod
    def unpack(cls, blob: bytes) -> "TileProgram":
        """Decode a packed program and expand its loops; every malformed blob,
        every compute op whose operands reach outside a tile's
        ``TILE_MEMORY``, and every loop that nests, runs past the
        program, is empty or would expand past ``MAX_PHASES`` raises
        ``ValueError``, the last before any pass is built."""
        if blob[:3] != _PROGRAM_MAGIC:
            raise ValueError("not a tile program")
        try:
            (count,) = struct.unpack_from("<H", blob, 3)
            off = 5
            phases: list[Phase] = []
            head, run = -1, ()  # the last SGD step's chain: its head's index and its steps' args
            loops: list[tuple[int, LoopPhase]] = []  # (index of the body in ``phases``, loop)
            extra = 0  # phases the loops add beyond one pass of their bodies
            for i in range(count):
                kind = blob[off]
                off += 1
                if kind == PHASE_LOOP:
                    loop = LoopPhase(*struct.unpack_from("<HHI", blob, off))
                    off += 8
                    if loops and len(phases) < loops[-1][0] + loops[-1][1].length:
                        raise ValueError("nested loop")
                    if loop.times == 0 or loop.length == 0:
                        raise ValueError("empty loop")
                    if loop.length > count - i - 1:
                        raise ValueError("loop body runs past the end of the program")
                    extra += (loop.times - 1) * loop.length
                    if len(phases) + extra + loop.length > MAX_PHASES:
                        raise ValueError(f"loop expands past {MAX_PHASES} phases")
                    loops.append((len(phases), loop))
                elif kind in (PHASE_LOAD, PHASE_STORE):
                    sid, frames = struct.unpack_from("<HH", blob, off)
                    off += 4
                    phases.append(LoadPhase(sid, frames) if kind == PHASE_LOAD else StorePhase(sid, frames))
                elif kind == PHASE_COMPUTE:
                    op, argc = struct.unpack_from("<BB", blob, off)
                    off += 2
                    if op not in _OP_ARGC:
                        raise ValueError(f"unknown compute op {op}")
                    if _OP_ARGC[op] != argc:
                        raise ValueError(f"compute op {op} with {argc} arguments")
                    args = struct.unpack_from(f"<{argc}i", blob, off)
                    off += 4 * argc
                    if op != OP_SUM and args[1] <= 0:
                        raise ValueError("step denominator must be positive")
                    # SUM reads args[1] ints at args[0] and writes one at
                    # args[2]; SGD reads and writes args[4] ints at
                    # args[2] and at args[3].
                    if op == OP_SUM:
                        inside = inside_tile(args[0], 4 * args[1]) and inside_tile(args[2], 4)
                    else:
                        inside = inside_tile(args[2], 4 * args[4]) and inside_tile(args[3], 4 * args[4])
                    if not inside:
                        raise ValueError(f"compute op {op} reaches outside tile memory")
                    if op == OP_SGD_STEP:
                        n, (w, g, c) = len(phases), args[2:]
                        if (head + len(run) == n and (run[0][2], run[0][4]) == (w, c)
                                and not w - 4 * c < g < w + 4 * c  # the gradient is not in the weights
                                and not (loops and n - loops[-1][0] in (0, loops[-1][1].length))):
                            phases[head] = ComputePhase(op, run[0], run := run + (args,))
                        else:
                            head, run = n, (args,)
                    phases.append(ComputePhase(op, tuple(args)))
                elif kind == PHASE_SYNC:
                    (sync_id,) = struct.unpack_from("<I", blob, off)
                    off += 4
                    phases.append(_sync(sync_id))
                else:
                    raise ValueError(f"unknown phase kind {kind}")
        except (struct.error, IndexError):
            raise ValueError("truncated tile program") from None
        if off != len(blob):
            raise ValueError("trailing bytes after tile program")
        if len(phases) + extra > MAX_PHASES:
            raise ValueError(f"loops expand past {MAX_PHASES} phases")
        # Later bodies first, so earlier body starts stay put; the passes repeat
        # the body's phase objects, but for its sync phases, taken from _sync.
        for start, loop in reversed(loops):
            body = phases[start : start + loop.length]
            last = (loop.times - 1) * loop.stride
            if any(isinstance(ph, SyncPhase) and ph.sync_id + last > 0xFFFFFFFF for ph in body):
                raise ValueError("loop carries a sync id past 32 bits")
            passes = body * loop.times
            for i, ph in enumerate(body):
                if isinstance(ph, SyncPhase):
                    passes[i :: loop.length] = [_sync(ph.sync_id + p * loop.stride) for p in range(loop.times)]
            phases[start : start + loop.length] = passes
        return cls(tuple(phases))


# ---------------------------------------------------------------------------
# tiles
# ---------------------------------------------------------------------------


class Tile:
    """One tile: private memory, program counter, and stream cursors."""

    def __init__(self, tile_id: int) -> None:
        self.tile_id = tile_id
        self.memory = bytearray(TILE_MEMORY)
        self.program: Optional[TileProgram] = None
        self.pc = 0
        self.epoch = 0
        self.checkpoint_id = 0
        self.layout: Optional[TileLayout] = None
        self.bindings: dict[int, BindingSpec] = {}
        self.cursors: dict[int, int] = {}

    def scrub(self) -> None:
        self.memory[:] = bytes(len(self.memory))
        self.program = None
        self.pc = 0
        self.epoch = 0
        self.checkpoint_id = 0
        self.bindings = {}
        self.cursors = {}


class RingBuffer:
    """Untrusted host-side staging memory addressed through tile-PCI space."""

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)

    def read(self, address: int, length: int) -> bytes:
        if address < 0 or address + length > len(self.data):
            raise IndexOutOfRange(f"host memory read [{address:#x}, +{length}) out of bounds")
        return bytes(self.data[address : address + length])

    def write(self, address: int, blob: bytes) -> None:
        if address < 0 or address + len(blob) > len(self.data):
            raise IndexOutOfRange(f"host memory write [{address:#x}, +{len(blob)}) out of bounds")
        self.data[address : address + len(blob)] = blob


# ---------------------------------------------------------------------------
# checkpoint payload layout
# ---------------------------------------------------------------------------


def _pack_cursors(cursors: dict[int, int]) -> bytes:
    """A checkpoint payload's cursor table: a ``<I`` count, then ``<HI`` (stream, cursor) pairs."""
    pairs = sorted(cursors.items())
    return struct.pack("<I", len(pairs)) + b"".join(struct.pack("<HI", *p) for p in pairs)


def _unpack_cursors(blob: bytes, off: int) -> tuple[dict[int, int], int]:
    """Parse a cursor table at ``off``; returns it and the offset past it."""
    (count,) = struct.unpack_from("<I", blob, off)
    pairs = [struct.unpack_from("<HI", blob, off + 4 + 6 * i) for i in range(count)]
    return dict(pairs), off + 4 + 6 * count


# ---------------------------------------------------------------------------
# the device
# ---------------------------------------------------------------------------


class IpuDevice:
    """Bulk-synchronous accelerator with a packet-encrypting DMA boundary."""

    ring_bytes = RING_BYTES

    def __init__(self, ipu_id: int = 0) -> None:
        self.ipu_id = ipu_id
        self.tiles = [Tile(i) for i in range(TILE_COUNT)]
        self.ring_buffer = RingBuffer(self.ring_bytes)
        self.egress = SxpEngine("egress")
        self.ingress = SxpEngine("ingress")
        self.pending = PendingReadTable()
        self.mode = MODE_NORMAL
        self.registers = dict(DEFAULT_REGISTERS)
        self.on_security: Optional[Callable[[str], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None

        self.manifest: Optional[JobManifest] = None
        self.payload = 0  # a frame's payload bytes, fixed by the installed job
        self.windows: dict[int, int] = {}
        self.barrier: Optional[int] = None  # where the tiles are parked; the only one keyed
        self._iv_fields: dict[tuple[int, int, int, int], bytes] = {}
        self._ckpt_slots: Optional[dict[int, list[int]]] = None  # the job's, at first use
        self._programs: dict[bytes, TileProgram] = {}  # binary -> its decoded program, until a scrub
        self._req_id = 0

    # -- exception fan-out ---------------------------------------------------

    def _security(self, reason: str) -> SecurityException:
        """Notify the control unit of a device-detected violation."""
        return self._forward(SecurityException(reason))

    def _forward(self, exc: SecurityException) -> SecurityException:
        """Propagate an engine-latched violation to the control unit."""
        if self.on_security is not None:
            self.on_security(str(exc))
        return exc

    # -- host access surface -------------------------------------------------

    def _host_guard(self, what: str) -> None:
        if self.mode == MODE_TRUSTED:
            if self.on_security is not None:
                self.on_security(f"host access in trusted mode: {what}")
            raise AccessDenied(f"trusted mode: {what}")

    def host_read_tile(self, tile_id: int, offset: int, length: int) -> bytes:
        self._host_guard(f"read tile {tile_id}")
        return bytes(self._tile_memory(tile_id, offset, length)[offset : offset + length])

    def host_write_tile(self, tile_id: int, offset: int, blob: bytes) -> None:
        self._host_guard(f"write tile {tile_id}")
        self._tile_memory(tile_id, offset, len(blob))[offset : offset + len(blob)] = blob

    def _tile_memory(self, tile_id: int, offset: int, length: int) -> bytearray:
        if not (0 <= tile_id < TILE_COUNT and inside_tile(offset, length)):
            raise IndexOutOfRange(f"tile {tile_id} [{offset:#x}, +{length}) is outside the device's tiles")
        return self.tiles[tile_id].memory

    def host_read_register(self, name: str) -> int:
        self._host_guard(f"read register {name}")
        return self.registers[self._register(name)]

    def host_write_register(self, name: str, value: int) -> None:
        self._host_guard(f"write register {name}")
        self.registers[self._register(name)] = value

    def _register(self, name: str) -> str:
        if name not in self.registers:
            raise IndexOutOfRange(f"unknown device register {name}")
        return name

    def host_autoload(self, image: bytes) -> None:
        self._host_guard("autoload")
        self.autoload(image)

    def host_reset(self, kind: str = "sbr") -> None:
        """Resets are always available to the host; they end any trusted run."""
        self.reset(kind)

    # -- trusted-side operations (driven by the control unit) ----------------

    def enter_trusted_mode(self) -> None:
        if self.mode == MODE_TRUSTED:
            raise InvalidPhase("device already in trusted mode")
        self.mode = MODE_TRUSTED
        self.registers["trusted_mode"] = 1

    def leave_trusted_mode(self) -> None:
        self.mode = MODE_NORMAL
        self.registers["trusted_mode"] = 0

    def registers_digest(self) -> str:
        return _registers_digest(self.registers)

    def autoload(self, image: bytes) -> None:
        """Broadcast an image into the reserved boot region of every tile."""
        if len(image) > BOOT_RESERVED:
            raise ImageTooLarge(f"{len(image)} bytes exceeds the {BOOT_RESERVED}-byte boot region")
        padded = image.ljust(BOOT_RESERVED, b"\x00")
        for tile in self.tiles:
            tile.memory[0:BOOT_RESERVED] = padded

    def scrub(self) -> None:
        """Zeroize all tile state and decoded programs (modeled on an autoloader broadcast of zeros)."""
        for tile in self.tiles:
            tile.scrub()
        self._programs = {}

    def reset(self, kind: str = "sbr") -> None:
        """Any reset flavor ends trusted mode, and the ICU scrubs tile memory
        before host links come back, so no secrets survive into normal mode."""
        if kind not in ("sbr", "newmanry"):
            raise ValueError(f"unknown reset kind {kind!r}")
        self.scrub()
        self.egress.reset()
        self.ingress.reset()
        self.pending = PendingReadTable()
        self.mode = MODE_NORMAL
        self.registers = dict(DEFAULT_REGISTERS)
        self.manifest = None
        self.windows = {}
        self.barrier = None
        if self.on_reset is not None:
            self.on_reset()

    def program_registers(self, regs: SxpRegisters) -> None:
        """Program the shared key-selection registers into both directions."""
        self.egress.program_registers(regs)
        self.ingress.program_registers(regs)

    # -- job installation ----------------------------------------------------

    def install_boot_params(self, manifest: JobManifest, epoch: int, checkpoint_id: int) -> None:
        self.manifest = manifest
        self.payload = payload_capacity(manifest.frame_size)
        self.windows = dict(manifest.plan(0)[1])
        self.barrier = 0
        self._iv_fields = {}
        self._ckpt_slots = None
        for tile in self.tiles:
            tile.layout = layout = manifest.tile_layouts[tile.tile_id]
            tile.bindings = {b.stream_id: b for b in layout.bindings}
            tile.cursors = {b.stream_id: 0 for b in layout.bindings}
            tile.epoch = epoch
            tile.checkpoint_id = checkpoint_id
            tile.pc = 0

    def start_application(self) -> None:
        """Tiles bump their epoch as the application starts (or resumes)."""
        for tile in self.tiles:
            tile.epoch += 1

    # -- DMA datapath --------------------------------------------------------
    #
    # The device's one stream path: every frame a tile loads or stores goes
    # through _read_frame/_write_frame, the packet engines and the ring.  A
    # frame costs its packets, its pending read, its ring access and its IV
    # check; what the job fixes is derived once: each distinct register image
    # when the control unit validates the manifest, each context's AEAD at
    # key load, and a stream's IV fixed field per (tile, epoch, checkpoint id).

    def _dma_write(self, src_tile: int, address: int, frame: bytes) -> None:
        """Write one frame, sealed by the egress engine: the device makes no cleartext write."""
        step, length = PACKET_BYTES, len(frame)
        for off in range(0, length, step):
            pkt = ExchangePacket(
                WRITE_REQUEST, src_tile, address + off, frame[off : off + step], True, off + step >= length
            )
            try:
                out = self.egress.process_egress(pkt)
            except SecurityException as exc:
                raise self._forward(exc) from None
            if out is None:
                raise self._security("egress engine latched; write dropped")
            self.ring_buffer.write(out.address, out.payload)

    def _dma_read(self, src_tile: int, address: int, length: int) -> bytes:
        self._req_id = rid = self._req_id + 1
        req = ExchangePacket(READ_REQUEST, src_tile, address, b"", True, False, None, length, rid)
        try:
            out = self.egress.process_egress(req)
        except SecurityException as exc:
            raise self._forward(exc) from None
        if out is None:
            raise self._security("egress engine latched; read request dropped")
        pending = self.pending
        pending.note_request(out)
        try:
            completions = pending.make_completions(rid, self.ring_buffer.read(address, length))
        except SecurityException as exc:
            raise self._forward(exc) from None
        pieces = []
        for completion in completions:
            try:
                plain = self.ingress.process_ingress(completion)
            except SecurityException as exc:
                raise self._forward(exc) from None
            if plain is None:
                raise self._security("ingress engine latched; completion dropped")
            pieces.append(plain.payload)
        return b"".join(pieces)

    def _frame_iv(self, sid: int, tile: Tile, index: int) -> bytes:
        """The IV of frame ``index`` of stream ``sid`` for ``tile``: code is bound to
        the tile, a checkpoint to the tile and its (epoch, checkpoint)
        counters, data and output to the stream.  Tiles stamp it on what they
        write and demand it of what they read, which stops replay, reordering
        and rollback.  The fixed field is kept per (stream, tile, epoch, checkpoint id)."""
        key = (sid, tile.tile_id, tile.epoch, tile.checkpoint_id)
        field = self._iv_fields.get(key)
        if field is None:
            kind = self.manifest.stream_table[sid].kind
            if kind == CODE:
                field = iv_field(StreamType.CODE, 0, self.ipu_id, tile.tile_id)
            elif kind == CHECKPOINT:
                field = iv_field(StreamType.CHECKPOINT, 0, self.ipu_id, tile.tile_id, tile.epoch, tile.checkpoint_id)
            else:
                field = iv_field(StreamType.OUTPUT if kind == OUTPUT else StreamType.DATA, sid)
            self._iv_fields[key] = field
        return frame_iv(field, index)

    def _read_frame(self, tile: Tile, sid: int, address: int, index: int) -> bytes:
        """Fetch and authenticate one frame; returns the plaintext payload."""
        raw = self._dma_read(tile.tile_id, address, self.manifest.frame_size)
        if raw[:IV_BYTES] != self._frame_iv(sid, tile, index):
            where = f"{self.manifest.stream_table[sid].kind} stream {sid} frame {index}"
            raise self._security(f"tile {tile.tile_id}: {where} has wrong IV")
        return raw[IV_BLOCK_BYTES : len(raw) - TAG_BYTES]

    def _write_frame(self, tile: Tile, sid: int, address: int, index: int, payload: bytes) -> None:
        frame = self._frame_iv(sid, tile, index) + b"\x00\x00\x00\x00" + payload + b"\x00" * TAG_BYTES
        self._dma_write(tile.tile_id, address, frame)

    def read_stream_frame(self, tile_id: int, stream_id: int, frame_index: int) -> bytes:
        address = self.manifest.frame_address(stream_id, frame_index, self.windows.get(stream_id, 0))
        return self._read_frame(self.tiles[tile_id], stream_id, address, frame_index)

    def write_stream_frame(self, tile_id: int, stream_id: int, frame_index: int, payload: bytes) -> None:
        address = self.manifest.frame_address(stream_id, frame_index, self.windows.get(stream_id, 0))
        self._write_frame(self.tiles[tile_id], stream_id, address, frame_index, payload)

    # -- secure bootstrap ----------------------------------------------------
    #
    # Each tile authenticates its own code frames, hashes its binary into the
    # chain and keeps the bytes in its own memory.  Tiles with equal binaries
    # share one decoded program for one install: ``scrub`` (at init, teardown
    # and every reset) drops it, so no decoded program outlives the TEE.

    def run_bootloader(self, tile_id: int) -> bytes:
        """Fetch, authenticate, and install one tile's binary; returns its digest."""
        tile = self.tiles[tile_id]
        sid = self.manifest.stream_of_kind(CODE)
        addresses = self.manifest.code_addresses(tile.layout)
        blob = b"".join(self._read_frame(tile, sid, a, f) for f, a in enumerate(addresses))
        binary = blob[: tile.layout.binary_length]
        self.install_binary(tile, binary)
        return hashlib.sha256(binary).digest()

    def install_binary(self, tile: Tile, binary: bytes) -> None:
        """Place an authenticated binary above ``tile``'s boot region and give ``tile`` its decoded program."""
        tile.memory[BINARY_OFFSET : BINARY_OFFSET + len(binary)] = binary
        if binary not in self._programs:
            try:
                self._programs[binary] = TileProgram.unpack(binary)
            except ValueError as exc:
                raise self._security(f"tile {tile.tile_id}: binary is not a tile program: {exc}") from None
        tile.program = self._programs[binary]

    # -- scheduler -----------------------------------------------------------
    #
    # An interval costs its phases: a tile keeps its pc in a local and
    # dispatches on each phase's exact type.  A compute phase runs the chain
    # its phase carries, or alone, and the pc moves past it; entered inside a
    # chain, the rest runs step by step.  A chain writes signed words, as
    # masking to unsigned ones is most of a write's cost; a result outside
    # int32 makes the struct refuse, and the chain rewrites every word masked.

    def run_interval(self) -> Optional[int]:
        """Advance every tile to its next barrier; returns the common sync id,
        or None once all programs have finished.  The internal exchange
        attached to the barrier runs here, on-chip — the host never gets a
        chance to skip or reorder it."""
        sync_ids = {self._run_tile(tile) for tile in self.tiles}
        if len(sync_ids) != 1:
            raise self._security(f"tiles disagree on the barrier: {sorted(map(str, sync_ids))}")
        self._park(sync_ids.pop())
        return self.barrier

    def _park(self, sync_id: Optional[int]) -> None:
        """Park the tiles at barrier ``sync_id`` (None: all programs ended):
        empty both key banks, as the barrier signal does, so each interval
        holds only the keys its barrier loads, then move its stream windows
        and run its internal exchange; the one place an unscheduled barrier
        is caught."""
        self.barrier = sync_id
        self.egress.invalidate_all_keys()
        self.ingress.invalidate_all_keys()
        if sync_id is None:
            return
        barrier = self.manifest.plan(sync_id) if self.manifest else None
        if barrier is None:
            raise self._security(f"tiles reached barrier {sync_id}, which is not in the schedule")
        self.windows.update(barrier[1])
        self.apply_moves(barrier[0].moves)

    def _run_tile(self, tile: Tile) -> Optional[int]:
        if tile.program is None:
            return None
        phases, memory, pc = tile.program.phases, tile.memory, tile.pc
        end = len(phases)
        try:
            while pc < end:
                ph = phases[pc]
                if type(ph) is SyncPhase:
                    pc += 1
                    return ph.sync_id
                if type(ph) is ComputePhase:
                    steps = ph.steps or (ph.args,)
                    self._exec_compute(memory, ph.op, steps)
                    pc += len(steps) - 1
                else:
                    self._exec_transfer(tile, ph)
                pc += 1
            return None
        finally:
            tile.pc = pc  # past the sync, or at the phase that raised

    def _exec_transfer(self, tile: Tile, ph: LoadPhase | StorePhase) -> None:
        spec = tile.bindings.get(ph.stream_id)
        if spec is None:
            raise self._security(f"tile {tile.tile_id} has no binding for stream {ph.stream_id}")
        sid, tile_id, memory, cursors = ph.stream_id, tile.tile_id, tile.memory, tile.cursors
        size, k = self.payload, cursors[sid]
        if not inside_tile(spec.buf_off, ph.frames * size):
            raise self._security(f"tile {tile_id}: stream {sid} transfer leaves the tile's memory")
        load = type(ph) is LoadPhase
        for at in range(spec.buf_off, spec.buf_off + ph.frames * size, size):
            if load:
                memory[at : at + size] = self.read_stream_frame(tile_id, sid, spec.frame_index(k))
            else:
                self.write_stream_frame(tile_id, sid, spec.frame_index(k), bytes(memory[at : at + size]))
            cursors[sid] = k = k + 1

    def _exec_compute(self, m: bytearray, op: int, steps: tuple[tuple[int, ...], ...]) -> None:
        if op == OP_SUM:
            ((src, count, dst),) = steps
            total = sum(_words(count)[0].unpack_from(m, src))
            _words(1)[1].pack_into(m, dst, total & 0xFFFFFFFF)
        else:  # OP_SGD_STEP, the one other op unpack() admits
            _, _, w_off, _, count = steps[0]
            signed, unsigned = _words(count)
            out, pairs, read = signed.unpack_from(m, w_off), iter(steps), signed.unpack_from
            for (n1, d1, _, g1, _), (n2, d2, _, g2, _) in zip(pairs, pairs):  # two steps to a comprehension
                out = [w - n1 * a // d1 - n2 * b // d2 for w, a, b in zip(out, read(m, g1), read(m, g2))]
            if len(steps) % 2:
                num, den, _, g_off, _ = steps[-1]
                out = [w - num * g // den for w, g in zip(out, read(m, g_off))]
            try:
                signed.pack_into(m, w_off, *out)
            except struct.error:  # a result left int32: wrap every word
                unsigned.pack_into(m, w_off, *[v & 0xFFFFFFFF for v in out])

    def apply_moves(self, moves: tuple[tuple[int, int, int, int, int], ...]) -> None:
        """Internal exchange at a barrier; every source is copied (a bytearray
        slice) before any write, so a tile can be both source and destination."""
        grabbed = [self.tiles[src].memory[s_off : s_off + ln] for src, s_off, _, _, ln in moves]
        for (_, _, dst, d_off, ln), blob in zip(moves, grabbed):
            self.tiles[dst].memory[d_off : d_off + ln] = blob

    # -- checkpoints ---------------------------------------------------------

    def _checkpoint_slots(self) -> dict[int, list[int]]:
        """Every tile's checkpoint frame addresses, a job constant derived once."""
        if self._ckpt_slots is None:
            self._ckpt_slots = self.manifest.checkpoint_addresses()
        return self._ckpt_slots

    def checkpoint_save(self) -> tuple[int, int]:
        """Write every tile's restart state as an encrypted checkpoint stream;
        returns the (epoch, checkpoint id) its IVs carry, which every tile shares."""
        counters = (self.tiles[0].epoch, self.tiles[0].checkpoint_id)
        sid = self.manifest.stream_of_kind(CHECKPOINT)
        slots, size = self._checkpoint_slots(), self.payload
        for tile in self.tiles:
            layout, addresses = tile.layout, slots[tile.tile_id]
            state = tile.memory[layout.ckpt_buf_off : layout.ckpt_buf_off + layout.ckpt_len]
            payload = struct.pack("<I", tile.pc) + _pack_cursors(tile.cursors) + state
            payload = payload.ljust(len(addresses) * size, b"\x00")
            for f, address in enumerate(addresses):
                self._write_frame(tile, sid, address, f, payload[f * size : (f + 1) * size])
            tile.checkpoint_id += 1
        return counters

    def checkpoint_restore(self) -> None:
        """Rebuild tile state from the checkpoint identified by the seeded
        (epoch, checkpoint) counters, then re-park the tiles at the saved
        barrier; tiles verify every frame's IV."""
        sid = self.manifest.stream_of_kind(CHECKPOINT)
        slots = self._checkpoint_slots()
        for tile in self.tiles:
            payload = b"".join(self._read_frame(tile, sid, a, f) for f, a in enumerate(slots[tile.tile_id]))
            (pc,) = struct.unpack_from("<I", payload, 0)
            cursors, off = _unpack_cursors(payload, 4)
            layout = tile.layout
            state = payload[off : off + layout.ckpt_len]
            tile.memory[layout.ckpt_buf_off : layout.ckpt_buf_off + layout.ckpt_len] = state
            tile.pc = pc
            tile.cursors.update(cursors)
            tile.checkpoint_id += 1
            tile.epoch += 1
        tile = self.tiles[0]
        ph = tile.program.phases[tile.pc - 1] if tile.pc else None
        if not isinstance(ph, SyncPhase):
            raise self._security("restored position is not at a barrier")
        self._park(ph.sync_id)
