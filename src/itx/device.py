"""Accelerator device model: tiles, tile programs, and the DMA datapath.

The device is a bulk-synchronous machine: every tile runs its program up to
the next synchronization phase, all tiles must name the same barrier, and
barrier-side state changes (internal exchanges, register reprogramming, key
loads, checkpoints) happen while the tiles are parked.

In trusted mode all host access paths to tiles and device registers fail
closed with ``AccessDenied``; data leaves or enters the device only through
the packet-level crypto engines.  In normal ("clear") mode the same programs
run with plaintext stream sources and sinks so that results can be compared
against the confidential path bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional

from .encoding import Record
from .errors import (
    AccessDenied,
    ImageTooLarge,
    IndexOutOfRange,
    InvalidEncoding,
    InvalidPhase,
    SecurityException,
)
from .frame_codec import (
    BLOCK_BYTES,
    IV_BLOCK_BYTES,
    IV_BYTES,
    TAG_BYTES,
    StreamIV,
    StreamType,
    payload_capacity,
)
from .manifest import (
    CHECKPOINT,
    CODE,
    OUTPUT,
    BindingSpec,
    JobManifest,
    StreamTableEntry,
    SyncPlan,
    TileLayout,
)
from .sxp import ExchangePacket, PacketKind, PendingReadTable, SxpEngine, SxpRegisters

# ---------------------------------------------------------------------------
# geometry and register defaults
# ---------------------------------------------------------------------------

TILE_MEMORY = 64 * 1024
BOOT_RESERVED = 1024  # autoloader target region at the bottom of each tile
BINARY_OFFSET = BOOT_RESERVED  # tile binaries are placed right above it

MODE_NORMAL = "normal"
MODE_TRUSTED = "trusted"

DEFAULT_REGISTERS = {
    "trusted_mode": 0,
    "link_enable": 1,
    "hsp_period": 1000,
    "exchange_window": 0,
}


def _registers_digest(registers: dict[str, int]) -> str:
    blob = b"".join(f"{k}={registers[k]};".encode() for k in sorted(registers))
    return hashlib.sha256(blob).hexdigest()


def trusted_registers_digest() -> str:
    """The register measurement a verifier should expect from a freshly
    quiesced device: factory defaults with trusted mode raised."""
    return _registers_digest({**DEFAULT_REGISTERS, "trusted_mode": 1})


@dataclass(frozen=True)
class DeviceConfig(Record):
    tile_count: int = 16
    tile_memory: int = TILE_MEMORY
    tiles_per_exchange_context: int = 4
    ring_buffer_size: int = 1 << 20
    packet_payload: int = 64


# ---------------------------------------------------------------------------
# tile programs
# ---------------------------------------------------------------------------

PHASE_LOAD = 0
PHASE_COMPUTE = 1
PHASE_STORE = 2
PHASE_SYNC = 3

OP_SUM = 0
OP_AXPY = 1
OP_SGD_STEP = 2

_PROGRAM_MAGIC = b"TP\x01"
_OP_ARGC = {OP_SUM: 3, OP_AXPY: 5, OP_SGD_STEP: 5}
_I32_MIN, _I32_MOD = -(1 << 31), 1 << 32


def _wrap32(v: int) -> int:
    return (v - _I32_MIN) % _I32_MOD + _I32_MIN


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


@dataclass(frozen=True)
class SyncPhase:
    sync_id: int


Phase = LoadPhase | StorePhase | ComputePhase | SyncPhase


@dataclass(frozen=True)
class TileProgram:
    """Deterministically serializable per-tile phase list."""

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
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown phase {ph!r}")
        return b"".join(out)

    @classmethod
    def unpack(cls, blob: bytes, memory: int = TILE_MEMORY) -> "TileProgram":
        """Decode a packed program for a tile of ``memory`` bytes; every
        malformed blob, and every compute op whose operands reach outside
        that memory, raises ``ValueError``."""
        if blob[:3] != _PROGRAM_MAGIC:
            raise ValueError("not a tile program")
        try:
            (count,) = struct.unpack_from("<H", blob, 3)
            off = 5
            phases: list[Phase] = []
            for _ in range(count):
                kind = blob[off]
                off += 1
                if kind in (PHASE_LOAD, PHASE_STORE):
                    sid, frames = struct.unpack_from("<HH", blob, off)
                    off += 4
                    phases.append(LoadPhase(sid, frames) if kind == PHASE_LOAD else StorePhase(sid, frames))
                elif kind == PHASE_COMPUTE:
                    op, argc = struct.unpack_from("<BB", blob, off)
                    off += 2
                    if _OP_ARGC.get(op) != argc:
                        raise ValueError(f"compute op {op} with {argc} arguments")
                    args = struct.unpack_from(f"<{argc}i", blob, off)
                    off += 4 * argc
                    if op != OP_SUM and args[1] <= 0:
                        raise ValueError("step denominator must be positive")
                    # SUM reads args[1] ints at args[0] and writes one at
                    # args[2]; AXPY and SGD read and write args[4] ints at
                    # args[2] and at args[3].
                    if op == OP_SUM:
                        inside = args[1] >= 0 and 0 <= args[0] <= memory - 4 * args[1]
                        inside = inside and 0 <= args[2] <= memory - 4
                    else:
                        end = memory - 4 * args[4]
                        inside = args[4] >= 0 and 0 <= args[2] <= end and 0 <= args[3] <= end
                    if not inside:
                        raise ValueError(f"compute op {op} reaches outside tile memory")
                    phases.append(ComputePhase(op, tuple(args)))
                elif kind == PHASE_SYNC:
                    (sync_id,) = struct.unpack_from("<I", blob, off)
                    off += 4
                    phases.append(SyncPhase(sync_id))
                else:
                    raise ValueError(f"unknown phase kind {kind}")
        except (struct.error, IndexError):
            raise ValueError("truncated tile program") from None
        if off != len(blob):
            raise ValueError("trailing bytes after tile program")
        return cls(tuple(phases))


# ---------------------------------------------------------------------------
# tiles
# ---------------------------------------------------------------------------


class Tile:
    """One tile: private memory, program counter, and stream cursors."""

    def __init__(self, tile_id: int, memory_size: int) -> None:
        self.tile_id = tile_id
        self.memory = bytearray(memory_size)
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
    """The cursor table of a checkpoint payload and of its cleartext
    metadata record: a ``<I`` count, then ``<HI`` (stream, cursor) pairs."""
    pairs = sorted(cursors.items())
    return struct.pack("<I", len(pairs)) + b"".join(struct.pack("<HI", *p) for p in pairs)


def _unpack_cursors(blob: bytes, off: int) -> tuple[dict[int, int], int]:
    """Parse a cursor table at ``off``; returns it and the offset past it."""
    (count,) = struct.unpack_from("<I", blob, off)
    pairs = [struct.unpack_from("<HI", blob, off + 4 + 6 * i) for i in range(count)]
    return dict(pairs), off + 4 + 6 * count


def checkpoint_frames(n_bindings: int, ckpt_len: int, payload_size: int) -> int:
    """Number of frames one tile's checkpoint occupies (used by planner too)."""
    need = 8 + 6 * n_bindings + ckpt_len
    return max(1, -(-need // payload_size))


def pack_checkpoint_metadata(epoch: int, checkpoint_id: int, pc: int, cursors: dict[int, int]) -> bytes:
    blob = struct.pack("<III", epoch, checkpoint_id, pc) + _pack_cursors(cursors)
    pad = (-len(blob)) % BLOCK_BYTES
    return blob + b"\x00" * pad


def parse_checkpoint_metadata(blob: bytes) -> dict:
    """Decode one tile's cleartext checkpoint record; a malformed one raises ``InvalidEncoding``."""
    try:
        epoch, ckpt, pc = struct.unpack_from("<III", blob, 0)
        cursors, _ = _unpack_cursors(blob, 12)
    except struct.error as exc:
        raise InvalidEncoding(f"checkpoint metadata: {exc}") from None
    return {"epoch": epoch, "checkpoint_id": ckpt, "pc": pc, "cursors": cursors}


# ---------------------------------------------------------------------------
# the device
# ---------------------------------------------------------------------------


class IpuDevice:
    """Bulk-synchronous accelerator with a packet-encrypting DMA boundary."""

    def __init__(
        self,
        ipu_id: int = 0,
        config: Optional[DeviceConfig] = None,
        trace: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.ipu_id = ipu_id
        self.config = config or DeviceConfig()
        self.trace = trace
        self.tiles = [Tile(i, self.config.tile_memory) for i in range(self.config.tile_count)]
        self.ring_buffer = RingBuffer(self.config.ring_buffer_size)
        per_ebc = self.config.tiles_per_exchange_context
        self.egress = SxpEngine("egress", tiles_per_ebc=per_ebc, trace=trace)
        self.ingress = SxpEngine("ingress", tiles_per_ebc=per_ebc, trace=trace)
        self.pending = PendingReadTable(self.config.packet_payload)
        self.mode = MODE_NORMAL
        self.registers = dict(DEFAULT_REGISTERS)
        self.on_security: Optional[Callable[[str], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None

        self.manifest: Optional[JobManifest] = None
        self.windows: dict[int, int] = {}
        self.barrier: Optional[int] = None  # where the tiles are parked; the only one keyed
        # The clear reference run changes only read_stream_frame and
        # write_stream_frame; it never boots, checkpoints or restores.
        self.clear_mode = False
        self.clear_sources: dict[int, bytes] = {}
        self.clear_sinks: dict[int, bytearray] = {}
        self._req_id = 0

    # -- tracing / exception fan-out ----------------------------------------

    def _trace(self, record: dict) -> None:
        if self.trace is not None:
            self.trace(record)

    def _security(self, reason: str) -> SecurityException:
        """Record a device-detected violation and notify the control unit."""
        self._trace({"event": "security_exception", "sxp": "device", "reason": reason})
        if self.on_security is not None:
            self.on_security(reason)
        return SecurityException(reason)

    def _forward(self, exc: SecurityException) -> SecurityException:
        """Propagate an engine-latched violation to the control unit."""
        if self.on_security is not None:
            self.on_security(str(exc))
        return exc

    # -- host access surface -------------------------------------------------

    def _host_guard(self, what: str) -> None:
        if self.mode == MODE_TRUSTED:
            self._trace({"event": "host_access_denied", "what": what})
            if self.on_security is not None:
                self.on_security(f"host access in trusted mode: {what}")
            raise AccessDenied(f"trusted mode: {what}")

    def host_read_tile(self, tile_id: int, offset: int, length: int) -> bytes:
        self._host_guard(f"read tile {tile_id}")
        return bytes(self.tiles[tile_id].memory[offset : offset + length])

    def host_write_tile(self, tile_id: int, offset: int, blob: bytes) -> None:
        self._host_guard(f"write tile {tile_id}")
        self.tiles[tile_id].memory[offset : offset + len(blob)] = blob

    def host_read_register(self, name: str) -> int:
        self._host_guard(f"read register {name}")
        return self.registers[name]

    def host_write_register(self, name: str, value: int) -> None:
        self._host_guard(f"write register {name}")
        if name not in self.registers:
            raise KeyError(f"unknown device register {name}")
        self.registers[name] = value

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
        self._trace({"event": "trusted_mode", "on": 1})

    def leave_trusted_mode(self) -> None:
        self.mode = MODE_NORMAL
        self.registers["trusted_mode"] = 0
        self._trace({"event": "trusted_mode", "on": 0})

    def registers_digest(self) -> str:
        return _registers_digest(self.registers)

    def autoload(self, image: bytes) -> None:
        """Broadcast an image into the reserved boot region of every tile."""
        if len(image) > BOOT_RESERVED:
            raise ImageTooLarge(f"{len(image)} bytes exceeds the {BOOT_RESERVED}-byte boot region")
        padded = image.ljust(BOOT_RESERVED, b"\x00")
        for tile in self.tiles:
            tile.memory[0:BOOT_RESERVED] = padded
        self._trace({"event": "autoload", "bytes": len(image)})

    def scrub(self) -> None:
        """Zeroize all tile state (modeled on an autoloader broadcast of zeros)."""
        for tile in self.tiles:
            tile.scrub()
        self._trace({"event": "scrub"})

    def reset(self, kind: str = "sbr") -> None:
        """Any reset flavor ends trusted mode, and the ICU scrubs tile memory
        before host links come back, so no secrets survive into normal mode."""
        if kind not in ("sbr", "newmanry"):
            raise ValueError(f"unknown reset kind {kind!r}")
        self.scrub()
        self.egress.reset()
        self.ingress.reset()
        self.pending = PendingReadTable(self.config.packet_payload)
        self.mode = MODE_NORMAL
        self.registers = dict(DEFAULT_REGISTERS)
        self.manifest = None
        self.windows = {}
        self.barrier = None
        self.clear_sources = {}
        self.clear_sinks = {}
        self._trace({"event": "reset", "kind": kind})
        if self.on_reset is not None:
            self.on_reset()

    def program_registers(self, regs: SxpRegisters) -> None:
        """Program the shared key-selection registers into both directions."""
        self.egress.program_registers(regs)
        self.ingress.program_registers(regs)

    def apply_sync_plan(self, plan: SyncPlan, offsets: dict[int, int]) -> None:
        """Apply the register part of a barrier plan and the barrier's stream
        windows (keys are loaded separately by the key owner)."""
        self.program_registers(plan.registers())
        self.windows.update(offsets)

    # -- job installation ----------------------------------------------------

    def install_boot_params(self, manifest: JobManifest, epoch: int, checkpoint_id: int) -> None:
        self.manifest = manifest
        self.windows = {}
        self.barrier = 0
        for tile in self.tiles:
            tile.layout = layout = manifest.layout(tile.tile_id)
            tile.bindings = {b.stream_id: b for b in layout.bindings}
            tile.cursors = {b.stream_id: 0 for b in layout.bindings}
            tile.epoch = epoch
            tile.checkpoint_id = checkpoint_id
            tile.pc = 0
        self._trace({"event": "boot_params", "epoch": epoch, "checkpoint_id": checkpoint_id})

    def start_application(self) -> None:
        """Tiles bump their epoch as the application starts (or resumes)."""
        for tile in self.tiles:
            tile.epoch += 1
        self._trace({"event": "application_start", "epoch": self.tiles[0].epoch})

    # -- DMA datapath --------------------------------------------------------

    def _next_request_id(self) -> int:
        self._req_id += 1
        return self._req_id

    def _stream(self, stream_id: int) -> StreamTableEntry:
        entry = self.manifest.stream_table.get(stream_id) if self.manifest else None
        if entry is None:
            raise self._security(f"tile referenced unknown stream {stream_id}")
        return entry

    def _stream_of_kind(self, kind: str) -> StreamTableEntry:
        if self.manifest is not None:
            with suppress(KeyError):
                return self.manifest.stream_of_kind(kind)
        raise self._security(f"no {kind} stream in the installed job")

    def _frame_address(self, entry: StreamTableEntry, frame_index: int) -> int:
        window = self.windows.get(entry.stream_id, 0)
        return entry.region_base + (frame_index - window) * entry.frame_total_size

    def _dma_write(self, src_tile: int, address: int, frame: bytes, aes: bool) -> None:
        step = self.config.packet_payload
        for off in range(0, len(frame), step):
            chunk = frame[off : off + step]
            last = off + step >= len(frame)
            pkt = ExchangePacket(
                kind=PacketKind.WRITE_REQUEST,
                src_tile=src_tile,
                dst_tile=src_tile,
                address=address + off,
                payload=chunk,
                aes=aes,
                cc=aes and last,
            )
            try:
                out = self.egress.process_egress(pkt)
            except SecurityException as exc:
                raise self._forward(exc) from None
            if out is None:
                raise self._security("egress engine latched; write dropped")
            self.ring_buffer.write(out.address, out.payload)

    def _dma_read(self, src_tile: int, address: int, length: int) -> bytes:
        rid = self._next_request_id()
        req = ExchangePacket(
            kind=PacketKind.READ_REQUEST,
            src_tile=src_tile,
            dst_tile=src_tile,
            address=address,
            aes=True,
            read_length=length,
            request_id=rid,
        )
        try:
            out = self.egress.process_egress(req)
        except SecurityException as exc:
            raise self._forward(exc) from None
        if out is None:
            raise self._security("egress engine latched; read request dropped")
        self.pending.note_request(out)
        data = self.ring_buffer.read(address, length)
        try:
            completions = self.pending.make_completions(rid, data)
        except SecurityException as exc:
            raise self._forward(exc) from None
        buf = bytearray()
        for completion in completions:
            try:
                plain = self.ingress.process_ingress(completion)
            except SecurityException as exc:
                raise self._forward(exc) from None
            if plain is None:
                raise self._security("ingress engine latched; completion dropped")
            buf += plain.payload
        return bytes(buf)

    def _frame_iv(self, entry: StreamTableEntry, tile: Tile, index: int) -> StreamIV:
        """The IV of frame ``index`` of ``entry`` for ``tile``: code is bound to
        the tile, a checkpoint to the tile and its (epoch, checkpoint)
        counters, data and output to the stream.  Tiles stamp it on what they
        write and demand it of what they read, which stops replay, reordering
        and rollback."""
        if entry.kind == CODE:
            return StreamIV(StreamType.CODE, ipu_id=self.ipu_id, tile_id=tile.tile_id, frame_index=index)
        if entry.kind == CHECKPOINT:
            return StreamIV(
                StreamType.CHECKPOINT,
                ipu_id=self.ipu_id,
                tile_id=tile.tile_id,
                epoch=tile.epoch,
                checkpoint_id=tile.checkpoint_id,
                frame_index=index,
            )
        stype = StreamType.OUTPUT if entry.kind == OUTPUT else StreamType.DATA
        return StreamIV(stype, stream_id=entry.stream_id, frame_index=index)

    def _read_frame(self, tile: Tile, entry: StreamTableEntry, address: int, index: int) -> bytes:
        """Fetch and authenticate one frame; returns the plaintext payload."""
        raw = self._dma_read(tile.tile_id, address, entry.frame_total_size)
        if raw[:IV_BYTES] != self._frame_iv(entry, tile, index).to_bytes():
            where = f"{entry.kind} stream {entry.stream_id} frame {index}"
            raise self._security(f"tile {tile.tile_id}: {where} has wrong IV")
        return raw[IV_BLOCK_BYTES : len(raw) - TAG_BYTES]

    def _write_frame(self, tile: Tile, entry: StreamTableEntry, address: int, index: int, payload: bytes) -> None:
        frame = self._frame_iv(entry, tile, index).iv_block() + payload + b"\x00" * TAG_BYTES
        self._dma_write(tile.tile_id, address, frame, aes=True)

    def read_stream_frame(self, tile_id: int, stream_id: int, frame_index: int) -> bytes:
        entry = self._stream(stream_id)
        if self.clear_mode:
            return self._clear_frame(entry, frame_index)
        address = self._frame_address(entry, frame_index)
        return self._read_frame(self.tiles[tile_id], entry, address, frame_index)

    def write_stream_frame(self, tile_id: int, stream_id: int, frame_index: int, payload: bytes) -> None:
        entry = self._stream(stream_id)
        if self.clear_mode:
            self._clear_store(entry, frame_index, payload)
            return
        address = self._frame_address(entry, frame_index)
        self._write_frame(self.tiles[tile_id], entry, address, frame_index, payload)

    # -- clear-mode stream plumbing -----------------------------------------

    def _clear_frame(self, entry: StreamTableEntry, frame_index: int) -> bytes:
        src = self.clear_sources.get(entry.stream_id)
        if src is None:
            raise self._security(f"no clear source for stream {entry.stream_id}")
        size = payload_capacity(entry.frame_total_size)
        chunk = src[frame_index * size : (frame_index + 1) * size]
        return chunk.ljust(size, b"\x00")

    def _clear_store(self, entry: StreamTableEntry, frame_index: int, payload: bytes) -> None:
        sink = self.clear_sinks.setdefault(entry.stream_id, bytearray())
        size = payload_capacity(entry.frame_total_size)
        end = (frame_index + 1) * size
        if len(sink) < end:
            sink.extend(b"\x00" * (end - len(sink)))
        sink[frame_index * size : end] = payload

    # -- secure bootstrap ----------------------------------------------------

    def run_bootloader(self, tile_id: int) -> bytes:
        """Fetch, authenticate, and install one tile's binary; returns its digest."""
        tile = self.tiles[tile_id]
        entry = self._stream_of_kind(CODE)
        layout = tile.layout
        base = entry.region_base + layout.code_offset
        blob = b"".join(
            self._read_frame(tile, entry, base + f * entry.frame_total_size, f)
            for f in range(layout.code_frames)
        )
        binary = blob[: layout.binary_length]
        tile.memory[BINARY_OFFSET : BINARY_OFFSET + len(binary)] = binary
        try:
            tile.program = TileProgram.unpack(binary, len(tile.memory))
        except ValueError as exc:
            raise self._security(f"tile {tile_id}: binary is not a tile program: {exc}") from None
        tile.pc = 0
        self._trace({"event": "bootloader", "tile": tile_id})
        return hashlib.sha256(binary).digest()

    def install_clear_program(self, tile_id: int, binary: bytes) -> None:
        """Normal-mode program install (host writes the binary directly)."""
        if self.mode == MODE_TRUSTED:
            raise InvalidPhase("clear program install is a normal-mode operation")
        tile = self.tiles[tile_id]
        tile.memory[BINARY_OFFSET : BINARY_OFFSET + len(binary)] = binary
        tile.program = TileProgram.unpack(binary, len(tile.memory))
        tile.pc = 0

    # -- scheduler -----------------------------------------------------------

    def run_interval(self) -> Optional[int]:
        """Advance every tile to its next barrier; returns the common sync id,
        or None once all programs have finished.  The internal exchange
        attached to the barrier runs here, on-chip — the host never gets a
        chance to skip or reorder it."""
        sync_ids = {self._run_tile(tile) for tile in self.tiles}
        if len(sync_ids) != 1:
            raise InvalidPhase(f"tiles disagree on the barrier: {sorted(map(str, sync_ids))}")
        self._park(sync_ids.pop())
        return self.barrier

    def _park(self, sync_id: Optional[int]) -> None:
        """Park the tiles at barrier ``sync_id`` (None: all programs ended) and
        run its internal exchange; the one place an unscheduled barrier is caught."""
        self.barrier = sync_id
        if sync_id is None:
            return
        barrier = self.manifest.plan(sync_id) if self.manifest else None
        if barrier is None:
            raise self._security(f"tiles reached barrier {sync_id}, which is not in the schedule")
        self.apply_moves(barrier[0].moves)

    def _run_tile(self, tile: Tile) -> Optional[int]:
        if tile.program is None:
            return None
        phases = tile.program.phases
        while tile.pc < len(phases):
            ph = phases[tile.pc]
            if isinstance(ph, SyncPhase):
                tile.pc += 1
                return ph.sync_id
            if isinstance(ph, ComputePhase):
                self._exec_compute(tile, ph)
            else:
                self._exec_transfer(tile, ph)
            tile.pc += 1
        return None

    def _exec_transfer(self, tile: Tile, ph: LoadPhase | StorePhase) -> None:
        spec = tile.bindings.get(ph.stream_id)
        if spec is None:
            raise self._security(f"tile {tile.tile_id} has no binding for stream {ph.stream_id}")
        size = payload_capacity(self._stream(ph.stream_id).frame_total_size)
        for i in range(ph.frames):
            k = tile.cursors[ph.stream_id]
            idx = spec.frame_index(k)
            at = spec.buf_off + i * size
            if isinstance(ph, LoadPhase):
                tile.memory[at : at + size] = self.read_stream_frame(tile.tile_id, ph.stream_id, idx)
            else:
                self.write_stream_frame(tile.tile_id, ph.stream_id, idx, bytes(tile.memory[at : at + size]))
            tile.cursors[ph.stream_id] = k + 1

    def _exec_compute(self, tile: Tile, ph: ComputePhase) -> None:
        m = tile.memory
        if ph.op == OP_SUM:
            src, count, dst = ph.args
            vals = struct.unpack_from(f"<{count}i", m, src)
            struct.pack_into("<i", m, dst, _wrap32(sum(vals)))
        elif ph.op == OP_AXPY:
            num, den, x_off, y_off, count = ph.args
            xs = struct.unpack_from(f"<{count}i", m, x_off)
            ys = struct.unpack_from(f"<{count}i", m, y_off)
            out = [_wrap32(y + (num * x) // den) for x, y in zip(xs, ys)]
            struct.pack_into(f"<{count}i", m, y_off, *out)
        elif ph.op == OP_SGD_STEP:
            num, den, w_off, g_off, count = ph.args
            gs = struct.unpack_from(f"<{count}i", m, g_off)
            ws = struct.unpack_from(f"<{count}i", m, w_off)
            out = [_wrap32(w - (num * g) // den) for w, g in zip(ws, gs)]
            struct.pack_into(f"<{count}i", m, w_off, *out)
        else:  # pragma: no cover - unpack() rejects unknown ops
            raise self._security(f"tile {tile.tile_id}: unknown compute op {ph.op}")

    def apply_moves(self, moves: tuple[tuple[int, int, int, int, int], ...]) -> None:
        """Internal exchange at a barrier; sources are snapshotted first so a
        tile can appear as both source and destination."""
        grabbed = [
            bytes(self.tiles[src].memory[s_off : s_off + ln]) for src, s_off, _, _, ln in moves
        ]
        for (_, _, dst, d_off, ln), blob in zip(moves, grabbed):
            self.tiles[dst].memory[d_off : d_off + ln] = blob

    # -- checkpoints ---------------------------------------------------------

    def _checkpoint_slots(self) -> tuple[StreamTableEntry, list[tuple[int, int]]]:
        """The checkpoint stream, and each tile's (first frame address, frame
        count) in it; every tile's slot is as long as the longest."""
        entry = self._stream_of_kind(CHECKPOINT)
        size = payload_capacity(entry.frame_total_size)
        frames = [checkpoint_frames(len(t.bindings), t.layout.ckpt_len, size) for t in self.tiles]
        span = max(frames) * entry.frame_total_size
        return entry, [(entry.region_base + t.tile_id * span, n) for t, n in zip(self.tiles, frames)]

    def checkpoint_save(self) -> None:
        """Write every tile's restart state as an encrypted checkpoint stream
        plus a small cleartext metadata record per tile."""
        entry, slots = self._checkpoint_slots()
        manifest = self.manifest
        size = payload_capacity(entry.frame_total_size)
        for tile, (base, frames) in zip(self.tiles, slots):
            layout = tile.layout
            state = tile.memory[layout.ckpt_buf_off : layout.ckpt_buf_off + layout.ckpt_len]
            payload = struct.pack("<I", tile.pc) + _pack_cursors(tile.cursors) + state
            payload = payload.ljust(frames * size, b"\x00")
            for f in range(frames):
                address = base + f * entry.frame_total_size
                self._write_frame(tile, entry, address, f, payload[f * size : (f + 1) * size])
            record = pack_checkpoint_metadata(tile.epoch, tile.checkpoint_id, tile.pc, tile.cursors)
            slot_addr = manifest.metadata_base + tile.tile_id * manifest.metadata_slot
            self._dma_write(tile.tile_id, slot_addr, record, aes=False)
            tile.checkpoint_id += 1
        self._trace({"event": "checkpoint_save", "epoch": self.tiles[0].epoch})

    def checkpoint_restore(self) -> None:
        """Rebuild tile state from the checkpoint identified by the seeded
        (epoch, checkpoint) counters, then re-park the tiles at the saved
        barrier; tiles verify every frame's IV."""
        entry, slots = self._checkpoint_slots()
        for tile, (base, frames) in zip(self.tiles, slots):
            payload = b"".join(
                self._read_frame(tile, entry, base + f * entry.frame_total_size, f)
                for f in range(frames)
            )
            (pc,) = struct.unpack_from("<I", payload, 0)
            cursors, off = _unpack_cursors(payload, 4)
            layout = tile.layout
            state = payload[off : off + layout.ckpt_len]
            tile.memory[layout.ckpt_buf_off : layout.ckpt_buf_off + layout.ckpt_len] = state
            tile.pc = pc
            tile.cursors.update(cursors)
            tile.checkpoint_id += 1
            tile.epoch += 1
        self._trace({"event": "checkpoint_restore", "epoch": self.tiles[0].epoch})
        tile = self.tiles[0]
        ph = tile.program.phases[tile.pc - 1] if tile.pc else None
        if not isinstance(ph, SyncPhase):
            raise InvalidPhase("restored position is not at a barrier")
        self._park(ph.sync_id)


def read_host_checkpoint_metadata(
    ring_buffer: RingBuffer, metadata_base: int, metadata_slot: int, tile_count: int
) -> list[dict]:
    """Host-side helper: parse the cleartext per-tile checkpoint records."""
    out = []
    for t in range(tile_count):
        blob = ring_buffer.read(metadata_base + t * metadata_slot, metadata_slot)
        out.append(parse_checkpoint_metadata(blob))
    return out
