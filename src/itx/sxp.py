"""Transaction-level simulator of the Secure Exchange Pipe (SXP).

The SXP sits between the on-chip exchange and the PCIe complex and applies
AES-256-GCM to DMA traffic one packet at a time.  Unlike the frame codec,
which seals whole frames in one call, this model keeps the hardware's
*incremental* pipeline so that context state, key selection, and mid-frame
violations behave like the real engine:

* per-context state is one library AEAD, keyed at key load; a frame in
  flight adds its IV, its owner tile and the bytes it has passed, all
  dropped when the frame ends;
* the first 16-byte block of a frame is consumed as the IV block, which
  opens the frame; a CC flag on that block is a violation;
* each packet's data blocks are XORed with the frame's GCM keystream at
  their offset (the AEAD's counter-mode pass over the frame so far), so
  ingress releases plaintext before the tag is checked;
* the block arriving with the CC (frame-close) flag is the MAC slot: one
  AEAD call over the whole frame puts the tag there on egress and checks
  the tag there on ingress;
* the engine rewrites each packet's payload (and, on egress, key index) in
  place at the same length, as the hardware pipeline does;
* a violation raises on the packet that commits it, leaving the packet as it
  came, and latches the engine, which then drops encrypted traffic until
  reset; loading or invalidating a key mid-frame raises ``ContextBusy``.

Key selection is register-driven: ``kxbctxmap`` maps the source tile's
exchange-block context to a physical key context, ``kphysmap`` binds each
context to a key region, and ``ksellimit`` defines up to 17 disjoint address
regions of which region 0 always bypasses the engine in cleartext.

What a job fixes is derived once, not per packet: a register image is
validated and frozen as it is built, with each exchange block's route and
region 0's bounds, and the control unit keeps each distinct one that
validating the manifest built at ``tee_init``; a context's AEAD is built at
key load.  A packet costs its checks and its crypto.

The chip's geometry, fixed in silicon and stated by no manifest, lives here
too: tiles, their memory, exchange blocks and packets.

Counter-mode semantics follow the AES-GCM standard (initial counter block is
IV ‖ 1, first data block uses IV ‖ 2) so engine output interoperates with
conformant software implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    ContextBusy,
    FrameInterleavingViolation,
    IndexOutOfRange,
    InvalidRegisterProgram,
    KeyNotLoaded,
    SecurityException,
)

NUM_CONTEXTS = 16
NUM_REGIONS = 17
CLEARTEXT_REGION = 0
BLOCK_BYTES = 16
TILE_COUNT = 16
TILE_MEMORY = 64 * 1024
TILES_PER_EBC = 4  # tiles sharing one exchange-block context
PACKET_BYTES = 64  # payload of a DMA packet, and of a read completion


# ---------------------------------------------------------------------------
# packets and registers
# ---------------------------------------------------------------------------


class PacketKind(Enum):
    READ_REQUEST = "read_request"
    READ_COMPLETION = "read_completion"
    WRITE_REQUEST = "write_request"


READ_REQUEST, READ_COMPLETION, WRITE_REQUEST = PacketKind


@dataclass(slots=True)
class ExchangePacket:
    kind: PacketKind
    src_tile: int
    address: int
    payload: bytes = b""
    aes: bool = False
    cc: bool = False
    key_index: Optional[int] = None
    read_length: int = 0
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is READ_REQUEST:
            if self.payload:
                raise ValueError("read requests carry no payload")
        elif len(self.payload) % BLOCK_BYTES:
            raise ValueError("packet payload must be a multiple of 16 bytes")


@dataclass(frozen=True)
class AddressRegion:
    start: int
    end: int  # exclusive

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise InvalidRegisterProgram(f"empty address region [{self.start:#x},{self.end:#x})")


@dataclass(frozen=True)
class SxpRegisters:
    """The three key-selection register maps programmed by the CCU.  An image
    is validated once, here, and its maps are read-only copies, so one image
    can be programmed at every barrier of a job and nothing can change it in
    between.  ``clear`` (region 0's bounds) and ``routes`` (exchange block ->
    key context, region id and bounds) are derived from the maps."""

    kxbctxmap: Mapping[int, int] = field(default_factory=dict)
    ksellimit: Mapping[int, AddressRegion] = field(default_factory=dict)
    kphysmap: Mapping[int, int] = field(default_factory=dict)
    clear: tuple[int, int] = field(init=False, repr=False, compare=False)
    routes: Mapping[int, tuple[int, int, int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("kxbctxmap", "ksellimit", "kphysmap"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        if len(self.ksellimit) > NUM_REGIONS:
            raise InvalidRegisterProgram(
                f"{len(self.ksellimit)} regions exceed the {NUM_REGIONS}-region limit"
            )
        regions = sorted(self.ksellimit.items(), key=lambda item: item[1].start)
        for rid, region in regions:
            if not 0 <= rid < NUM_REGIONS:
                raise InvalidRegisterProgram(f"region id {rid} out of range")
        for (rid_a, a), (rid_b, b) in zip(regions, regions[1:]):  # in start order, neighbours overlap if any do
            if b.start < a.end:
                raise InvalidRegisterProgram(f"regions {rid_a} and {rid_b} overlap")
        for ebc, ctx in self.kxbctxmap.items():
            if not 0 <= ctx < NUM_CONTEXTS:
                raise InvalidRegisterProgram(f"kxbctxmap[{ebc}]={ctx} out of range")
        seen_regions: set[int] = set()
        for ctx, rid in self.kphysmap.items():
            if not 0 <= ctx < NUM_CONTEXTS:
                raise InvalidRegisterProgram(f"kphysmap context {ctx} out of range")
            if rid == CLEARTEXT_REGION:
                raise InvalidRegisterProgram("region 0 is always cleartext, never keyed")
            if rid not in self.ksellimit:
                raise InvalidRegisterProgram(f"kphysmap names undefined region {rid}")
            if rid in seen_regions:
                raise InvalidRegisterProgram(f"kphysmap maps two contexts to region {rid}")
            seen_regions.add(rid)
        for ebc, ctx in self.kxbctxmap.items():
            if ctx not in self.kphysmap:
                raise InvalidRegisterProgram(f"context {ctx} has no key region")
        bounds = {rid: (rid, region.start, region.end) for rid, region in self.ksellimit.items()}
        object.__setattr__(self, "clear", bounds.get(CLEARTEXT_REGION, (0, 0, 0))[1:])
        object.__setattr__(self, "routes", MappingProxyType(
            {ebc: (ctx, *bounds[self.kphysmap[ctx]]) for ebc, ctx in self.kxbctxmap.items()}))


CLEARTEXT = "cleartext"


# ---------------------------------------------------------------------------
# key contexts
# ---------------------------------------------------------------------------


class _KeyContext:
    """One of the 16 physical key slots: an AEAD from ``load`` to ``zeroize``,
    and the frame in flight (IV, owner tile, passed bytes) until
    ``end_frame``.  Passed bytes are ciphertext on ingress, plaintext on egress."""

    __slots__ = ("index", "aead", "iv", "owner_tile", "passed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.zeroize()

    @property
    def active(self) -> bool:
        return self.iv is not None

    def zeroize(self) -> None:
        self.aead: Optional[AESGCM] = None
        self.end_frame()

    def end_frame(self) -> None:
        self.iv: Optional[bytes] = None
        self.owner_tile: Optional[int] = None
        self.passed = bytearray()

    def load(self, key: bytes) -> None:
        if self.active:
            raise ContextBusy(f"context {self.index} has a frame in flight")
        if len(key) != 32:
            raise InvalidRegisterProgram("SXP keys are 256 bits")
        self.aead = AESGCM(key)

    def invalidate(self) -> None:
        if self.active:
            raise ContextBusy(f"context {self.index} has a frame in flight")
        self.zeroize()

    def stream(self, data: bytes) -> bytes:
        """XOR ``data`` with the keystream where the frame has got to, and pass
        it: the AEAD's counter-mode pass over zeros for what the frame already
        passed, then ``data``, with the tag cut off."""
        start = len(self.passed)
        self.passed += data
        return self.aead.encrypt(self.iv, bytes(start) + data, None)[start:-BLOCK_BYTES]


# ---------------------------------------------------------------------------
# pending read table (PCI-complex model)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _PendingRead:
    src_tile: int
    key_index: Optional[int]
    aes: bool
    address: int
    packets_remaining: int


class PendingReadTable:
    """On-chip cache of (key_index, aes) for outstanding read requests.

    The PCIe complex stamps these fields onto read completions and sets the
    CC bit on the last completion of each request, so the ingress SXP can
    trust frame boundaries even though the host generates the completions.
    """

    def __init__(self) -> None:
        self._entries: dict[int, _PendingRead] = {}
        self.created = 0
        self.retired = 0

    def note_request(self, pkt: ExchangePacket) -> None:
        if pkt.kind is not READ_REQUEST or pkt.request_id is None:
            raise ValueError("only identified read requests are tracked")
        packets = max(1, -(-pkt.read_length // PACKET_BYTES))
        self._entries[pkt.request_id] = _PendingRead(
            pkt.src_tile, pkt.key_index, pkt.aes, pkt.address, packets
        )
        self.created += 1

    def make_completions(self, request_id: int, data: bytes) -> list[ExchangePacket]:
        """Split host data into completion packets with trusted fields stamped."""
        entry = self._entries.get(request_id)
        if entry is None:
            raise SecurityException(f"completion for unknown read request {request_id}")
        step, length = PACKET_BYTES, len(data)
        count = max(1, -(-length // step))
        if count != entry.packets_remaining:
            raise SecurityException(
                f"read {request_id}: host returned {count} packets, "
                f"expected {entry.packets_remaining}"
            )
        tile, address, aes, key_index = entry.src_tile, entry.address, entry.aes, entry.key_index
        packets = [
            ExchangePacket(
                READ_COMPLETION, tile, address + off, data[off : off + step],
                aes, off + step >= length, key_index, 0, request_id
            )
            for off in range(0, count * step, step)
        ]
        del self._entries[request_id]
        self.retired += 1
        return packets


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class SxpEngine:
    """One SXP lane: a sequential state machine over exchange packets."""

    def __init__(self, name: str = "sxp") -> None:
        self.name = name
        self.registers: Optional[SxpRegisters] = None
        self.contexts = [_KeyContext(i) for i in range(NUM_CONTEXTS)]
        self._keyed: set[int] = set()  # the contexts loaded since they were last zeroized
        self.latched = False

    # -- configuration ------------------------------------------------------

    def program_registers(self, regs: SxpRegisters) -> None:
        """Program an image, which its construction validated."""
        for ctx in self.contexts:
            if ctx.active:
                raise ContextBusy("cannot reprogram registers mid-frame")
        self.registers = regs

    def load_key(self, ctx_index: int, key: bytes) -> None:
        self._context(ctx_index).load(key)
        self._keyed.add(ctx_index)

    def invalidate_key(self, ctx_index: int) -> None:
        self._context(ctx_index).invalidate()
        self._keyed.discard(ctx_index)

    def invalidate_all_keys(self) -> None:
        """Zeroize every context that holds a key (a frame in flight needs
        one); with none loaded, as at a clear run's barriers, it costs nothing."""
        for index in self._keyed:
            self.contexts[index].zeroize()
        self._keyed.clear()

    def reset(self) -> None:
        """Device reset: clears the latch, all key material, and registers."""
        self.invalidate_all_keys()
        self.registers = None
        self.latched = False

    def _context(self, index: int) -> _KeyContext:
        if not 0 <= index < NUM_CONTEXTS:
            raise IndexOutOfRange(f"key context {index} outside 0..{NUM_CONTEXTS - 1}")
        return self.contexts[index]

    def _keyed_context(self, index: int) -> _KeyContext:
        ctx = self._context(index)
        if ctx.aead is None:
            raise self._security_exception(f"context {index} has no key", KeyNotLoaded)
        return ctx

    # -- key selection ------------------------------------------------------

    def select_context(self, src_tile: int, address: int):
        """Map (tile, address) to the cleartext path or a physical context."""
        regs = self.registers
        if regs is None:
            raise self._security_exception("packet before registers were programmed")
        start, end = regs.clear
        if start <= address < end:
            return CLEARTEXT
        route = regs.routes.get(src_tile // TILES_PER_EBC)
        if route is None:
            raise self._security_exception(
                f"tile {src_tile} (ebc {src_tile // TILES_PER_EBC}) has no key context mapping"
            )
        ctx, region_id, start, end = route
        if not start <= address < end:
            raise self._security_exception(
                f"tile {src_tile} address {address:#x} outside region {region_id} "
                f"of context {ctx}"
            )
        return ctx

    def _security_exception(
        self, reason: str, kind: type[SecurityException] = SecurityException
    ) -> SecurityException:
        """Latch the engine and return the ``kind`` exception to raise."""
        self.latched = True
        return kind(f"{self.name}: {reason}")

    # -- egress (read requests / write requests) ----------------------------

    def process_egress(self, pkt: ExchangePacket) -> Optional[ExchangePacket]:
        kind = pkt.kind
        if kind is not READ_REQUEST and kind is not WRITE_REQUEST:
            raise InvalidRegisterProgram(f"egress cannot process {kind}")
        if not pkt.aes:
            return pkt
        if self.latched:
            return None
        selection = self.select_context(pkt.src_tile, pkt.address)
        if selection is CLEARTEXT:
            raise self._security_exception(
                f"aes-flagged packet from tile {pkt.src_tile} targets the cleartext region"
            )
        if kind is WRITE_REQUEST:
            ctx = self._keyed_context(selection)
            if ctx.active and ctx.owner_tile != pkt.src_tile:
                owner = ctx.owner_tile
                ctx.end_frame()
                raise self._security_exception(
                    f"tile {pkt.src_tile} intruded on context {selection} owned by tile {owner}",
                    FrameInterleavingViolation,
                )
            pkt.payload = self._run_frame(ctx, pkt, True)
        pkt.key_index = selection
        return pkt

    # -- ingress (read completions) ------------------------------------------

    def process_ingress(self, pkt: ExchangePacket) -> Optional[ExchangePacket]:
        if pkt.kind is not READ_COMPLETION:
            raise InvalidRegisterProgram(f"ingress cannot process {pkt.kind}")
        if not pkt.aes:
            return pkt
        if self.latched:
            return None
        if pkt.key_index is None:
            raise self._security_exception("aes completion without a key index")
        pkt.payload = self._run_frame(self._keyed_context(pkt.key_index), pkt, False)
        return pkt

    # -- the frame pipeline shared by both directions --------------------------

    def _run_frame(self, ctx: _KeyContext, pkt: ExchangePacket, egress: bool) -> bytes:
        """Pass one packet's blocks through the frame in flight on ``ctx``.

        A packet that finds the context idle opens a frame with its first
        block; the CC flag makes its last block the MAC slot.  Plaintext
        leaves ingress before the frame's tag is checked, as in hardware.
        """
        payload = pkt.payload
        if not payload:
            return payload
        head = b""
        if not ctx.active:
            head = self._open_frame(ctx, pkt)
            payload = payload[BLOCK_BYTES:]
        if not pkt.cc:
            return head + ctx.stream(payload)
        aead, iv, passed = ctx.aead, ctx.iv, ctx.passed
        ctx.end_frame()
        if egress:
            return head + aead.encrypt(iv, passed + payload[:-BLOCK_BYTES], None)[len(passed) :]
        try:
            plain = aead.decrypt(iv, passed + payload, None)
        except InvalidTag:
            raise self._security_exception(f"context {ctx.index}: frame tag mismatch") from None
        return head + plain[len(passed) :] + payload[-BLOCK_BYTES:]

    def _open_frame(self, ctx: _KeyContext, pkt: ExchangePacket) -> bytes:
        """Check the packet's leading IV block and open a frame with it."""
        iv_block = pkt.payload[:BLOCK_BYTES]
        if pkt.cc and len(pkt.payload) == BLOCK_BYTES:
            raise self._security_exception(f"context {ctx.index}: frame closed on its IV block")
        if any(iv_block[12:]):
            raise self._security_exception(
                f"context {ctx.index}: nonzero counter area in the IV block"
            )
        ctx.iv, ctx.owner_tile = iv_block[:12], pkt.src_tile
        return iv_block
