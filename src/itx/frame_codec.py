"""Frame-based AES-256-GCM protocol for confidential DMA streams.

A stream is a sequence of fixed-size frames.  Every frame is independently
encrypted and authenticated:

    [ 16-byte IV block | ciphertext (16-byte multiple) | 16-byte tag ]

The IV block carries a 12-byte structured stream IV followed by four zero
bytes (the counter area consumed by the hardware pipeline).  Frame sizes are
multiples of 128 bytes up to 1024 bytes, so every frame holds at least one
ciphertext block.  No associated data is ever used; all context that needs
authenticating is packed into the IV itself, which GCM binds to the tag.

A frame is its wire bytes; there is no parsed form.  ``check_frame`` is the
one structural check (size, zero counter area), made before a frame is opened.

The IV layout (big-endian bit widths 8/16/8/16/8/8/32) is GCM's
deterministic construction: an 8-byte fixed field (stream type, stream id,
device and tile coordinates, epoch/checkpoint counters) followed by the frame
index as a 4-byte counter.  Fields that do not apply to a stream type must be
zero, which keeps IVs unique across every stream a key can serve.
``iv_field`` and ``frame_iv`` are the one IV rule: the first refuses an
unknown stream type, any field outside its bit width (packing through the
struct) and, by one mask per type, a nonzero unused field, naming the field;
the second appends the index and refuses one outside 32 bits.  The device
applies them per frame, the stream functions once per template, and
``StreamIV`` packs through them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from typing import Iterable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    AuthenticationFailure,
    InvalidFrame,
    InvalidFrameSize,
    InvalidIvField,
    InvalidLength,
    InvalidPayload,
    IvSequenceViolation,
)

FRAME_ALIGN = 128
MAX_FRAME_BYTES = 1024
BLOCK_BYTES = 16
IV_BYTES = 12
IV_BLOCK_BYTES = 16
TAG_BYTES = 16
FRAME_OVERHEAD = IV_BLOCK_BYTES + TAG_BYTES
KEY_BYTES = 32

_IV_STRUCT = struct.Struct(">BHBHBBI")
_FIELD_STRUCT = struct.Struct(_IV_STRUCT.format[:-1])  # every IV field but the frame index
_INDEX_STRUCT = struct.Struct(">I")
_IV_FIELDS = ("stream_type", "stream_id", "ipu_id", "tile_id", "epoch", "checkpoint_id", "frame_index")
_fixed_fields = attrgetter(*_IV_FIELDS[:-1])


class StreamType(IntEnum):
    CODE = 0
    DATA = 1
    CHECKPOINT = 2
    OUTPUT = 3


# Fields that must be zero for each stream type.  CODE is bound to a tile on
# a device; DATA and OUTPUT are position-in-stream only; CHECKPOINT is bound
# to tile, epoch, and checkpoint counters.
_ZERO_FIELDS = {
    StreamType.CODE: ("stream_id", "epoch", "checkpoint_id"),
    StreamType.DATA: ("ipu_id", "tile_id", "epoch", "checkpoint_id"),
    StreamType.OUTPUT: ("ipu_id", "tile_id", "epoch", "checkpoint_id"),
    StreamType.CHECKPOINT: ("stream_id",),
}


def _field_masks() -> dict[str, int]:
    """Each field's bits in the packed fixed field, read as one big-endian integer."""
    widths = [8 * struct.calcsize(code) for code in _FIELD_STRUCT.format[1:]]
    return {name: ((1 << w) - 1) << sum(widths[i + 1 :]) for i, (name, w) in enumerate(zip(_IV_FIELDS, widths))}


_FIELD_MASKS = _field_masks()
_ZERO_MASKS = {stype: sum(_FIELD_MASKS[name] for name in names) for stype, names in _ZERO_FIELDS.items()}


def iv_field(stream_type, stream_id=0, ipu_id=0, tile_id=0, epoch=0, checkpoint_id=0) -> bytes:
    """A stream's 8-byte fixed field, the part of its IV every frame shares."""
    zero = _ZERO_MASKS.get(stream_type)
    if zero is None:
        raise InvalidIvField(f"unknown stream type {stream_type!r}")
    values = (stream_type, stream_id, ipu_id, tile_id, epoch, checkpoint_id)
    try:
        field = _FIELD_STRUCT.pack(*values)
    except struct.error:
        # the slow search for the offending field runs on the error path only
        for name, code, value in zip(_IV_FIELDS, _FIELD_STRUCT.format[1:], values):
            try:
                struct.pack(">" + code, value)
            except struct.error:
                raise InvalidIvField(f"{name}={value!r} out of range") from None
        raise  # pragma: no cover - unreachable: a field failed to pack above
    if (packed := int.from_bytes(field, "big")) & zero:
        name = next(n for n in _ZERO_FIELDS[stream_type] if packed & _FIELD_MASKS[n])
        raise InvalidIvField(f"{name} must be zero for {StreamType(stream_type).name} streams")
    return field


def frame_iv(field: bytes, index: int) -> bytes:
    """The IV of frame ``index`` of the stream whose fixed field is ``field``."""
    try:
        return field + _INDEX_STRUCT.pack(index)
    except struct.error:
        raise InvalidIvField(f"frame_index={index!r} out of range") from None


@dataclass(frozen=True)
class StreamIV:
    """Structured 12-byte IV; also used (with index 0) as a stream template."""

    stream_type: StreamType
    stream_id: int = 0
    ipu_id: int = 0
    tile_id: int = 0
    epoch: int = 0
    checkpoint_id: int = 0
    frame_index: int = 0

    def field(self) -> bytes:
        return iv_field(*_fixed_fields(self))

    def validate(self) -> "StreamIV":
        self.to_bytes()
        return self

    def to_bytes(self) -> bytes:
        return frame_iv(self.field(), self.frame_index)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StreamIV":
        if len(raw) != IV_BYTES:
            raise InvalidIvField(f"IV must be {IV_BYTES} bytes, got {len(raw)}")
        stype, *rest = _IV_STRUCT.unpack(raw)
        # an unknown type stays an int, which ``validate`` refuses
        return cls(StreamType(stype) if stype in _ZERO_MASKS else stype, *rest).validate()


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def _check_frame_size(total: int) -> None:
    if total < FRAME_ALIGN or total % FRAME_ALIGN or total > MAX_FRAME_BYTES:
        raise InvalidFrameSize(
            f"frame size {total} must be a multiple of {FRAME_ALIGN} in "
            f"[{FRAME_ALIGN}, {MAX_FRAME_BYTES}]"
        )


def payload_capacity(frame_total_size: int) -> int:
    _check_frame_size(frame_total_size)
    return frame_total_size - FRAME_OVERHEAD


def partition(plaintext: bytes, frame_total_size: int) -> list[bytes]:
    """Split ``plaintext`` into frame payloads, zero-padding the final one."""
    capacity = payload_capacity(frame_total_size)
    if not plaintext:
        raise InvalidPayload("cannot partition an empty stream")
    chunks = [plaintext[i : i + capacity] for i in range(0, len(plaintext), capacity)]
    last = chunks[-1]
    if len(last) < capacity:
        chunks[-1] = last + b"\x00" * (capacity - len(last))
    return chunks


def check_frame(raw: bytes) -> bytes:
    """The one structural check on a wire frame.  Its IV bytes stay opaque
    until the frame authenticates."""
    _check_frame_size(len(raw))
    if raw[IV_BYTES:IV_BLOCK_BYTES] != b"\x00\x00\x00\x00":
        raise InvalidFrame("IV block counter area must be zero")
    return raw


def _cipher(key: bytes) -> AESGCM:
    if len(key) != KEY_BYTES:
        raise InvalidPayload(f"key must be {KEY_BYTES} bytes")
    return AESGCM(key)


def encrypt_frame(key: bytes, iv: StreamIV, payload: bytes) -> bytes:
    return _seal(_cipher(key), iv.to_bytes(), payload)


def _seal(cipher: AESGCM, iv: bytes, payload: bytes) -> bytes:
    if not payload or len(payload) % BLOCK_BYTES:
        raise InvalidPayload("payload must be a non-empty multiple of 16 bytes")
    if len(payload) > MAX_FRAME_BYTES - FRAME_OVERHEAD:
        raise InvalidPayload(f"payload exceeds {MAX_FRAME_BYTES - FRAME_OVERHEAD} bytes")
    return iv + b"\x00\x00\x00\x00" + cipher.encrypt(iv, payload, None)


def decrypt_frame(key: bytes, raw: bytes) -> tuple[StreamIV, bytes]:
    payload = _open(_cipher(key), raw)
    # only authenticated IVs are interpreted
    return StreamIV.from_bytes(raw[:IV_BYTES]), payload


def _open(cipher: AESGCM, raw: bytes) -> bytes:
    check_frame(raw)
    try:
        return cipher.decrypt(raw[:IV_BYTES], raw[IV_BLOCK_BYTES:], None)
    except InvalidTag as exc:
        raise AuthenticationFailure("frame tag verification failed") from exc


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def encrypt_stream(
    key: bytes,
    template: StreamIV,
    plaintext: bytes,
    frame_total_size: int,
) -> list[bytes]:
    # one key schedule and one template check per stream
    payloads = partition(plaintext, frame_total_size)
    cipher = _cipher(key)
    field = template.field()
    return [_seal(cipher, frame_iv(field, index), payload) for index, payload in enumerate(payloads)]


def decrypt_stream(
    key: bytes,
    template: StreamIV,
    frames: Iterable[bytes],
    plaintext_length: int,
) -> bytes:
    """Decrypt a full stream, enforcing IV order and the declared length."""
    cipher = _cipher(key)
    field = template.field()
    pieces: list[bytes] = []
    for index, frame in enumerate(frames):
        if frame[:IV_BYTES] != frame_iv(field, index):
            raise IvSequenceViolation(index)
        pieces.append(_open(cipher, frame))
    if not pieces:
        raise InvalidLength("stream has no frames")
    total = sum(len(p) for p in pieces)
    capacity = len(pieces[-1])
    if plaintext_length > total or total - plaintext_length >= capacity:
        raise InvalidLength(
            f"declared length {plaintext_length} inconsistent with {len(pieces)} frames"
        )
    return b"".join(pieces)[:plaintext_length]
