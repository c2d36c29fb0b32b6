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

The IV layout (big-endian bit widths 8/16/8/16/8/8/32) encodes stream type,
stream id, device and tile coordinates, epoch/checkpoint counters, and the
frame index.  Fields that do not apply to a stream type must be zero, which
keeps IVs unique across every stream a key can serve.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import IntEnum
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

_FIELD_LIMITS = {
    "stream_id": 0xFFFF,
    "ipu_id": 0xFF,
    "tile_id": 0xFFFF,
    "epoch": 0xFF,
    "checkpoint_id": 0xFF,
    "frame_index": 0xFFFFFFFF,
}


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

    def validate(self) -> "StreamIV":
        try:
            stype = StreamType(self.stream_type)
        except ValueError:
            raise InvalidIvField(f"unknown stream type {self.stream_type!r}")
        for name, limit in _FIELD_LIMITS.items():
            value = getattr(self, name)
            if not 0 <= value <= limit:
                raise InvalidIvField(f"{name}={value} out of range")
        for name in _ZERO_FIELDS[stype]:
            if getattr(self, name) != 0:
                raise InvalidIvField(f"{name} must be zero for {stype.name} streams")
        return self

    def to_bytes(self) -> bytes:
        self.validate()
        return _IV_STRUCT.pack(
            int(self.stream_type),
            self.stream_id,
            self.ipu_id,
            self.tile_id,
            self.epoch,
            self.checkpoint_id,
            self.frame_index,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StreamIV":
        if len(raw) != IV_BYTES:
            raise InvalidIvField(f"IV must be {IV_BYTES} bytes, got {len(raw)}")
        stype, sid, ipu, tile, epoch, ckpt, index = _IV_STRUCT.unpack(raw)
        return cls(StreamType(stype), sid, ipu, tile, epoch, ckpt, index).validate()

    def iv_block(self) -> bytes:
        """16-byte leading frame block: IV followed by the zero counter area."""
        return self.to_bytes() + b"\x00\x00\x00\x00"


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
    return _seal(_cipher(key), iv, payload)


def _seal(cipher: AESGCM, iv: StreamIV, payload: bytes) -> bytes:
    if not payload or len(payload) % BLOCK_BYTES:
        raise InvalidPayload("payload must be a non-empty multiple of 16 bytes")
    if len(payload) > MAX_FRAME_BYTES - FRAME_OVERHEAD:
        raise InvalidPayload(f"payload exceeds {MAX_FRAME_BYTES - FRAME_OVERHEAD} bytes")
    block = iv.iv_block()
    return block + cipher.encrypt(block[:IV_BYTES], payload, None)


def decrypt_frame(key: bytes, raw: bytes) -> tuple[StreamIV, bytes]:
    return _open(AESGCM(key), raw)


def _open(cipher: AESGCM, raw: bytes) -> tuple[StreamIV, bytes]:
    check_frame(raw)
    iv_raw = raw[:IV_BYTES]
    try:
        payload = cipher.decrypt(iv_raw, raw[IV_BLOCK_BYTES:], None)
    except InvalidTag as exc:
        raise AuthenticationFailure("frame tag verification failed") from exc
    # only authenticated IVs are interpreted
    return StreamIV.from_bytes(iv_raw), payload


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def encrypt_stream(
    key: bytes,
    template: StreamIV,
    plaintext: bytes,
    frame_total_size: int,
) -> list[bytes]:
    # one key schedule per stream; _seal validates each IV as it packs it
    payloads = partition(plaintext, frame_total_size)
    cipher = _cipher(key)
    return [
        _seal(cipher, replace(template, frame_index=index), payload)
        for index, payload in enumerate(payloads)
    ]


def decrypt_stream(
    key: bytes,
    template: StreamIV,
    frames: Iterable[bytes],
    plaintext_length: int,
) -> bytes:
    """Decrypt a full stream, enforcing IV order and the declared length."""
    cipher = AESGCM(key)
    pieces: list[bytes] = []
    for index, frame in enumerate(frames):
        if frame[:IV_BYTES] != replace(template, frame_index=index).to_bytes():
            raise IvSequenceViolation(index)
        _, payload = _open(cipher, frame)
        pieces.append(payload)
    if not pieces:
        raise InvalidLength("stream has no frames")
    total = sum(len(p) for p in pieces)
    capacity = len(pieces[-1])
    if plaintext_length > total or total - plaintext_length >= capacity:
        raise InvalidLength(
            f"declared length {plaintext_length} inconsistent with {len(pieces)} frames"
        )
    return b"".join(pieces)[:plaintext_length]
