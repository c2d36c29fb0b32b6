"""A fixed piece of host work that gauges how fast the machine runs now.

On a shared machine the same job can take 1.5 times as long from one minute
to the next. CPU time tracks wall time, so the slowdown comes from the
machine's speed, not from the scheduler. Every time the benchmark reports
is scaled by ``REFERENCE_S`` over the mean of two ``probe()`` times, one
just before the job and one just after it. The probe mixes the kinds of
work a job does: Python integer arithmetic, small objects and byte slicing,
and library AES-GCM and SHA-256. It calls nothing in ``itx``, so a change
to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, replace

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# The probe's median time on the machine the bounds were set on (2 vCPU
# Xeon, Python 3.11, cryptography 48), so scaled times read as host seconds
# there at that speed.
REFERENCE_S = 0.012

_KEY = bytes(range(32))
_NONCE = bytes(12)
_DATA = bytes(range(256)) * 4
_MASK = (1 << 128) - 1


@dataclass(frozen=True)
class _Packet:
    src: int
    address: int
    payload: bytes
    last: bool = False


def _integers() -> int:
    x, acc = 0x1234567, 0
    for _ in range(20000):
        x = ((x << 1) ^ (0x87 if x >> 127 else 0)) & _MASK
        acc ^= x
    return acc


def _objects() -> int:
    memory = bytearray(4096)
    kept = {}
    for i in range(1100):
        offset = (i & 63) * 64
        packet = replace(_Packet(i & 15, i * 64, bytes(memory[offset : offset + 64])), last=True)
        struct.pack_into("<II", memory, (i & 255) * 16, packet.address, packet.src)
        kept[i & 127] = packet
    return len(kept)


def _library() -> int:
    cipher = AESGCM(_KEY)
    total = 0
    for _ in range(1800):
        total += len(hashlib.sha256(cipher.encrypt(_NONCE, _DATA, None)).digest())
    return total


def probe() -> float:
    """Seconds the fixed work takes right now."""
    start = time.perf_counter()
    _integers()
    _objects()
    _library()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns host seconds measured between two probes into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
