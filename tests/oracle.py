"""What a job should produce, worked out from its description alone.

Deliberately shares no code with the package under test: it reads the
``JobDescription``'s fields and the input plaintexts, never the manifest, the
tile binaries or the device, so agreement with a run checks the compiler's
plan and the tile interpreter as well as the crypto path.

Inputs are plaintexts keyed by stream id; the oracle only relies on their
order.  An SGD job's lowest id is the model and the next ids are the data
parties' gradient streams, in party order, each holding one model-sized
gradient per step.  A ``sum_streams`` job's inputs are all summed.
"""

from __future__ import annotations

import struct


def wrap32(v: int) -> int:
    """``v`` reduced to a signed 32-bit integer, two's complement."""
    return (v + (1 << 31)) % (1 << 32) - (1 << 31)


def _ints(blob: bytes) -> list[int]:
    return list(struct.unpack(f"<{len(blob) // 4}i", blob))


def expected_model(job, plaintexts: dict[int, bytes]) -> bytes:
    """The model bytes a correct run of ``job`` releases."""
    streams = [_ints(plaintexts[sid]) for sid in sorted(plaintexts)]
    if job.kind == "sum_streams":
        return struct.pack("<i", wrap32(sum(sum(ints) for ints in streams)))
    if job.kind != "sgd":
        raise ValueError(f"no oracle for job kind {job.kind!r}")
    weights, gradients = streams[0], streams[1:]
    n = len(weights)
    for step in range(job.steps):
        for grads in gradients:  # each party's gradient is applied in turn
            g = grads[step * n : (step + 1) * n]
            weights = [wrap32(w - job.lr_num * gi // job.lr_den) for w, gi in zip(weights, g)]
    return struct.pack(f"<{n}i", *weights)
