"""Spans and counters recorded from outside the program.

The traced run wraps public functions of the ``itx`` modules for the length
of one job, records a span around every call, and restores the originals
afterwards.  A function is patched wherever callers look it up: a class
attribute for methods, and every ``itx`` module that imported a module-level
function by name (``verify_attestation`` is called through ``itx.runtime``,
``compile_job`` through ``itx.sandbox``).

Spans stay in memory as (id, parent, job, name, start, end) and are written
out once the run ends.  They carry names, host times and ids only.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple


def _payload(args, kwargs) -> int:
    return len(args[1].payload)


def _plaintext(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["plaintext"])


def _read_length(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs["length"]


def _blob(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["blob"])


# (metric prefix, "module:Class.method" or "module:function", bytes of a call)
SPANNED = (
    ("sxp.process_ingress", "itx.sxp:SxpEngine.process_ingress", _payload),
    ("sxp.process_egress", "itx.sxp:SxpEngine.process_egress", _payload),
    ("sxp.load_key", "itx.sxp:SxpEngine.load_key", None),
    ("device.run_interval", "itx.device:IpuDevice.run_interval", None),
    ("device.read_stream_frame", "itx.device:IpuDevice.read_stream_frame", None),
    ("device.write_stream_frame", "itx.device:IpuDevice.write_stream_frame", None),
    ("device.scrub", "itx.device:IpuDevice.scrub", None),
    ("device.run_bootloader", "itx.device:IpuDevice.run_bootloader", None),
    ("device.checkpoint_save", "itx.device:IpuDevice.checkpoint_save", None),
    ("device.checkpoint_restore", "itx.device:IpuDevice.checkpoint_restore", None),
    ("ccu.tee_init", "itx.ccu:Ccu.tee_init", None),
    ("ccu.tee_launch", "itx.ccu:Ccu.tee_launch", None),
    ("ccu.tee_load_keys", "itx.ccu:Ccu.tee_load_keys", None),
    ("ccu.tee_checkpoint", "itx.ccu:Ccu.tee_checkpoint", None),
    ("ccu.tee_restore", "itx.ccu:Ccu.tee_restore", None),
    ("pki.verify_attestation", "itx.pki:verify_attestation", None),
    ("pki.release_keys", "itx.pki:PartyIdentity.release_keys", None),
    ("manifest.measurement", "itx.manifest:JobManifest.measurement", None),
    ("manifest.validate", "itx.manifest:JobManifest.validate", None),
    ("compiler.compile_job", "itx.compiler:compile_job", None),
    ("packaging.package_inputs", "itx.packaging:package_inputs", None),
    ("frame_codec.encrypt_stream", "itx.frame_codec:encrypt_stream", _plaintext),
    ("frame_codec.decrypt_stream", "itx.frame_codec:decrypt_stream", None),
    ("runtime.run", "itx.runtime:TrustedJobSession.run", None),
    ("runtime.run", "itx.runtime:TrustedJobSession.resume", None),
    ("sandbox.make_deployment", "itx.sandbox:make_deployment", None),
)

# Byte counters without spans: ring traffic is too fine-grained to time.
COUNTED = (
    ("device.ring.read_bytes", "itx.device:RingBuffer.read", _read_length),
    ("device.ring.write_bytes", "itx.device:RingBuffer.write", _blob),
)


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    job_id: int
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` is in start order, as spans are opened, so each parent sees
    its children in start order and overlapping children are counted once.
    """
    position = {span.span_id: i for i, span in enumerate(spans)}
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)
    for span in spans:
        p = position.get(span.parent_id)
        if p is None:
            continue
        parent = spans[p]
        lo = max(span.start, parent.start, reach[p])
        hi = min(span.end, parent.end)
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def _resolve(target: str):
    """Return (owner, attribute) pairs naming one function at ``target``."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return [(getattr(module, cls_name), attr)]
    original = getattr(module, qualname)
    owners = [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "itx" or name.startswith("itx.")) and getattr(mod, qualname, None) is original
    ]
    return [(owner, qualname) for owner in owners]


class JobTrace(NamedTuple):
    """One job's per-layer figures."""

    calls: Counter  # metric prefix -> calls
    self_s: dict[str, float]  # metric prefix -> summed self time
    counts: Counter  # counter name -> bytes or calls


class Tracer:
    """Records spans and byte counters for the jobs it is entered for."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.jobs: list[JobTrace] = []
        self._open: list[list] = []  # stack of [span_id, parent, job, name, start]
        self._counts: Counter = Counter()
        self._job_id = -1

    def _enter(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.spans) + len(self._open), parent, self._job_id, name, 0.0]
        self._open.append(frame)
        frame[4] = self.clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        self._open.pop()
        self.spans.append(Span(*frame, end))

    def _spanned(self, name: str, fn, nbytes):
        def wrapper(*args, **kwargs):
            if nbytes is not None:
                self._counts[name + ".bytes"] += nbytes(args, kwargs)
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _counted(self, name: str, fn, nbytes):
        def wrapper(*args, **kwargs):
            self._counts[name] += nbytes(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def job(self, job_id: int):
        """Trace one job: patch every target, and restore them on exit."""
        patched = []
        try:
            for specs, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for name, target, nbytes in specs:
                    for owner, attr in _resolve(target):
                        original = owner.__dict__[attr]
                        patched.append((owner, attr, original))
                        setattr(owner, attr, make(name, original, nbytes))
            self._job_id = job_id
            self._counts = Counter()
            first = len(self.spans)
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._job_id = -1
        if self._open:
            raise RuntimeError("spans left open at the end of a job")
        self.jobs.append(self._summarise(self.spans[first:], self._counts))

    @staticmethod
    def _summarise(spans: list[Span], counts: Counter) -> JobTrace:
        spans = sorted(spans, key=lambda s: s.span_id)
        calls: Counter = Counter()
        own: dict[str, float] = {}
        for span, self_s in zip(spans, self_times(spans)):
            calls[span.name] += 1
            own[span.name] = own.get(span.name, 0.0) + self_s
        return JobTrace(calls, own, Counter(counts))

    def write(self, path) -> None:
        """Write every recorded span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            for span in sorted(self.spans, key=lambda s: s.span_id):
                out.writerow(
                    (span.span_id, span.parent_id, span.job_id, span.name,
                     repr(span.start), repr(span.end))
                )
