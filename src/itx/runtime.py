"""End-to-end orchestration of a multi-party trusted job.

The session models four mutually distrustful roles on one box:

* the **host** (this runtime): schedules intervals, ferries ciphertext in
  and out of the ring buffer, and asks the control unit to act at each
  barrier — it is the adversary's seat and never touches a key or a
  plaintext.  It may delay or drop a call, but never name the barrier;
* the **control unit**: decodes its own copy of the manifest from the bytes
  the host hands it and attests them, receives wrapped keys, loads the keys
  of the barrier the device is parked at into the packet engines, and drives
  checkpoints;
* the **device**: runs tile programs, from the control unit's copy of the
  manifest, behind the packet-crypto boundary and names the barrier its
  tiles agreed on.  The host's own ``manifest`` places only its ring writes;
* the **parties** (``pki.Party``): actors holding their own keys and run
  nonces.  The host asks each to ``offer`` a keyshare and to ``release`` its
  keys, which it does only for a report it verified; the host keeps neither.

``TrustedJobSession.run`` executes a job from cold start to an encrypted
model; ``resume`` restarts a halted run from a saved checkpoint.  Every step
lands in the event log.  Every attempt — completed, halted or aborted — ends
with the TEE torn down: terminated, its keys destroyed, the tiles scrubbed
and the device back in normal mode, so the next attempt needs a device
reset.  Any failure — a detected violation or any other exception — ends the
attempt aborted, and so does a TEE that ended under it: there is no path
that both tampers and completes.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from itertools import islice

from . import pki
from .adversary import Adversary
from .attestation import Verdict
from .ccu import Ccu, INITIALIZED, LAUNCHED, TERMINATED
from .device import IpuDevice
from .encoding import digest_hex
from .errors import InvalidPhase, ItxError, SecurityException
from .eventlog import EventLog
from .frame_codec import StreamIV, StreamType, decrypt_stream, payload_capacity
from .manifest import CHECKPOINT, CODE, DIR_IN, JobManifest, OUTPUT, frame_count
from .pki import Party, derive_model_key

# Parties verify in ``PartyIdentity.release_keys``; the verifier stays importable
# here because bench/tests checks that the tracer patches it on this module.
verify_attestation = pki.verify_attestation

STATUS_COMPLETE = "complete"
STATUS_HALTED = "halted"
STATUS_ABORTED = "aborted"


@dataclass(frozen=True)
class CheckpointSnapshot:
    """Everything the host legitimately sees of a checkpoint: its ciphertext
    frames, and the (epoch, checkpoint id) the control unit named for it."""

    epoch: int
    checkpoint_id: int
    barrier: int
    frames_blob: bytes


@dataclass
class RunResult:
    status: str
    reason: str
    log: EventLog
    verdicts: dict[str, Verdict]
    output_frames: tuple[bytes, ...] = ()  # wire frames
    epoch: int = 0
    checkpoint_id: int = 0

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETE

    @property
    def aborted(self) -> bool:
        return self.status == STATUS_ABORTED


class TrustedJobSession:
    """One job's lifetime across any number of run/halt/resume attempts."""

    def __init__(
        self,
        *,
        device: IpuDevice,
        ccu: Ccu,
        manifest: JobManifest,
        parties: dict[str, Party],
        streams: dict[int, tuple[bytes, ...]],  # stream id -> wire frames
        ca_public: dict,
        device_chain: dict,
        tcb_certs: list,
        adversary: Adversary | None = None,
    ) -> None:
        self.device = device
        self.ccu = ccu
        self.manifest = manifest
        self.parties = parties
        self._streams = streams
        self.ca_public = ca_public
        self.device_chain = device_chain
        self.tcb_certs = tcb_certs
        self.adversary = adversary or Adversary()
        # Parties agreed on the manifest before anything ran; their
        # expectations pin that version, not whatever the host later holds.
        self._manifest_bytes = manifest.to_bytes()
        self.expected_manifest_measurement = digest_hex(self._manifest_bytes)
        self.ring = device.ring_buffer
        self.windows: dict[int, int] = {}
        self.snapshots: list[CheckpointSnapshot] = []
        self.last_report = None  # most recent attestation report (for archival)
        self.last_expected: dict = {}  # expectations the parties last verified against
        self._stage = ""  # the control-unit call in progress, named in abort reasons

    # -- the host's ring: every address comes from its own manifest ----------

    def frame_address(self, stream_id: int, frame_index: int) -> int | None:
        """Where a frame currently sits in the ring, if it is windowed in."""
        window = self.windows.get(stream_id)
        if window is None or not self.manifest.in_window(stream_id, frame_index, window):
            return None
        return self.manifest.frame_address(stream_id, frame_index, window)

    def _fill(self, offsets: dict[int, int], log: EventLog) -> None:
        """Window in each input stream among ``offsets``, from the frame at its offset."""
        for sid, offset in sorted(offsets.items()):
            if self.manifest.stream_table[sid].direction != DIR_IN:
                continue
            self.windows[sid], placed = offset, 0
            for index, frame in enumerate(islice(self._streams[sid], offset, None), offset):
                if not self.manifest.in_window(sid, index, offset):
                    break
                self.ring.write(self.manifest.frame_address(sid, index, offset), frame)
                placed += 1
            log.emit("fill", stream=sid, offset=offset, frames=placed)

    def _fill_snapshot(self, snapshot: CheckpointSnapshot, log: EventLog) -> None:
        sid = self.manifest.stream_of_kind(CHECKPOINT)
        self.ring.write(self.manifest.extent(sid)[0], snapshot.frames_blob)
        self.windows[sid] = 0
        log.emit("fill_checkpoint", epoch=snapshot.epoch, checkpoint_id=snapshot.checkpoint_id, barrier=snapshot.barrier)

    def _capture_snapshot(self, counters: tuple[int, int], barrier: int, log: EventLog) -> CheckpointSnapshot:
        lo, hi = self.manifest.extent(self.manifest.stream_of_kind(CHECKPOINT))
        snapshot = CheckpointSnapshot(*counters, barrier, self.ring.read(lo, hi - lo))
        self.snapshots.append(snapshot)
        for party in self.parties.values():
            party.checkpointed()
        log.emit("checkpoint_saved", epoch=snapshot.epoch, checkpoint_id=snapshot.checkpoint_id, barrier=barrier)
        return snapshot

    # -- party protocol ------------------------------------------------------

    def expected_values(self, epoch: int, checkpoint_id: int) -> dict:
        """What every party demands the signed report show for this run: the
        agreed manifest's measurement (which fixes its tile bootloader, owners
        and receivers), the parties' fingerprints and the seeded counters.  The
        register state is not the host's to expect: the verifier holds it."""
        fingerprints = tuple(self.parties[name].identity.fingerprint for name in sorted(self.parties))
        return {
            "manifest_measurement": self.expected_manifest_measurement,
            "party_fingerprints": fingerprints,
            "epoch": epoch,
            "checkpoint_id": checkpoint_id,
        }

    @property
    def run_nonces(self) -> dict[str, bytes]:
        """Each party's nonce for its latest accepted release, by fingerprint."""
        return {p.identity.fingerprint: p.run_nonce for p in self.parties.values() if p.run_nonce}

    def model_key_nonces(self) -> dict[str, bytes]:
        """The completed run's nonces, as the receiving parties would pool
        them to derive the model key."""
        return self.run_nonces

    # -- run orchestration ---------------------------------------------------

    def run(self, halt_after_checkpoint: int | None = None) -> RunResult:
        """Fresh start: epoch and checkpoint counters seeded at zero."""
        return self._execute(
            seed_epoch=0,
            seed_checkpoint=0,
            resume_from=None,
            halt_after_checkpoint=halt_after_checkpoint,
        )

    def resume(self) -> RunResult:
        """Restart from the latest checkpoint and run to the end.  The
        adversary may substitute what actually lands in the ring."""
        if not self.snapshots:
            raise InvalidPhase("no checkpoint to resume from")
        claim = self.snapshots[-1]
        return self._execute(
            seed_epoch=claim.epoch,
            seed_checkpoint=claim.checkpoint_id,
            resume_from=claim,
        )

    def _staged(self, stage: str, call, *args):
        """Make a control-unit call; if it raises, the abort reason starts
        with ``stage``."""
        self._stage = stage
        result = call(*args)
        self._stage = ""
        return result

    def _execute(self, **attempt) -> RunResult:
        """The one exit of every attempt, whatever it returns or raises.  A
        raise — a detected violation, a malformed input, a fault in the host's
        own code — aborts the attempt, with a reason naming the control-unit
        stage that failed, if any; so does a TEE that ended under it, with the
        control unit's reason.  A TEE still up is then terminated, so a
        completed or halted attempt tears it down too."""
        log = EventLog()
        verdicts: dict[str, Verdict] = {}
        self._stage = ""
        try:
            result = self._attempt(log, verdicts, **attempt)
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            at = f"{os.path.basename(where.filename)}:{where.lineno}"
            log.emit("exception", type=type(exc).__name__, at=at)
            detail = str(exc) if isinstance(exc, ItxError) else f"{type(exc).__name__}: {exc}"
            reason = f"{self._stage}: {detail}" if self._stage else detail
            result = RunResult(STATUS_ABORTED, reason, log, verdicts)
        tee = self.ccu.tee
        if tee.phase == TERMINATED and not result.aborted:
            result = RunResult(STATUS_ABORTED, tee.reason, log, verdicts)
        if tee.phase in (INITIALIZED, LAUNCHED):
            self.ccu.tee_terminate(result.reason)
        if result.aborted:
            log.emit("abort", reason=result.reason)
        return result

    def _attempt(
        self,
        log: EventLog,
        verdicts: dict[str, Verdict],
        *,
        seed_epoch: int,
        seed_checkpoint: int,
        resume_from: CheckpointSnapshot | None,
        halt_after_checkpoint: int | None = None,
    ) -> RunResult:
        mode = "resume" if resume_from is not None else "fresh"
        log.emit("run_start", mode=mode, epoch=seed_epoch, checkpoint_id=seed_checkpoint)

        self.windows = {}
        self.adversary.before_init(self)

        offers = {name: party.offer() for name, party in self.parties.items()}
        certs = {name: party.identity.certificate for name, party in self.parties.items()}
        shares = {name: share for name, (share, _) in offers.items()}
        signatures = {name: signature for name, (_, signature) in offers.items()}
        report = self._staged(
            "init", self.ccu.tee_init,
            self._manifest_bytes, certs, shares, signatures, seed_epoch, seed_checkpoint,
        )
        self.last_report = report
        log.emit("tee_init", epoch=seed_epoch, checkpoint_id=seed_checkpoint)

        # Each party judges the evidence itself; keys move only on an accept.
        expected = self.expected_values(seed_epoch, seed_checkpoint)
        self.last_expected = expected
        evidence = (self.device_chain, self.ca_public, self.tcb_certs)
        packages: dict[str, bytes] = {}
        for name in sorted(self.parties):
            verdict, wrapped = self.parties[name].release(
                report, evidence, expected, resume=resume_from is not None
            )
            verdicts[name] = verdict
            log.emit("verdict", party=name, accepted=verdict.accepted, reason=verdict.reason)
            if not verdict.accepted:
                raise ItxError(f"party {name} rejected: {verdict.reason}")
            packages[name] = wrapped
            log.emit("release_keys", party=name)

        self._fill({self.manifest.stream_of_kind(CODE): 0}, log)
        self.adversary.after_fill(self, "boot")
        self._staged("launch", self.ccu.tee_launch, packages)
        log.emit("tee_launch")

        parked = 0
        if resume_from is not None:
            filled = self.adversary.choose_checkpoint(self, resume_from)
            self._fill_snapshot(filled, log)
            self.adversary.after_fill(self, "restore")
            parked = self._staged("restore", self.ccu.tee_restore)
        self._fill(self.manifest.plan(parked)[1], log)
        self.adversary.after_fill(self, parked)
        if resume_from is not None:
            log.emit("resumed", barrier=parked)

        saved_this_run = 0
        while True:
            sync_id = self.device.run_interval()
            if sync_id is None:
                break
            log.emit("barrier", sync_id=sync_id)
            plan, offsets = self.manifest.plan(sync_id)
            if plan.checkpoint:
                counters = self._staged("checkpoint", self.ccu.tee_checkpoint)
                snapshot = self._capture_snapshot(counters, sync_id, log)
                saved_this_run += 1
                if halt_after_checkpoint is not None and saved_this_run >= halt_after_checkpoint:
                    log.emit("halt", checkpoint_id=snapshot.checkpoint_id)
                    return RunResult(
                        STATUS_HALTED,
                        "halted by host after checkpoint",
                        log,
                        verdicts,
                        epoch=snapshot.epoch,
                        checkpoint_id=snapshot.checkpoint_id,
                    )
            if self.adversary.skip_key_load(self, sync_id):
                log.emit("adversary", action="skip_key_load", sync_id=sync_id)
            else:
                self._staged("key load", self.ccu.tee_load_keys)
            self._fill(offsets, log)
            self.adversary.after_fill(self, sync_id)

        output = self._collect_output()
        log.emit("run_complete", output_frames=len(output))
        last = self.snapshots[-1] if self.snapshots else None
        return RunResult(
            STATUS_COMPLETE,
            "ok",
            log,
            verdicts,
            output_frames=output,
            epoch=last.epoch if last else seed_epoch,
            checkpoint_id=last.checkpoint_id if last else seed_checkpoint,
        )

    def _collect_output(self) -> tuple[bytes, ...]:
        sid, size = self.manifest.stream_of_kind(OUTPUT), self.manifest.frame_size
        count = frame_count(self.manifest.stream_table[sid].plaintext_length, payload_capacity(size))
        return tuple(self.ring.read(self.manifest.frame_address(sid, i), size) for i in range(count))


# ---------------------------------------------------------------------------
# model recovery (party side)
# ---------------------------------------------------------------------------


def decrypt_model(
    manifest: JobManifest, frames: tuple[bytes, ...], nonces: dict[str, bytes]
) -> bytes:
    """Receiving parties pool their run nonces, derive the model key, and
    decrypt the output stream."""
    sid = manifest.stream_of_kind(OUTPUT)
    key = derive_model_key(nonces)
    template = StreamIV(StreamType.OUTPUT, stream_id=sid)
    return decrypt_stream(key, template, frames, manifest.stream_table[sid].plaintext_length)


# ---------------------------------------------------------------------------
# cleartext reference execution
# ---------------------------------------------------------------------------


class _ClearDevice(IpuDevice):
    """The device of the clear reference run: each tile's binary is installed
    directly, loads are served from the plaintext inputs and stores are
    collected: no frame meets a packet engine, a control unit
    or the ring (sized 0: a fresh 1 MiB one would page-fault in every run).
    A load of a frame not in the input, and a load or store outside its
    stream's current window, is refused, as the packet engines refuse it."""

    ring_bytes = 0

    def __init__(self, manifest: JobManifest, binaries: dict[int, bytes], inputs: dict[int, bytes]) -> None:
        super().__init__(ipu_id=manifest.ipu_id)
        self.install_boot_params(manifest, 0, 0)
        for tile in self.tiles:
            self.install_binary(tile, binaries[tile.tile_id])
        self.inputs = inputs
        self.outputs: dict[int, bytearray] = {}

    def _windowed(self, tile_id: int, stream_id: int, frame_index: int, frame: bytes) -> bytes:
        if not (frame and self.manifest.in_window(stream_id, frame_index, self.windows.get(stream_id, 0))):
            raise SecurityException(f"tile {tile_id}: stream {stream_id} frame {frame_index} is not in its window")
        return frame

    def read_stream_frame(self, tile_id: int, stream_id: int, frame_index: int) -> bytes:
        frame = self.inputs.get(stream_id, b"")[frame_index * self.payload : (frame_index + 1) * self.payload]
        return self._windowed(tile_id, stream_id, frame_index, frame).ljust(self.payload, b"\x00")

    def write_stream_frame(self, tile_id: int, stream_id: int, frame_index: int, payload: bytes) -> None:
        self._windowed(tile_id, stream_id, frame_index, payload)
        sink, end = self.outputs.setdefault(stream_id, bytearray()), (frame_index + 1) * self.payload
        sink.extend(bytes(max(0, end - len(sink))))
        sink[end - self.payload : end] = payload


def run_clear_reference(
    manifest: JobManifest,
    binaries: dict[int, bytes],
    clear_inputs: dict[int, bytes],
) -> bytes:
    """Run the same job on an untrusted device with no crypto anywhere:
    plaintext in, plaintext out.  The trusted path must match this bitwise.
    This function and its ``_ClearDevice`` are the one place where clear mode
    differs from trusted mode: the device itself has no plaintext stream path.
    Before its device is built, the manifest's rule (``JobManifest.admit``)
    refuses every job the control unit would, but for the packet engine's checks."""
    device = _ClearDevice(manifest.admit(), binaries, clear_inputs)
    device.start_application()
    while device.run_interval() is not None:
        pass
    sid = manifest.stream_of_kind(OUTPUT)
    return bytes(device.outputs.get(sid, b""))[: manifest.stream_table[sid].plaintext_length]
