"""Toy compiler: turns a job description into tile binaries and a manifest.

Two job kinds are supported:

* ``sgd`` — a model owner supplies initial weights and a program; data
  parties stream per-step gradients; every tile owns a weight slice and
  applies two fixed-point SGD updates per step; the final model is gathered
  and stored under the model key.
* ``sum_streams`` — N single-frame input streams are reduced to one integer.
  An exchange block walks one keyed stream per interval, so with more
  streams than exchange blocks the compiler inserts key-rotation
  synchronization points (waves).

A planner per job kind decides the tile programs, their stream bindings, the
non-code streams and every barrier's plan and stream offsets; ``compile_job``
states each distinct plan once (``plans``) and gives every sync id its plan
index and offsets (``schedule``), so the SGD loop's plans appear once, not
per step.  Its code is stated once too: each SGD tile program
is one loop phase over one step's phases, ``steps`` passes with a sync-id
stride of 2, so pass s meets barriers 2 + 2s and 3 + 2s and a binary's size
does not depend on the step count.  The device expands the loop, and refuses
one that would expand past ``MAX_PHASES`` (65,535 phases, what the unrolled
format's ``<H`` phase count can state).  ``compile_job`` does the rest once
for both kinds: it lays out the code, adds the code stream, sizes the
checkpoint region and assembles the one manifest that parties verify and
the control unit enforces.
Stream ownership is stated only in the stream table: an entry's ``party``
is the owner that ``tee_launch`` takes the stream's key from, and
``CompiledJob.key_streams`` reads it there.  ``model_receivers`` names the
parties that receive the model, sorted and distinct, each the owner of a
stream (``JobManifest.validate`` refuses any other); the attestation report
does not copy it, since the manifest measurement covers it.

The planners target the one chip's geometry, fixed in silicon, stated by no
manifest and kept in ``sxp``: ``TILE_COUNT`` (16) tiles in exchange blocks of
``TILES_PER_EBC`` (4).  They state no key context, region or key load: the
interval after a barrier keys the streams of its offsets, and the manifest
derives each one's context and region from them.  So they honor the
hardware contract by what they schedule: at most 16 streams keyed at one
barrier, with disjoint extents, each walked by the tiles of one exchange
block that walks no other stream keyed there.  Streams whose consumers span
exchange blocks get internal-exchange moves at the next barrier instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from .device import (
    ComputePhase,
    LoadPhase,
    LoopPhase,
    MAX_PHASES,
    OP_SGD_STEP,
    OP_SUM,
    StorePhase,
    SyncPhase,
    TileProgram,
)
from .encoding import Record
from .errors import ScheduleInfeasible
from .manifest import (
    BindingSpec,
    CHECKPOINT,
    CODE,
    DATA,
    DIR_IN,
    DIR_OUT,
    JobManifest,
    OUTPUT,
    StreamTableEntry,
    SyncPlan,
    TileLayout,
    checkpoint_span,
    frame_count,
)
from .sxp import TILE_COUNT, TILES_PER_EBC

# ---------------------------------------------------------------------------
# fixed layout constants (tile memory)
# ---------------------------------------------------------------------------

W_OFF = 0x2000  # per-tile weight slice
G1_OFF = 0x2100  # gradient slice, first data party
G2_OFF = 0x2200  # gradient slice, second data party
ACC_OFF = 0x2000  # sum job: gathered inputs on tile 0
RES_OFF = 0x2800  # sum job: result cell
STAGE_OFF = 0x3000  # loader staging buffer
OUT_STAGE_OFF = 0x3400  # output gather buffer

# ring-buffer address map: where each region starts; the manifest's ring map
# works out every address inside one
CLEAR_REGION = (0x0, 0x1800)
CODE_BASE = 0x2000
DATA_BASE = 0x10000
REGION_STRIDE = 0x1000

FRAME_SIZE = 128
PAYLOAD = FRAME_SIZE - 32

# stream ids
SID_CODE = 1


@dataclass(frozen=True)
class JobDescription(Record):
    kind: str  # "sgd" | "sum_streams"
    model_party: str
    data_parties: tuple[str, ...] = ()
    model_receivers: tuple[str, ...] = ()
    steps: int = 3
    lr_num: int = 1
    lr_den: int = 16
    checkpoint_period: int = 1
    stream_count: int = 0  # sum_streams


@dataclass
class CompiledJob:
    manifest: JobManifest
    programs: dict[int, TileProgram]
    binaries: dict[int, bytes]

    @property
    def key_streams(self) -> dict[str, tuple[int, ...]]:
        """party -> the input streams it must key, read from the stream table."""
        streams: dict[str, tuple[int, ...]] = {}
        for sid, entry in sorted(self.manifest.stream_table.items()):
            if entry.direction == DIR_IN:
                streams[entry.party] = streams.get(entry.party, ()) + (sid,)
        return streams

    def binary_hash_chain(self) -> str:
        chain = b""
        for tile_id in sorted(self.binaries):
            chain = hashlib.sha256(
                chain + hashlib.sha256(self.binaries[tile_id]).digest()
            ).digest()
        return chain.hex()


@dataclass(frozen=True)
class _Plan:
    """What a planner decides for one job kind."""

    programs: dict[int, TileProgram]
    bindings: dict[int, tuple[BindingSpec, ...]]  # tile -> its stream walks
    streams: dict[int, StreamTableEntry]  # every stream but the code stream
    barriers: tuple[tuple[SyncPlan, dict[int, int]], ...]  # sync id -> (plan, stream offsets)
    ckpt_range: tuple[int, int] = (0, 0)  # (offset, length) of the checkpointed tile memory


def compile_job(job: JobDescription, bootloader_measurement: str = "", ipu_id: int = 0) -> CompiledJob:
    planner = {"sgd": _plan_sgd, "sum_streams": _plan_sum}.get(job.kind)
    if planner is None:
        raise ScheduleInfeasible(f"unknown job kind {job.kind!r}")
    plan = planner(job)
    if sum(p.checkpoint for p, _ in plan.barriers) > 0x100:  # the IV's checkpoint_id is 8 bits
        raise ScheduleInfeasible("more than 256 checkpoints need checkpoint ids past 0xFF")
    for tile_id, program in plan.programs.items():
        # What ``TileProgram.unpack`` expands: each loop adds its other passes.
        length = sum((ph.times - 1) * ph.length if isinstance(ph, LoopPhase) else 1 for ph in program.phases)
        if length > MAX_PHASES:
            raise ScheduleInfeasible(f"tile {tile_id}'s program expands past {MAX_PHASES} phases")

    # Each tile's binary fills whole frames, laid out back to back.
    binaries = {t: p.pack() for t, p in plan.programs.items()}
    layouts, code_bytes = [], 0
    for tile_id, binary in sorted(binaries.items()):
        frames = frame_count(len(binary), PAYLOAD)
        bindings = plan.bindings.get(tile_id, ())
        layouts.append(TileLayout(tile_id, code_bytes, frames, len(binary), bindings, *plan.ckpt_range))
        code_bytes += frames * FRAME_SIZE
    code_plain = sum(len(b) for b in binaries.values())
    code = StreamTableEntry(job.model_party, DIR_IN, CODE, code_plain, CODE_BASE, code_bytes // FRAME_SIZE)
    stream_table = {SID_CODE: code, **plan.streams}

    ckpt = next((sid for sid, e in plan.streams.items() if e.kind == CHECKPOINT), None)
    if ckpt is not None:  # its region holds every tile's checkpoint slot
        slots = len(layouts) * checkpoint_span(layouts, PAYLOAD)
        stream_table[ckpt] = dataclasses.replace(stream_table[ckpt], region_frames=slots)
    plans: dict[SyncPlan, int] = {}  # each distinct plan -> its index, in the order the barriers first use it
    schedule = tuple((plans.setdefault(p, len(plans)), offsets) for p, offsets in plan.barriers)

    manifest = JobManifest(
        ipu_id=ipu_id,
        binary_hash="",
        bootloader_measurement=bootloader_measurement,
        stream_table=stream_table,
        tile_layouts=tuple(layouts),
        plans=tuple(plans),
        schedule=schedule,
        model_receivers=tuple(sorted(job.model_receivers or (job.model_party,))),
        frame_size=FRAME_SIZE,
        clear_region=CLEAR_REGION,
    )
    compiled = CompiledJob(manifest=manifest, programs=plan.programs, binaries=binaries)
    compiled.manifest = dataclasses.replace(manifest, binary_hash=compiled.binary_hash_chain()).validate()
    return compiled


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _slot_base(slot: int) -> int:
    """Where data slot ``slot``'s ring region starts."""
    return DATA_BASE + slot * REGION_STRIDE


# ---------------------------------------------------------------------------
# SGD job
# ---------------------------------------------------------------------------


def _plan_sgd(job: JobDescription) -> _Plan:
    if len(job.data_parties) != 2:
        raise ScheduleInfeasible("the SGD planner expects exactly two data parties")
    steps = job.steps
    if steps < 1:
        raise ScheduleInfeasible("at least one step")
    if job.checkpoint_period < 1:
        raise ScheduleInfeasible(f"checkpoint_period {job.checkpoint_period} is not a step count")
    if not (1 <= job.lr_den < 2**31 and -(2**31) <= job.lr_num < 2**31):
        raise ScheduleInfeasible(f"learning rate {job.lr_num}/{job.lr_den} needs int32 terms and lr_den >= 1")

    slice_ints = 12
    slice_bytes = 4 * slice_ints
    model_bytes = TILE_COUNT * slice_bytes
    frames_per_pass = frame_count(model_bytes, PAYLOAD)  # a pass moves the whole model
    frames_per_loader = frames_per_pass // TILES_PER_EBC  # each loader's run

    sid_w0, sid_g1, sid_g2, sid_ckpt, sid_out = 2, 3, 4, 5, 6

    # -- tile programs and bindings ------------------------------------------
    # Block 0 loads the weights and stores the model; blocks 1 and 2 load
    # one data party's gradients each; loader tile j walks run j of a pass.
    def walk(sid: int, j: int, buf_off: int = STAGE_OFF) -> BindingSpec:
        per = frames_per_loader
        return BindingSpec(sid, buf_off, per * j, stride=frames_per_pass, block_len=per)

    sgd_pair = [
        ComputePhase(OP_SGD_STEP, (job.lr_num, job.lr_den, W_OFF, G1_OFF, slice_ints)),
        ComputePhase(OP_SGD_STEP, (job.lr_num, job.lr_den, W_OFF, G2_OFF, slice_ints)),
    ]
    end_sync = 2 * steps + 2
    programs: dict[int, TileProgram] = {}
    bindings: dict[int, tuple[BindingSpec, ...]] = {}
    for t in range(TILE_COUNT):
        ebc, j = divmod(t, 4)
        grad = {1: sid_g1, 2: sid_g2}.get(ebc)
        phases: list = []
        if ebc == 0:
            phases.append(LoadPhase(sid_w0, frames_per_loader))
            bindings[t] = (walk(sid_w0, j), walk(sid_out, j, OUT_STAGE_OFF))
        elif grad is not None:
            bindings[t] = (walk(grad, j),)
        phases.append(SyncPhase(1))
        # One loop states every step: pass s meets barriers 2 + 2s and 3 + 2s.
        load = [LoadPhase(grad, frames_per_loader)] if grad is not None else []
        body = [*load, SyncPhase(2), *sgd_pair, SyncPhase(3)]
        phases += [LoopPhase(steps, len(body), 2), *body]
        if ebc == 0:
            phases.append(StorePhase(sid_out, frames_per_loader))
        phases.append(SyncPhase(end_sync))
        programs[t] = TileProgram(tuple(phases))

    # -- streams and regions -------------------------------------------------
    # Each region holds one pass; compile_job sizes the checkpoint region.
    w0, g1, g2, ckpt, out = (_slot_base(i) for i in range(5))
    streams = {
        sid_w0: StreamTableEntry(job.model_party, DIR_IN, DATA, model_bytes, w0, frames_per_pass),
        sid_g1: StreamTableEntry(job.data_parties[0], DIR_IN, DATA, steps * model_bytes, g1, frames_per_pass),
        sid_g2: StreamTableEntry(job.data_parties[1], DIR_IN, DATA, steps * model_bytes, g2, frames_per_pass),
        sid_ckpt: StreamTableEntry("", DIR_OUT, CHECKPOINT, 0, ckpt, 0),
        sid_out: StreamTableEntry("", DIR_OUT, OUTPUT, model_bytes, out, frames_per_pass),
    }

    # -- sync plans ----------------------------------------------------------
    w_moves = tuple(
        (t // 4, STAGE_OFF + slice_bytes * (t % 4), t, W_OFF, slice_bytes) for t in range(TILE_COUNT)
    )
    g_moves = tuple(
        move
        for t in range(TILE_COUNT)
        for move in (
            (4 + t // 4, STAGE_OFF + slice_bytes * (t % 4), t, G1_OFF, slice_bytes),
            (8 + t // 4, STAGE_OFF + slice_bytes * (t % 4), t, G2_OFF, slice_bytes),
        )
    )
    gather_moves = tuple(
        (t, W_OFF, t // 4, OUT_STAGE_OFF + slice_bytes * (t % 4), slice_bytes) for t in range(TILE_COUNT)
    )

    # Barrier 0 keys the weights, 1 + 2s step s's gradients, 2 + 2s nothing
    # (the interval after the exchange only computes), and the last two the
    # output, then nothing.
    exchange = SyncPlan(moves=g_moves)
    barriers = [(SyncPlan(), {sid_w0: 0})]
    for s in range(steps):
        load = SyncPlan(checkpoint=s % job.checkpoint_period == 0) if s else SyncPlan(moves=w_moves)
        barriers += [(load, {sid_g1: frames_per_pass * s, sid_g2: frames_per_pass * s}), (exchange, {})]
    out = SyncPlan(checkpoint=steps % job.checkpoint_period == 0, moves=gather_moves)
    barriers += [(out, {sid_out: 0}), (SyncPlan(), {})]
    return _Plan(programs, bindings, streams, tuple(barriers), ckpt_range=(W_OFF, slice_bytes))


# ---------------------------------------------------------------------------
# sum_streams job (key rotation)
# ---------------------------------------------------------------------------


def _plan_sum(job: JobDescription) -> _Plan:
    n = job.stream_count
    if n < 1:
        raise ScheduleInfeasible("at least one input stream")
    if 2 + n > 0xFFFF:  # the output takes id 2 + n, and programs store ids as ``<H``
        raise ScheduleInfeasible(f"{n} input streams need stream ids past 0xFFFF")
    n_ebcs = TILE_COUNT // TILES_PER_EBC

    ints = PAYLOAD // 4
    waves = -(-n // n_ebcs)
    sid_in = lambda i: 2 + i  # noqa: E731
    sid_out = 2 + n

    loaders = [4 * e for e in range(n_ebcs)]

    # -- programs and bindings -----------------------------------------------
    programs: dict[int, TileProgram] = {}
    bindings: dict[int, tuple[BindingSpec, ...]] = {}
    for t in range(TILE_COUNT):
        phases: list = []
        specs = []
        for w in range(waves):
            if t in loaders:
                i = 4 * w + loaders.index(t)
                if i < n:
                    phases.append(LoadPhase(sid_in(i), 1))
                    specs.append(BindingSpec(sid_in(i), STAGE_OFF, 0))
            phases.append(SyncPhase(w + 1))
        if t == 0:
            phases.append(ComputePhase(OP_SUM, (ACC_OFF, n * ints, RES_OFF)))
        phases.append(SyncPhase(waves + 1))
        if t == 0:
            phases.append(StorePhase(sid_out, 1))
            specs.append(BindingSpec(sid_out, RES_OFF, 0))
        phases.append(SyncPhase(waves + 2))
        programs[t] = TileProgram(tuple(phases))
        bindings[t] = tuple(specs)

    # -- streams and regions -------------------------------------------------
    # Each exchange block reuses one ring region across waves; the host
    # refills it with the next stream's frame at the wave barrier.
    streams = {sid_out: StreamTableEntry("", DIR_OUT, OUTPUT, 4, _slot_base(n_ebcs), 1)}
    parties = job.data_parties or (job.model_party,)
    for i in range(n):
        streams[sid_in(i)] = StreamTableEntry(
            parties[i % len(parties)], DIR_IN, DATA, 4 * ints, _slot_base(i % n_ebcs), 1
        )

    # -- plans ---------------------------------------------------------------
    # Wave w's barrier keys its streams, one per exchange block, and brings
    # the previous wave into tile 0; the output barrier keys the output.
    def gather(w: int) -> tuple:
        """Moves that bring wave ``w``'s staged frames into tile 0."""
        return tuple(
            (4 * e, STAGE_OFF, 0, ACC_OFF + (4 * w + e) * 4 * ints, 4 * ints)
            for e in range(n_ebcs)
            if 4 * w + e < n
        )

    barriers = [
        (SyncPlan(moves=gather(w - 1) if w else ()), {sid_in(i): 0 for i in range(4 * w, min(4 * w + 4, n))})
        for w in range(waves)
    ]
    barriers += [(SyncPlan(moves=gather(waves - 1)), {}), (SyncPlan(), {sid_out: 0}), (SyncPlan(), {})]
    return _Plan(programs, bindings, streams, tuple(barriers))
