"""Toy compiler: turns a job description into tile binaries and a manifest.

Two job kinds are supported:

* ``sgd`` — a model owner supplies initial weights and a program; data
  parties stream per-step gradients; every tile owns a weight slice and
  applies two fixed-point SGD updates per step; the final model is gathered
  and stored under the model key.
* ``sum_streams`` — N single-frame input streams are reduced to one integer.
  With more streams than concurrently available key contexts the compiler
  inserts key-rotation synchronization points (waves); with rotation
  disabled such jobs are rejected as infeasible.

The planner honors the hardware contract: at most 16 key contexts, 17
disjoint regions with region 0 cleartext, one key region per stream per
interval, and — outside strictly serialized phases — one exchange-block
context per key context.  Streams whose consumers span exchange blocks get
internal-exchange moves at the next barrier instead of shared contexts.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .device import (
    ComputePhase,
    DeviceConfig,
    LoadPhase,
    OP_SGD_STEP,
    OP_SUM,
    StorePhase,
    SyncPhase,
    TileProgram,
    checkpoint_frames,
)
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
)

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

# ring-buffer address map
CLEAR_REGION = (0x0, 0x1800)
METADATA_BASE = 0x100
CODE_BASE = 0x2000
DATA_BASE = 0x10000
REGION_STRIDE = 0x1000

FRAME_SIZE = 128
PAYLOAD = FRAME_SIZE - 32

# stream ids
SID_CODE = 1

# key-context assignment
CTX_CODE = 0
CTX_OUT = 13
CTX_RESTORE = 14
CTX_SAVE = 15

# out-of-band plan ids
BOOT_SYNC = -1
CKPT_SYNC = -2
RESTORE_SYNC = -3


@dataclass(frozen=True)
class JobDescription:
    kind: str  # "sgd" | "sum_streams"
    model_party: str
    data_parties: tuple[str, ...] = ()
    model_receivers: tuple[str, ...] = ()
    steps: int = 3
    lr_num: int = 1
    lr_den: int = 16
    checkpoint_period: int = 1
    stream_count: int = 0  # sum_streams
    rotate_contexts: bool = True  # sum_streams


@dataclass
class CompiledJob:
    manifest: JobManifest
    programs: dict[int, TileProgram]
    binaries: dict[int, bytes]
    key_streams: dict[str, tuple[int, ...]] = field(default_factory=dict)  # party -> sids

    def binary_hash_chain(self) -> str:
        chain = b""
        for tile_id in sorted(self.binaries):
            chain = hashlib.sha256(
                chain + hashlib.sha256(self.binaries[tile_id]).digest()
            ).digest()
        return chain.hex()


def compile_job(
    job: JobDescription,
    config: Optional[DeviceConfig] = None,
    bootloader_measurement: str = "",
    ipu_id: int = 0,
) -> CompiledJob:
    config = config or DeviceConfig()
    if job.kind == "sgd":
        return _compile_sgd(job, config, bootloader_measurement, ipu_id)
    if job.kind == "sum_streams":
        return _compile_sum(job, config, bootloader_measurement, ipu_id)
    raise ScheduleInfeasible(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _code_layouts(
    programs: dict[int, TileProgram],
) -> tuple[dict[int, bytes], list[tuple[int, int, int, int]], int]:
    """Pack programs and lay their frames out consecutively in the code
    region; returns (binaries, [(tile, offset, frames, length)], region_bytes)."""
    binaries = {t: p.pack() for t, p in programs.items()}
    layout = []
    region_bytes = 0
    for tile_id in sorted(binaries):
        binary = binaries[tile_id]
        frames = max(1, -(-len(binary) // PAYLOAD))
        layout.append((tile_id, region_bytes, frames, len(binary)))
        region_bytes += frames * FRAME_SIZE
    return binaries, layout, region_bytes


def _boot_plan(code_region_end: int) -> SyncPlan:
    return SyncPlan(
        sync_id=BOOT_SYNC,
        regions={0: CLEAR_REGION, 1: (CODE_BASE, code_region_end)},
        stream_regions={SID_CODE: 1},
        stream_offsets={SID_CODE: 0},
        fills=(SID_CODE,),
        ctxmap={0: CTX_CODE, 1: CTX_CODE, 2: CTX_CODE, 3: CTX_CODE},
        kphysmap={CTX_CODE: 1},
        ingress_loads=((CTX_CODE, SID_CODE),),
        frame_serial=True,
    )


def _ckpt_plans(sid_ckpt: int, ckpt_region: tuple[int, int]) -> tuple[SyncPlan, SyncPlan]:
    common = dict(
        regions={0: CLEAR_REGION, 6: ckpt_region},
        stream_regions={sid_ckpt: 6},
        stream_offsets={sid_ckpt: 0},
        frame_serial=True,
    )
    save = SyncPlan(
        sync_id=CKPT_SYNC,
        ctxmap={e: CTX_SAVE for e in range(4)},
        kphysmap={CTX_SAVE: 6},
        egress_loads=((CTX_SAVE, sid_ckpt),),
        **common,
    )
    restore = SyncPlan(
        sync_id=RESTORE_SYNC,
        ctxmap={e: CTX_RESTORE for e in range(4)},
        kphysmap={CTX_RESTORE: 6},
        ingress_loads=((CTX_RESTORE, sid_ckpt),),
        **common,
    )
    return save, restore


# ---------------------------------------------------------------------------
# SGD job
# ---------------------------------------------------------------------------


def _compile_sgd(
    job: JobDescription, config: DeviceConfig, bootloader_measurement: str, ipu_id: int
) -> CompiledJob:
    if config.tile_count != 16 or config.tiles_per_exchange_context != 4:
        raise ScheduleInfeasible("the SGD planner targets 16 tiles in 4 exchange blocks")
    if len(job.data_parties) != 2:
        raise ScheduleInfeasible("the SGD planner expects exactly two data parties")
    steps = job.steps
    if steps < 1:
        raise ScheduleInfeasible("at least one step")

    n_tiles = config.tile_count
    slice_ints = 12
    slice_bytes = 4 * slice_ints  # 48
    model_bytes = n_tiles * slice_bytes  # 768
    frames_per_pass = model_bytes // PAYLOAD  # 8

    sid_w0, sid_g1, sid_g2, sid_ckpt, sid_out = 2, 3, 4, 5, 6

    # -- tile programs -------------------------------------------------------
    def sgd_pair() -> list[ComputePhase]:
        return [
            ComputePhase(OP_SGD_STEP, (job.lr_num, job.lr_den, W_OFF, G1_OFF, slice_ints)),
            ComputePhase(OP_SGD_STEP, (job.lr_num, job.lr_den, W_OFF, G2_OFF, slice_ints)),
        ]

    end_sync = 2 * steps + 2
    programs: dict[int, TileProgram] = {}
    for t in range(n_tiles):
        ebc = t // 4
        phases: list = []
        if ebc == 0:
            phases.append(LoadPhase(sid_w0, 2))
        phases.append(SyncPhase(1))
        for s in range(steps):
            if ebc == 1:
                phases.append(LoadPhase(sid_g1, 2))
            elif ebc == 2:
                phases.append(LoadPhase(sid_g2, 2))
            phases.append(SyncPhase(2 + 2 * s))
            phases.extend(sgd_pair())
            phases.append(SyncPhase(3 + 2 * s))
        if ebc == 0:
            phases.append(StorePhase(sid_out, 2))
        phases.append(SyncPhase(end_sync))
        programs[t] = TileProgram(tuple(phases))

    binaries, code_layout, code_region_bytes = _code_layouts(programs)
    code_plain = sum(length for _, _, _, length in code_layout)

    # -- layouts -------------------------------------------------------------
    layouts = []
    for tile_id, code_off, code_frames, length in code_layout:
        ebc = tile_id // 4
        j = tile_id % 4
        bindings = []
        if ebc == 0:
            bindings.append(BindingSpec(sid_w0, STAGE_OFF, start_index=2 * j, stride=8, block_len=2, total_frames=2))
            bindings.append(BindingSpec(sid_out, OUT_STAGE_OFF, start_index=2 * j, stride=8, block_len=2, total_frames=2))
        elif ebc == 1:
            bindings.append(BindingSpec(sid_g1, STAGE_OFF, start_index=2 * j, stride=8, block_len=2, total_frames=2 * steps))
        elif ebc == 2:
            bindings.append(BindingSpec(sid_g2, STAGE_OFF, start_index=2 * j, stride=8, block_len=2, total_frames=2 * steps))
        layouts.append(
            TileLayout(
                tile_id=tile_id,
                code_offset=code_off,
                code_frames=code_frames,
                binary_length=length,
                bindings=tuple(bindings),
                ckpt_buf_off=W_OFF,
                ckpt_len=slice_bytes,
            )
        )

    # -- ring regions --------------------------------------------------------
    w0_region = (DATA_BASE, DATA_BASE + frames_per_pass * FRAME_SIZE)
    g1_region = (DATA_BASE + REGION_STRIDE, DATA_BASE + REGION_STRIDE + frames_per_pass * FRAME_SIZE)
    g2_region = (DATA_BASE + 2 * REGION_STRIDE, DATA_BASE + 2 * REGION_STRIDE + frames_per_pass * FRAME_SIZE)
    ckpt_slot = max(
        checkpoint_frames(len(l.bindings), l.ckpt_len, PAYLOAD) for l in layouts
    )
    ckpt_base = DATA_BASE + 3 * REGION_STRIDE
    ckpt_region = (ckpt_base, ckpt_base + n_tiles * ckpt_slot * FRAME_SIZE)
    out_base = DATA_BASE + 4 * REGION_STRIDE
    out_region = (out_base, out_base + frames_per_pass * FRAME_SIZE)

    stream_table = {
        SID_CODE: StreamTableEntry(SID_CODE, job.model_party, DIR_IN, CODE, code_plain, FRAME_SIZE, CODE_BASE),
        sid_w0: StreamTableEntry(sid_w0, job.model_party, DIR_IN, DATA, model_bytes, FRAME_SIZE, w0_region[0]),
        sid_g1: StreamTableEntry(sid_g1, job.data_parties[0], DIR_IN, DATA, steps * model_bytes, FRAME_SIZE, g1_region[0]),
        sid_g2: StreamTableEntry(sid_g2, job.data_parties[1], DIR_IN, DATA, steps * model_bytes, FRAME_SIZE, g2_region[0]),
        sid_ckpt: StreamTableEntry(sid_ckpt, "", DIR_OUT, CHECKPOINT, 0, FRAME_SIZE, ckpt_region[0]),
        sid_out: StreamTableEntry(sid_out, "", DIR_OUT, OUTPUT, model_bytes, FRAME_SIZE, out_region[0]),
    }

    # -- sync plans ----------------------------------------------------------
    g_regions = {0: CLEAR_REGION, 3: g1_region, 4: g2_region}
    g_registers = dict(
        regions=g_regions,
        stream_regions={sid_g1: 3, sid_g2: 4},
        ctxmap={1: 2, 2: 3},
        kphysmap={2: 3, 3: 4},
        ingress_loads=((2, sid_g1), (3, sid_g2)),
    )

    def w_moves() -> tuple:
        return tuple(
            (t // 4, STAGE_OFF + slice_bytes * (t % 4), t, W_OFF, slice_bytes)
            for t in range(n_tiles)
        )

    def g_moves() -> tuple:
        moves = []
        for t in range(n_tiles):
            moves.append((4 + t // 4, STAGE_OFF + slice_bytes * (t % 4), t, G1_OFF, slice_bytes))
            moves.append((8 + t // 4, STAGE_OFF + slice_bytes * (t % 4), t, G2_OFF, slice_bytes))
        return tuple(moves)

    def gather_moves() -> tuple:
        return tuple(
            (t, W_OFF, t // 4, OUT_STAGE_OFF + slice_bytes * (t % 4), slice_bytes)
            for t in range(n_tiles)
        )

    plans = [
        SyncPlan(
            sync_id=0,
            regions={0: CLEAR_REGION, 2: w0_region},
            stream_regions={sid_w0: 2},
            stream_offsets={sid_w0: 0},
            fills=(sid_w0,),
            ctxmap={0: 1},
            kphysmap={1: 2},
            ingress_loads=((1, sid_w0),),
            invalidate=(CTX_CODE,),
        )
    ]
    for s in range(steps):
        pre = 1 + 2 * s  # barrier before the load interval of step s
        plans.append(
            SyncPlan(
                sync_id=pre,
                stream_offsets={sid_g1: frames_per_pass * s, sid_g2: frames_per_pass * s},
                fills=(sid_g1, sid_g2),
                invalidate=(1,) if s == 0 else (),
                checkpoint=s > 0 and (s % job.checkpoint_period == 0),
                moves=w_moves() if s == 0 else (),
                **g_registers,
            )
        )
        plans.append(
            SyncPlan(
                sync_id=2 + 2 * s,
                stream_offsets={},
                moves=g_moves(),
                **g_registers,
            )
        )
    plans.append(
        SyncPlan(
            sync_id=2 * steps + 1,
            regions={0: CLEAR_REGION, 5: out_region},
            stream_regions={sid_out: 5},
            stream_offsets={sid_out: 0},
            ctxmap={0: CTX_OUT},
            kphysmap={CTX_OUT: 5},
            egress_loads=((CTX_OUT, sid_out),),
            invalidate=(2, 3),
            checkpoint=(steps % job.checkpoint_period == 0),
            moves=gather_moves(),
        )
    )
    plans.append(SyncPlan(sync_id=end_sync, regions={0: CLEAR_REGION}))

    save_plan, restore_plan = _ckpt_plans(sid_ckpt, ckpt_region)
    manifest = JobManifest(
        ipu_id=ipu_id,
        binary_hashes={},
        bootloader_measurement=bootloader_measurement,
        stream_table=stream_table,
        tile_layouts=tuple(layouts),
        boot_plan=_boot_plan(CODE_BASE + code_region_bytes),
        sync_plans=tuple(plans),
        checkpoint_plan=save_plan,
        restore_plan=restore_plan,
        stream_assignment={
            "inputs": {
                str(SID_CODE): job.model_party,
                str(sid_w0): job.model_party,
                str(sid_g1): job.data_parties[0],
                str(sid_g2): job.data_parties[1],
            },
            "model_receivers": sorted(job.model_receivers or (job.model_party,)),
        },
        device_config=config.to_dict(),
        metadata_base=METADATA_BASE,
    )
    compiled = CompiledJob(
        manifest=manifest,
        programs=programs,
        binaries=binaries,
        key_streams={
            job.model_party: (SID_CODE, sid_w0),
            job.data_parties[0]: (sid_g1,),
            job.data_parties[1]: (sid_g2,),
        },
    )
    manifest = _finalize(compiled, ipu_id)
    compiled.manifest = manifest
    return compiled


# ---------------------------------------------------------------------------
# sum_streams job (key rotation)
# ---------------------------------------------------------------------------


def _compile_sum(
    job: JobDescription, config: DeviceConfig, bootloader_measurement: str, ipu_id: int
) -> CompiledJob:
    if config.tile_count != 16 or config.tiles_per_exchange_context != 4:
        raise ScheduleInfeasible("the reduction planner targets 16 tiles in 4 exchange blocks")
    n = job.stream_count
    if n < 1:
        raise ScheduleInfeasible("at least one input stream")
    n_ebcs = config.tile_count // config.tiles_per_exchange_context
    if not job.rotate_contexts and n > n_ebcs:
        raise ScheduleInfeasible(
            f"{n} concurrently resident streams need more than {n_ebcs} exchange-block "
            "bindings in one interval and key rotation is disabled"
        )

    ints = PAYLOAD // 4  # 24 ints per stream frame
    waves = -(-n // n_ebcs)
    sid_in = lambda i: 2 + i  # noqa: E731
    sid_out = 2 + n

    loaders = [4 * e for e in range(n_ebcs)]

    # -- programs ------------------------------------------------------------
    programs: dict[int, TileProgram] = {}
    for t in range(config.tile_count):
        phases: list = []
        for w in range(waves):
            if t in loaders:
                i = 4 * w + loaders.index(t)
                if i < n:
                    phases.append(LoadPhase(sid_in(i), 1))
            phases.append(SyncPhase(w + 1))
        if t == 0:
            phases.append(ComputePhase(OP_SUM, (ACC_OFF, n * ints, RES_OFF)))
        phases.append(SyncPhase(waves + 1))
        if t == 0:
            phases.append(StorePhase(sid_out, 1))
        phases.append(SyncPhase(waves + 2))
        programs[t] = TileProgram(tuple(phases))

    binaries, code_layout, code_region_bytes = _code_layouts(programs)
    code_plain = sum(length for _, _, _, length in code_layout)

    layouts = []
    for tile_id, code_off, code_frames, length in code_layout:
        bindings = []
        if tile_id in loaders:
            e = loaders.index(tile_id)
            for w in range(waves):
                i = 4 * w + e
                if i < n:
                    bindings.append(BindingSpec(sid_in(i), STAGE_OFF, 0, total_frames=1))
        if tile_id == 0:
            bindings.append(BindingSpec(sid_out, RES_OFF, 0, total_frames=1))
        layouts.append(
            TileLayout(
                tile_id=tile_id,
                code_offset=code_off,
                code_frames=code_frames,
                binary_length=length,
                bindings=tuple(bindings),
            )
        )

    # -- streams and regions -------------------------------------------------
    # Each exchange block reuses one ring region across waves; the host
    # refills it with the next stream's frame at the wave barrier.
    ebc_region = lambda e: (  # noqa: E731
        DATA_BASE + e * REGION_STRIDE,
        DATA_BASE + e * REGION_STRIDE + FRAME_SIZE,
    )
    out_base = DATA_BASE + n_ebcs * REGION_STRIDE
    out_region = (out_base, out_base + FRAME_SIZE)

    stream_table = {
        SID_CODE: StreamTableEntry(SID_CODE, job.model_party, DIR_IN, CODE, code_plain, FRAME_SIZE, CODE_BASE),
        sid_out: StreamTableEntry(sid_out, "", DIR_OUT, OUTPUT, 4, FRAME_SIZE, out_region[0]),
    }
    parties = job.data_parties or (job.model_party,)
    for i in range(n):
        party = parties[i % len(parties)]
        stream_table[sid_in(i)] = StreamTableEntry(
            sid_in(i), party, DIR_IN, DATA, 4 * ints, FRAME_SIZE, ebc_region(i % n_ebcs)[0]
        )

    # -- plans ---------------------------------------------------------------
    def wave_slots(w: int) -> list[int]:
        return [1 + (w % 3) * 4 + e for e in range(n_ebcs)]

    plans = []
    for w in range(waves):
        slots = wave_slots(w)
        sids = [sid_in(4 * w + e) for e in range(n_ebcs) if 4 * w + e < n]
        regions = {0: CLEAR_REGION}
        stream_regions = {}
        ctxmap = {}
        kphysmap = {}
        loads = []
        for e, sid in enumerate(sids):
            regions[1 + e] = ebc_region(e)
            stream_regions[sid] = 1 + e
            ctxmap[e] = slots[e]
            kphysmap[slots[e]] = 1 + e
            loads.append((slots[e], sid))
        invalidate = tuple(slots[: len(sids)]) if w >= 3 else ((CTX_CODE,) if w == 0 else ())
        plans.append(
            SyncPlan(
                sync_id=w,
                regions=regions,
                stream_regions=stream_regions,
                stream_offsets={sid: 0 for sid in sids},
                fills=tuple(sids),
                ctxmap=ctxmap,
                kphysmap=kphysmap,
                ingress_loads=tuple(loads),
                invalidate=invalidate,
                moves=_sum_moves(w - 1, n, n_ebcs, ints) if w > 0 else (),
            )
        )
    plans.append(
        SyncPlan(
            sync_id=waves,
            regions={0: CLEAR_REGION},
            moves=_sum_moves(waves - 1, n, n_ebcs, ints),
        )
    )
    plans.append(
        SyncPlan(
            sync_id=waves + 1,
            regions={0: CLEAR_REGION, 5: out_region},
            stream_regions={sid_out: 5},
            stream_offsets={sid_out: 0},
            ctxmap={0: CTX_OUT},
            kphysmap={CTX_OUT: 5},
            egress_loads=((CTX_OUT, sid_out),),
            invalidate=tuple(sorted({s for w in range(min(waves, 3)) for s in wave_slots(w)})),
        )
    )
    plans.append(SyncPlan(sync_id=waves + 2, regions={0: CLEAR_REGION}))

    key_streams: dict[str, list[int]] = {job.model_party: [SID_CODE]}
    for i in range(n):
        party = stream_table[sid_in(i)].party
        key_streams.setdefault(party, []).append(sid_in(i))

    manifest = JobManifest(
        ipu_id=ipu_id,
        binary_hashes={},
        bootloader_measurement=bootloader_measurement,
        stream_table=stream_table,
        tile_layouts=tuple(layouts),
        boot_plan=_boot_plan(CODE_BASE + code_region_bytes),
        sync_plans=tuple(plans),
        checkpoint_plan=None,
        restore_plan=None,
        stream_assignment={
            "inputs": {str(sid): e.party for sid, e in stream_table.items() if e.direction == DIR_IN},
            "model_receivers": sorted(job.model_receivers or (job.model_party,)),
        },
        device_config=config.to_dict(),
        metadata_base=METADATA_BASE,
    )
    compiled = CompiledJob(
        manifest=manifest,
        programs=programs,
        binaries=binaries,
        key_streams={p: tuple(s) for p, s in key_streams.items()},
    )
    compiled.manifest = _finalize(compiled, ipu_id)
    return compiled


def _sum_moves(w: int, n: int, n_ebcs: int, ints: int) -> tuple:
    moves = []
    for e in range(n_ebcs):
        i = 4 * w + e
        if i < n:
            moves.append((4 * e, STAGE_OFF, 0, ACC_OFF + i * 4 * ints, 4 * ints))
    return tuple(moves)


# ---------------------------------------------------------------------------
# finalization
# ---------------------------------------------------------------------------


def _finalize(compiled: CompiledJob, ipu_id: int) -> JobManifest:
    """Fill in the binary hash chain and run the manifest validator."""
    return dataclasses.replace(
        compiled.manifest, binary_hashes={ipu_id: compiled.binary_hash_chain()}
    ).validate()
