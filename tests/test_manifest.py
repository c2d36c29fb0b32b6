"""Job manifest: structural limits, plan validation, canonical round trips."""

import dataclasses

import pytest

from itx.compiler import JobDescription, compile_job
from itx.encoding import canonical_bytes
from itx.errors import InvalidEncoding, InvalidFrameSize, InvalidRegisterProgram
from itx.manifest import DATA, DIR_IN, BindingSpec, JobManifest, StreamTableEntry, SyncPlan
from itx.sxp import NUM_CONTEXTS, NUM_REGIONS, AddressRegion


def sgd_manifest() -> JobManifest:
    job = JobDescription(kind="sgd", model_party="modelco", data_parties=("alpha", "beta"))
    return compile_job(job, bootloader_measurement="bl").manifest


def with_extra_plan(manifest: JobManifest, plan: SyncPlan) -> JobManifest:
    return dataclasses.replace(manifest, plans=(*manifest.plans, plan))


def with_regions(manifest: JobManifest, count: int) -> JobManifest:
    """The manifest plus a plan whose image has ``count`` regions: region 0,
    the cleartext region, and one each for ``count - 1`` new one-frame streams."""
    streams = {
        100 + i: StreamTableEntry("alpha", DIR_IN, DATA, 96, 0x80000 + 0x1000 * i, 1) for i in range(1, count)
    }
    manifest = dataclasses.replace(manifest, stream_table={**manifest.stream_table, **streams})
    return with_extra_plan(manifest, SyncPlan(stream_regions={100 + i: i for i in range(1, count)}))


class TestStructuralLimits:
    def test_compiled_manifest_validates(self):
        manifest = sgd_manifest()
        assert manifest.validate() is manifest

    def test_seventeen_regions_is_the_ceiling(self):
        manifest = sgd_manifest()
        with_regions(manifest, NUM_REGIONS).validate()
        # The register program's own limit is the one check of the count.
        with pytest.raises(InvalidRegisterProgram, match="18 regions exceed the 17-region limit"):
            with_regions(manifest, NUM_REGIONS + 1).validate()

    def test_region_zero_is_the_cleartext_region_of_every_image(self):
        """A plan no longer states its regions, so region 0 cannot be left
        out: every image maps it to the job's one cleartext region, which
        must not be empty."""
        manifest = sgd_manifest()
        for plan in (manifest.boot_plan, *manifest.plans, manifest.checkpoint_plan, manifest.restore_plan):
            assert manifest.registers(plan).ksellimit[0] == AddressRegion(*manifest.clear_region)
        with pytest.raises(InvalidRegisterProgram, match="empty address region"):
            dataclasses.replace(manifest, clear_region=(0x1800, 0x1800)).validate()

    def test_no_stream_may_live_in_region_zero(self):
        manifest = sgd_manifest()
        with pytest.raises(InvalidRegisterProgram, match="cleartext region"):
            with_extra_plan(manifest, SyncPlan(stream_regions={2: 0})).validate()

    def test_no_two_streams_share_a_key_region(self):
        manifest = sgd_manifest()
        with pytest.raises(InvalidRegisterProgram, match="several streams share one key region"):
            with_extra_plan(manifest, SyncPlan(stream_regions={2: 1, 3: 1})).validate()

    def test_key_context_indices_bounded(self):
        manifest = sgd_manifest()
        plan = SyncPlan(stream_regions={2: 1}, ingress_loads=((NUM_CONTEXTS, 2),))
        with pytest.raises(InvalidRegisterProgram, match=f"context {NUM_CONTEXTS} out of range"):
            with_extra_plan(manifest, plan).validate()

    @pytest.mark.parametrize("bank", ["ingress_loads", "egress_loads"])
    def test_a_plan_loads_only_streams_it_keys(self, bank):
        """A context's region is that of the stream it is loaded with, so a
        load of a stream the plan maps to no region is refused."""
        manifest = sgd_manifest()
        plan = SyncPlan(stream_regions={2: 1}, ctxmap={0: 1}, **{bank: ((1, 2), (2, 3))})
        with pytest.raises(InvalidRegisterProgram, match="a key load for stream 3, which the plan does not key"):
            with_extra_plan(manifest, plan).validate()

    @pytest.mark.parametrize(
        "loads",
        [dict(ingress_loads=((1, 2), (1, 3))), dict(ingress_loads=((1, 2),), egress_loads=((1, 3),))],
        ids=["one-bank", "both-banks"],
    )
    def test_a_context_is_loaded_for_one_region(self, loads):
        """Both banks share one register image, so a context loaded with two
        streams would need two regions at once, and is refused."""
        manifest = sgd_manifest()
        plan = SyncPlan(stream_regions={2: 1, 3: 2}, ctxmap={0: 1}, **loads)
        with pytest.raises(InvalidRegisterProgram, match="context 1 is loaded for two regions"):
            with_extra_plan(manifest, plan).validate()

    def test_frame_sizes_must_be_128_multiples_up_to_1024(self):
        manifest = sgd_manifest()
        for bad in (1000, 64, 1152, 0):
            with pytest.raises(InvalidFrameSize, match="frame size"):
                dataclasses.replace(manifest, frame_size=bad).validate()

    def test_shared_context_needs_frame_serial(self):
        """Only the boot, checkpoint and restore plans are frame-serial: a
        barrier plan that maps two exchange blocks to one key context is
        refused, and the boot plan may map them so."""
        manifest = sgd_manifest()
        plan = SyncPlan(
            stream_regions={2: 1},
            ctxmap={0: 1, 1: 1},  # two exchange blocks, one key context
            ingress_loads=((1, 2),),
        )
        with pytest.raises(InvalidRegisterProgram, match=f"plan {len(manifest.plans)}: .* frame-serial phase"):
            with_extra_plan(manifest, plan).validate()
        dataclasses.replace(manifest, boot_plan=plan).validate()
        assert len(set(manifest.boot_plan.ctxmap.values())) < len(manifest.boot_plan.ctxmap)

    def test_overlapping_regions_rejected(self):
        """Stream 3's region moved to start inside stream 2's: a plan keying both overlaps."""
        manifest = sgd_manifest()
        table = dict(manifest.stream_table)
        table[3] = dataclasses.replace(table[3], region_base=manifest.frame_address(2, 1))
        manifest = dataclasses.replace(manifest, stream_table=table)
        with pytest.raises(InvalidRegisterProgram, match="overlap"):
            with_extra_plan(manifest, SyncPlan(stream_regions={2: 1, 3: 2})).validate()


class TestSchedule:
    def test_a_window_holds_its_region_s_frames_from_its_first(self):
        manifest = sgd_manifest()
        frames = manifest.stream_table[3].region_frames
        held = [i for i in range(4 * frames) if manifest.in_window(3, i, frames)]
        assert held == list(range(frames, 2 * frames))

    def test_plan_indexes_the_schedule(self):
        manifest = sgd_manifest()
        for sync_id, (index, offsets) in enumerate(manifest.schedule):
            assert manifest.plan(sync_id) == (manifest.plans[index], offsets)

    def test_ids_outside_the_schedule_have_no_plan(self):
        manifest = sgd_manifest()
        # -1 would otherwise index the end barrier
        for sync_id in (-1, -3, len(manifest.schedule)):
            assert manifest.plan(sync_id) is None

    def test_schedule_must_not_be_empty(self):
        with pytest.raises(InvalidRegisterProgram, match="empty"):
            dataclasses.replace(sgd_manifest(), schedule=()).validate()

    def test_plan_index_in_range(self):
        manifest = sgd_manifest()
        for index in (-1, len(manifest.plans), 100):
            schedule = ((index, {}), *manifest.schedule[1:])
            with pytest.raises(InvalidRegisterProgram, match="no plan"):
                dataclasses.replace(manifest, schedule=schedule).validate()

    @pytest.mark.parametrize("offsets", [{2: -1}, {99: 0}])
    def test_offsets_name_known_streams_and_are_non_negative(self, offsets):
        manifest = sgd_manifest()
        schedule = ((manifest.schedule[0][0], offsets), *manifest.schedule[1:])
        with pytest.raises(InvalidRegisterProgram, match="bad stream offsets"):
            dataclasses.replace(manifest, schedule=schedule).validate()


class TestBindings:
    def test_frame_index_arithmetic(self):
        spec = BindingSpec(stream_id=3, buf_off=0x100, start_index=6, stride=8, block_len=2)
        # Blocks of two consecutive frames, strided per barrier window.
        assert [spec.frame_index(k) for k in range(6)] == [6, 7, 14, 15, 22, 23]

    def test_default_binding_is_contiguous(self):
        spec = BindingSpec(stream_id=1, buf_off=0, start_index=0)
        assert [spec.frame_index(k) for k in range(4)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("block_len", [0, -1])
    def test_a_binding_needs_blocks_of_at_least_one_frame(self, block_len):
        manifest = sgd_manifest()
        layouts = list(manifest.tile_layouts)
        spec = layouts[5].bindings[0]
        layouts[5] = dataclasses.replace(layouts[5], bindings=(dataclasses.replace(spec, block_len=block_len),))
        with pytest.raises(InvalidRegisterProgram, match="fewer than one frame"):
            dataclasses.replace(manifest, tile_layouts=tuple(layouts)).validate()


class TestSerialization:
    def test_manifest_round_trip_preserves_measurement(self):
        manifest = sgd_manifest()
        clone = JobManifest.from_dict(manifest.to_dict())
        assert clone.measurement() == manifest.measurement()
        assert clone.to_bytes() == manifest.to_bytes()
        clone.validate()

    @pytest.mark.parametrize(
        "field, restate",
        [
            ("regions", lambda d: d["plans"][0].update(regions={"0": [0, 0x1800]})),
            ("frame_total_size", lambda d: d["stream_table"]["1"].update(frame_total_size=128)),
            ("stream_id", lambda d: d["stream_table"]["1"].update(stream_id=1)),
            ("total_frames", lambda d: d["tile_layouts"][0]["bindings"][0].update(total_frames=1)),
            ("fills", lambda d: d["plans"][0].update(fills=[2])),
            ("kphysmap", lambda d: d["boot_plan"].update(kphysmap={"0": 1})),
            ("frame_serial", lambda d: d["checkpoint_plan"].update(frame_serial=True)),
            ("stream_assignment", lambda d: d.update(stream_assignment={"model_receivers": ["modelco"]})),
        ],
    )
    def test_a_fact_stated_twice_is_refused(self, field, restate):
        """A manifest still carrying a field that each fact is now stated
        once without does not decode."""
        d = sgd_manifest().to_dict()
        restate(d)
        with pytest.raises(InvalidEncoding, match=f"unknown fields \\['{field}'\\]"):
            JobManifest.from_bytes(canonical_bytes(d))

    def test_sync_plan_round_trip(self):
        manifest = sgd_manifest()
        for plan in (manifest.boot_plan, *manifest.plans):
            clone = SyncPlan.from_dict(plan.to_dict())
            assert clone == plan

    def test_any_field_change_moves_the_measurement(self):
        manifest = sgd_manifest()
        base = manifest.measurement()
        bumped = dataclasses.replace(manifest, clear_region=(0x0, 0x1000))
        assert bumped.measurement() != base
        entry = dict(manifest.stream_table)
        sid = next(iter(entry))
        entry[sid] = dataclasses.replace(entry[sid], plaintext_length=entry[sid].plaintext_length + 4)
        assert dataclasses.replace(manifest, stream_table=entry).measurement() != base
