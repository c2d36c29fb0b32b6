"""Job manifest: structural limits, derived register images, canonical round trips."""

import dataclasses

import pytest

from itx.compiler import JobDescription, compile_job
from itx.encoding import canonical_bytes
from itx.errors import InvalidEncoding, InvalidFrameSize, InvalidRegisterProgram
from itx.manifest import (BOOT, DATA, DIR_IN, DIR_OUT, EGRESS, INGRESS, OUTPUT, RESTORE, SAVE, BindingSpec,
                          JobManifest, StreamTableEntry, SyncPlan)
from itx.sxp import NUM_CONTEXTS, NUM_REGIONS, TILE_COUNT, TILES_PER_EBC, AddressRegion


def sgd_manifest() -> JobManifest:
    job = JobDescription(kind="sgd", model_party="modelco", data_parties=("alpha", "beta"))
    return compile_job(job, bootloader_measurement="bl").manifest


def with_barrier(manifest: JobManifest, streams) -> JobManifest:
    """The manifest plus one barrier, running plan 0, whose interval keys ``streams``."""
    return dataclasses.replace(manifest, schedule=(*manifest.schedule, (0, dict.fromkeys(streams, 0))))


def with_regions(manifest: JobManifest, count: int) -> JobManifest:
    """The manifest plus a barrier whose image has ``count`` regions: region
    0, the cleartext region, and one each for ``count - 1`` new one-frame streams."""
    streams = {
        100 + i: StreamTableEntry("alpha", DIR_IN, DATA, 96, 0x80000 + 0x1000 * i, 1) for i in range(1, count)
    }
    manifest = dataclasses.replace(manifest, stream_table={**manifest.stream_table, **streams})
    return with_barrier(manifest, streams)


def rebind(manifest: JobManifest, tile: int, stream_id: int) -> JobManifest:
    """The manifest with tile ``tile``'s first binding walking ``stream_id``."""
    layouts = list(manifest.tile_layouts)
    first, *rest = layouts[tile].bindings
    changed = dataclasses.replace(first, stream_id=stream_id)
    layouts[tile] = dataclasses.replace(layouts[tile], bindings=(changed, *rest))
    return dataclasses.replace(manifest, tile_layouts=tuple(layouts))


def routes(manifest: JobManifest, keyed) -> dict[int, tuple[int, str, tuple[int, int]]]:
    """Exchange block -> (stream, bank, region extent) of the image derived for ``keyed``."""
    image, loads = manifest.validated_images()[keyed]
    streams = {ctx: (sid, bank) for bank, ctx, sid in loads}
    return {ebc: (*streams[ctx], (start, end)) for ebc, (ctx, _, start, end) in image.routes.items()}


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
        """No field states a region, so region 0 cannot be left out: every
        derived image maps it to the job's one cleartext region, which must
        not be empty."""
        manifest = sgd_manifest()
        for image, _ in manifest.validated_images().values():
            assert image.ksellimit[0] == AddressRegion(*manifest.clear_region)
        with pytest.raises(InvalidRegisterProgram, match="empty address region"):
            dataclasses.replace(manifest, clear_region=(0x1800, 0x1800)).validate()

    def test_no_stream_may_live_in_region_zero(self):
        """A stream is keyed in a region of its own, never region 0, so a
        keyed stream whose extent lies in the cleartext region is refused."""
        manifest = sgd_manifest()
        for image, _ in manifest.validated_images().values():
            assert 0 not in image.kphysmap.values()
        table = dict(manifest.stream_table)
        table[3] = dataclasses.replace(table[3], region_base=manifest.clear_region[0])
        with pytest.raises(InvalidRegisterProgram, match="overlap"):
            dataclasses.replace(manifest, stream_table=table).validate()

    def test_no_two_streams_share_a_key_region(self):
        """Each stream an image keys has a region of its own, with its extent."""
        manifest = sgd_manifest()
        for image, loads in manifest.validated_images().values():
            regions = [image.kphysmap[ctx] for _, ctx, _ in loads]
            assert len(set(regions)) == len(regions)
            for _, ctx, sid in loads:
                region = image.ksellimit[image.kphysmap[ctx]]
                assert (region.start, region.end) == manifest.extent(sid)

    def test_key_context_indices_bounded(self):
        """The i-th keyed stream takes context i, so a barrier keying more
        streams than there are contexts is refused; the region ceiling,
        one region past the contexts, refuses it first."""
        manifest = sgd_manifest()
        with_regions(manifest, NUM_CONTEXTS + 1).validate()
        with pytest.raises(InvalidRegisterProgram, match=f"{NUM_CONTEXTS + 2} regions exceed"):
            with_regions(manifest, NUM_CONTEXTS + 2).validate()

    @pytest.mark.parametrize("loads_of", ["ingress_loads", "egress_loads"])
    def test_a_plan_loads_only_streams_it_keys(self, loads_of):
        """A barrier loads one key for each stream its interval keys, and no
        other, in the bank of the stream's direction: the input streams in
        the ingress bank, the output stream in the egress bank."""
        manifest = sgd_manifest()
        images = manifest.validated_images()
        direction, bank = {"ingress_loads": (DIR_IN, INGRESS), "egress_loads": (DIR_OUT, EGRESS)}[loads_of]
        for sync_id, (_, offsets) in enumerate(manifest.schedule):
            _, loads = images[manifest.keyed(sync_id)]
            keyed = {sid for sid in offsets if manifest.stream_table[sid].direction == direction}
            assert sorted(sid for b, _, sid in loads if b == bank) == sorted(keyed)
        assert any(b == bank for _, loads in images.values() for b, _, _ in loads)

    @pytest.mark.parametrize("streams", [(3, 4), (3, 6)], ids=["one-bank", "both-banks"])
    def test_a_context_is_loaded_for_one_region(self, streams):
        """Both banks share one register image, so each context carries one
        stream's key, in one bank, whether an interval's streams are keyed
        in one bank or in both."""
        manifest = with_barrier(sgd_manifest(), streams)
        _, loads = manifest.validated_images()[manifest.keyed(len(manifest.schedule) - 1)]
        contexts = [ctx for _, ctx, _ in loads]
        assert sorted(sid for _, _, sid in loads) == list(streams)
        assert len(set(contexts)) == len(contexts) == len(streams)

    def test_frame_sizes_must_be_128_multiples_up_to_1024(self):
        manifest = sgd_manifest()
        for bad in (1000, 64, 1152, 0):
            with pytest.raises(InvalidFrameSize, match="frame size"):
                dataclasses.replace(manifest, frame_size=bad).validate()

    def test_a_frame_serial_phase_routes_every_exchange_block_to_its_one_key(self):
        """Boot reads the code stream, a save writes the checkpoint stream and
        a restore reads it, each strictly a frame at a time, so each routes
        every exchange block to one context; a barrier routes only the blocks
        whose tiles walk a stream it keys."""
        manifest = sgd_manifest()
        code, ckpt = (manifest.stream_of_kind(kind) for kind in ("code", "checkpoint"))
        blocks = range(TILE_COUNT // TILES_PER_EBC)
        for phase, sid, bank in ((BOOT, code, INGRESS), (SAVE, ckpt, EGRESS), (RESTORE, ckpt, INGRESS)):
            assert routes(manifest, manifest.keyed(phase)) == dict.fromkeys(blocks, (sid, bank, manifest.extent(sid)))
        assert routes(manifest, manifest.keyed(1)) == {1: (3, INGRESS, manifest.extent(3)),
                                                      2: (4, INGRESS, manifest.extent(4))}

    def test_a_stream_keyed_at_a_barrier_is_bound_in_one_exchange_block(self):
        """Tile 4, in block 1, walks stream 4 in place of 3: stream 4, keyed
        with 3 at every gradient barrier, is walked in blocks 1 and 2."""
        manifest = sgd_manifest()
        assert manifest.tile_layouts[4].bindings[0].stream_id == 3
        with pytest.raises(InvalidRegisterProgram, match="stream 4, keyed at a barrier, is bound in several"):
            rebind(manifest, 4, 4).validate()
        with pytest.raises(InvalidRegisterProgram, match="is bound in several exchange blocks"):
            rebind(manifest, 4, 4).admit()

    def test_an_exchange_block_binds_one_stream_keyed_at_a_barrier(self):
        """Block 0's tiles walk the weights and the output: keyed at one
        barrier, both would route block 0 to two keys at once."""
        manifest = sgd_manifest()
        manifest = with_barrier(manifest, (2, manifest.stream_of_kind(OUTPUT)))
        with pytest.raises(InvalidRegisterProgram, match=r"keyed at one barrier: an exchange block binds two of them"):
            manifest.validate()
        with pytest.raises(InvalidRegisterProgram, match="an exchange block binds two of them"):
            manifest.admit()

    def test_overlapping_regions_rejected(self):
        """Stream 4's region moved to start inside stream 3's: the barriers keying both refuse the overlap."""
        manifest = sgd_manifest()
        table = dict(manifest.stream_table)
        table[4] = dataclasses.replace(table[4], region_base=manifest.frame_address(3, 1))
        with pytest.raises(InvalidRegisterProgram, match="overlap"):
            dataclasses.replace(manifest, stream_table=table).validate()


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

    @pytest.mark.parametrize("plan", [SyncPlan(moves=((0, 0x3000, 1, 0x3800, 16),)), SyncPlan(checkpoint=True)],
                             ids=["moves", "checkpoints"])
    def test_barrier_zero_neither_moves_nor_checkpoints(self, plan):
        """The tiles start at barrier 0 without parking there, so a plan it
        runs would never run; another barrier may run that plan."""
        manifest = sgd_manifest()
        plans, index = (*manifest.plans, plan), len(manifest.plans)
        (_, offsets), *rest = manifest.schedule
        dataclasses.replace(manifest, plans=plans, schedule=((0, offsets), *rest, (index, {}))).validate()
        with pytest.raises(InvalidRegisterProgram, match="barrier 0 never parks"):
            dataclasses.replace(manifest, plans=plans, schedule=((index, offsets), *rest)).validate()

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
            ("kphysmap", lambda d: d["plans"][0].update(kphysmap={"0": 1})),
            ("frame_serial", lambda d: d["plans"][0].update(frame_serial=True)),
            ("stream_assignment", lambda d: d.update(stream_assignment={"model_receivers": ["modelco"]})),
            ("stream_regions", lambda d: d["plans"][0].update(stream_regions={"2": 1})),
            ("ctxmap", lambda d: d["plans"][0].update(ctxmap={"0": 0})),
            ("ingress_loads", lambda d: d["plans"][0].update(ingress_loads=[[0, 2]])),
            ("egress_loads", lambda d: d["plans"][0].update(egress_loads=[[0, 6]])),
            ("invalidate", lambda d: d["plans"][0].update(invalidate=[0])),
            ("boot_plan", lambda d: d.update(boot_plan={})),
            ("checkpoint_plan", lambda d: d.update(checkpoint_plan={})),
            ("restore_plan", lambda d: d.update(restore_plan=None)),
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
        for plan in manifest.plans:
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
