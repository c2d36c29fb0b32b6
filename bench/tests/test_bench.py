"""Tests of the benchmark's own logic.  Run with

    python3 -m pytest bench/tests
"""

import json
from pathlib import Path

import pytest

import probe
import run
import stats
import tracing
import workloads
from tracing import Span, self_times


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span(0, -1, 7, "root", 0.0, 10.0),
        Span(1, 0, 7, "a", 1.0, 4.0),
        Span(2, 1, 7, "a.inner", 2.0, 3.0),
        Span(3, 0, 7, "b", 5.0, 9.0),
        Span(4, 0, 7, "c", 8.0, 12.0),  # overlaps b and outlives the root
        Span(5, -1, 7, "other_root", 20.0, 21.5),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0, 1.5])


def test_tracer_records_nested_spans_and_restores_originals():
    import itx.pki
    import itx.runtime

    original = itx.runtime.verify_attestation
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.job(3):
        assert itx.runtime.verify_attestation is not original
        assert itx.pki.verify_attestation is not original
        outer = tracer._spanned("outer", lambda: inner(), None)
        inner = tracer._spanned("inner", lambda: None, None)
        outer()
    assert itx.runtime.verify_attestation is original
    assert itx.pki.verify_attestation is original
    (job,) = tracer.jobs
    assert job.calls == {"outer": 1, "inner": 1}
    assert job.self_s == {"outer": 2.0, "inner": 1.0}
    assert [(s.span_id, s.parent_id, s.job_id) for s in sorted(tracer.spans)] == [
        (0, -1, 3),
        (1, 0, 3),
    ]


def test_percentile_and_sample_count_rule():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.9) == 90.0
    assert stats.percentile(values, 0.5) == 50.0
    assert stats.beyond(100, 0.9) == 10
    assert stats.beyond(99, 0.9) == 9
    assert stats.percentile([3.0], 0.9) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.9)


def test_speed_scale_uses_the_mean_of_the_probes_around_a_job():
    assert probe.scale(0.01, 0.03) == pytest.approx(probe.REFERENCE_S / 0.02)
    assert probe.probe() > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_plaintexts(workload):
    first = workloads.build(workload, 5, workloads.LaunchClock()).plaintexts
    again = workloads.build(workload, 5, workloads.LaunchClock()).plaintexts
    other = workloads.build(workload, 6, workloads.LaunchClock()).plaintexts
    assert first == again
    assert first != other


class _NoTouch:
    def __getattr__(self, name):
        raise AssertionError(f"the launch clock touched host.{name}")


def test_launch_clock_records_once_per_attempt_and_never_touches_the_host():
    clock = workloads.LaunchClock()
    host = _NoTouch()
    clock.after_fill(host, 0)  # not armed: nothing to record
    assert clock.attempts == []
    clock.arm(1.0)
    for stage in ("boot", 0, 1, 2):
        clock.after_fill(host, stage)
    clock.arm(2.0)
    for stage in ("boot", "restore", 9, 10):
        clock.after_fill(host, stage)
    assert [start for start, _ in clock.attempts] == [1.0, 2.0]
    assert all(first is not None for _, first in clock.attempts)
    assert clock.attempts[0][1] < clock.attempts[1][1]


def test_halt_resume_job_matches_the_clear_reference_with_one_mark_per_attempt():
    clock = workloads.LaunchClock()
    sample = workloads.run_job("halt_resume", 1, clock)
    assert sample.failure == ""
    assert len(clock.attempts) == 2
    assert all(first is not None for _, first in clock.attempts)
    assert 0 < sample.launch_s < sample.job_s
    assert sample.pending_created == sample.pending_retired > 0


def test_key_scan_finds_planted_key_hex_in_either_case():
    key = bytes(range(32))
    other = bytes(range(1, 33))
    blobs = {
        "clean": b'{"x": 0.123456789012345, "name": "sxp.load_key"}',
        "lower": b"prefix" + key.hex().encode() + b"suffix",
        "upper": b"ab" + key.hex().upper().encode(),
    }
    assert run.find_key_material({key.hex(), other.hex()}, blobs) == ["lower", "upper"]
    assert run.find_key_material(set(), blobs) == []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run._SPAN_STATS) == {name for name, _, _ in tracing.SPANNED}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]][0] for w in spec["workloads"])
