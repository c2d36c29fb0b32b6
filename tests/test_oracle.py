"""The clear reference run against the arithmetic oracle, over drawn job
shapes.  Clear runs take milliseconds, so the draw covers the planners'
shapes without a trusted run."""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import expected_model, wrap32
from itx.compiler import JobDescription, compile_job
from itx.manifest import CODE, DIR_IN
from itx.runtime import run_clear_reference


def clear_run_matches_the_oracle(job: JobDescription, seed: int, wide: bool) -> None:
    """Compile ``job``, feed each input stream ints drawn from ``seed`` (full
    int32 range when ``wide``) and compare the clear run with the oracle."""
    compiled = compile_job(job)
    rng = random.Random(seed)
    lo, hi = (-(1 << 31), (1 << 31) - 1) if wide else (-9999, 9999)
    plaintexts = {
        sid: struct.pack(f"<{n}i", *(rng.randint(lo, hi) for _ in range(n)))
        for sid, entry in compiled.manifest.stream_table.items()
        if entry.direction == DIR_IN and entry.kind != CODE
        for n in [entry.plaintext_length // 4]
    }
    model = run_clear_reference(compiled.manifest, compiled.binaries, plaintexts)
    assert model == expected_model(job, plaintexts)


def test_wrap32_is_twos_complement():
    assert [wrap32(v) for v in (0, -1, 1 << 31, -(1 << 31) - 1, 1 << 32)] == [0, -1, -(1 << 31), (1 << 31) - 1, 0]


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(1, 6),
    period=st.integers(1, 6),
    lr=st.sampled_from([(1, 16), (1, 1), (3, 7), (-5, 2)]),
    seed=st.integers(0, 1 << 16),
    wide=st.booleans(),
)
def test_clear_sgd_runs_match_the_oracle(steps, period, lr, seed, wide):
    job = JobDescription(
        kind="sgd",
        model_party="m",
        data_parties=("a", "b"),
        steps=steps,
        checkpoint_period=period,
        lr_num=lr[0],
        lr_den=lr[1],
    )
    clear_run_matches_the_oracle(job, seed, wide)


@settings(max_examples=30, deadline=None)
@given(stream_count=st.integers(1, 40), seed=st.integers(0, 1 << 16), wide=st.booleans())
def test_clear_sum_runs_match_the_oracle(stream_count, seed, wide):
    job = JobDescription(kind="sum_streams", model_party="m", data_parties=("a", "b"), stream_count=stream_count)
    clear_run_matches_the_oracle(job, seed, wide)
