"""The benchmark's workloads: whole trusted jobs through the public API.

Every job has three parties (``modelco``, ``alpha``, ``beta``) and runs in
this one single-threaded process.  A job's inputs come from the benchmark
seed alone: it is passed to ``make_deployment(seed=...)`` and as the
fixture's ``data_seed``, so every job of a run has the same plaintexts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from itx import sandbox
from itx.adversary import Adversary
from itx.runtime import STATUS_COMPLETE, STATUS_HALTED, decrypt_model, run_clear_reference


class LaunchClock(Adversary):
    """A passive host that notes when each attempt first reaches compute.

    The runtime calls ``after_fill`` with ``"boot"`` before launch,
    ``"restore"`` before a restore, and a barrier id (an int) once the TEE is
    launched and the first interval's inputs are in the ring.  The clock
    records ``perf_counter()`` at the first int stage after each ``arm`` and
    touches nothing else.
    """

    name = "launch_clock"

    def __init__(self) -> None:
        self.attempts: list[list] = []  # [start, first compute stage or None]

    def arm(self, start: float) -> None:
        self.attempts.append([start, None])

    def after_fill(self, host, stage) -> None:
        if isinstance(stage, int) and self.attempts and self.attempts[-1][1] is None:
            self.attempts[-1][1] = time.perf_counter()

    def latency(self) -> float:
        """Launch latency of the latest attempt."""
        start, first = self.attempts[-1]
        if first is None:
            raise RuntimeError("the attempt never reached a compute interval")
        return first - start


class JobFailed(Exception):
    """The job aborted, halted where it should not, or gave a wrong model."""


@dataclass
class JobSample:
    setup_s: float = 0.0
    job_s: float = 0.0
    launch_s: float = 0.0
    clear_s: float = 0.0
    scale: float = 1.0  # host seconds -> reference seconds, from the speed probe
    failure: str = ""
    pending_created: int = 0
    pending_retired: int = 0
    secrets: list[bytes] = field(default_factory=list)  # scanned for, never written


def _sgd_train(deployment, seed, clock):
    return sandbox.make_sgd_fixture(
        deployment, steps=64, checkpoint_period=64, data_seed=seed, adversary=clock
    )


def _sum_rotate(deployment, seed, clock):
    return sandbox.make_sum_fixture(deployment, stream_count=128, data_seed=seed, adversary=clock)


def _halt_resume(deployment, seed, clock):
    return sandbox.make_sgd_fixture(
        deployment, steps=16, checkpoint_period=1, data_seed=seed, adversary=clock
    )


def _run(fixture):
    return fixture.session.run()


def _run_until_halt(fixture):
    return fixture.session.run(halt_after_checkpoint=8)


def _reset_and_resume(fixture):
    fixture.deployment.device.reset("sbr")
    return fixture.session.resume()


# name -> (why the workload exists, fixture builder, attempts in order).
# Every attempt but the last must halt; the last must complete.  An
# attempt's launch clock starts when its function is called.
WORKLOADS = {
    "sgd_train": (
        "data-path bound: ~1.7k SXP reads over 130 barriers and one checkpoint, "
        "so GHASH and SXP work shows here",
        _sgd_train,
        (_run,),
    ),
    "sum_rotate": (
        "launch bound: a scrub, 3 attestation verifies and ~130 key loads over "
        "32 key-rotation waves, with little data",
        _sum_rotate,
        (_run,),
    ),
    "halt_resume": (
        "checkpoint writes every step, then reset and restore: the only workload "
        "that reads a checkpoint back",
        _halt_resume,
        (_run_until_halt, _reset_and_resume),
    ),
}


def build(workload: str, seed: int, clock: LaunchClock):
    """Set up one job: deployment, compiled job and packaged inputs."""
    _, make_fixture, _ = WORKLOADS[workload]
    deployment = sandbox.make_deployment(seed=seed)
    return make_fixture(deployment, seed, clock)


def run_job(workload: str, seed: int, clock: LaunchClock) -> JobSample:
    """Set up, run and check one job; failures are recorded, not raised."""
    sample = JobSample()
    try:
        start = time.perf_counter()
        fixture = build(workload, seed, clock)
        sample.setup_s = time.perf_counter() - start
        for inputs in fixture.inputs.values():
            sample.secrets.extend(inputs.keys.values())
        _, _, attempts = WORKLOADS[workload]
        session = fixture.session

        start = time.perf_counter()
        for i, attempt in enumerate(attempts):
            clock.arm(time.perf_counter())
            result = attempt(fixture)
            pending = fixture.deployment.device.pending
            sample.pending_created += pending.created
            sample.pending_retired += pending.retired
            sample.secrets.extend(session.run_nonces.values())
            expected = STATUS_COMPLETE if i == len(attempts) - 1 else STATUS_HALTED
            if result.status != expected:
                raise JobFailed(f"attempt {i} ended {result.status}: {result.reason}")
        model = decrypt_model(
            fixture.compiled.manifest, result.output_frames, session.model_key_nonces()
        )
        sample.job_s = time.perf_counter() - start
        sample.launch_s = clock.latency()

        start = time.perf_counter()
        reference = run_clear_reference(
            fixture.compiled.manifest, fixture.compiled.binaries, fixture.clear_inputs()
        )
        sample.clear_s = time.perf_counter() - start
        if model != reference:
            raise JobFailed("decrypted model differs from the clear reference")
        if sample.pending_created != sample.pending_retired:
            raise JobFailed(
                f"{sample.pending_created} reads requested, {sample.pending_retired} retired"
            )
    except Exception as exc:  # noqa: BLE001 - any failure counts against the job
        sample.failure = f"{type(exc).__name__}: {exc}"
    return sample
