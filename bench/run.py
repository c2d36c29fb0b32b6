"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sgd_train --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures whole jobs with nothing patched and
reports the end-to-end metrics.  With ``--trace 1`` it alternates untraced
and traced jobs and reports the per-layer metrics of the traced ones.  Every
job's decrypted model is compared with the clear reference outside the
timed region.  A table goes to standard output, followed by one JSON line;
the same result, and in a traced run every span, are written under
``.bench_out/``.  The exit code is 1 when a job failed, a simulated count
changed between jobs, or key material shows up in anything written, and 2
when the ``itx`` sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import re
import resource
import sys
import time
from pathlib import Path

import probe
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

TAIL_Q = 0.9

END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("launch_p50_s", "s"),
    ("clear_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


_SPAN_STATS = {
    "sxp.process_ingress": ("calls", "bytes", "self_s", "MBps"),
    "sxp.process_egress": ("calls", "bytes", "self_s", "MBps"),
    "sxp.load_key": ("calls", "self_s"),
    "device.run_interval": ("calls", "self_s"),
    "device.read_stream_frame": ("calls", "self_s"),
    "device.write_stream_frame": ("calls",),
    "device.scrub": ("calls", "self_s"),
    "device.run_bootloader": ("self_s",),
    "device.checkpoint_save": ("calls", "self_s"),
    "device.checkpoint_restore": ("self_s",),
    "ccu.tee_init": ("self_s",),
    "ccu.tee_launch": ("self_s",),
    "ccu.tee_load_keys": ("calls", "self_s"),
    "ccu.tee_checkpoint": ("self_s",),
    "ccu.tee_restore": ("self_s",),
    "pki.verify_attestation": ("calls", "self_s"),
    "pki.release_keys": ("self_s",),
    "manifest.measurement": ("calls", "self_s"),
    "manifest.validate": ("self_s",),
    "compiler.compile_job": ("self_s",),
    "packaging.package_inputs": ("self_s",),
    "frame_codec.encrypt_stream": ("bytes", "self_s"),
    "frame_codec.decrypt_stream": ("self_s",),
    "runtime.run": ("self_s",),
    "sandbox.make_deployment": ("self_s",),
}
_UNITS = {"calls": "count", "bytes": "B", "self_s": "s", "MBps": "MB/s"}

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = tuple(
    (f"{prefix}.{stat}", _UNITS[stat]) for prefix, stats in _SPAN_STATS.items() for stat in stats
) + (
    ("device.ring.read_bytes", "B"),
    ("device.ring.write_bytes", "B"),
    ("sxp.pending.created", "count"),
    ("sxp.pending.retired", "count"),
    ("trace.traced_job_p50_s", "s"),
    ("trace.untraced_job_p50_s", "s"),
)


def job_counts(job, sample) -> dict[str, int]:
    """The simulated statistics of one traced job: they depend on the
    inputs alone, so they repeat exactly for one seed."""
    counts = {f"{name}.calls": n for name, n in job.calls.items()}
    counts.update(job.counts)
    counts["sxp.pending.created"] = sample.pending_created
    counts["sxp.pending.retired"] = sample.pending_retired
    return dict(sorted(counts.items()))


def count_differences(reference: dict[str, int], other: dict[str, int]) -> list[str]:
    return [
        f"{name}: {reference.get(name, 0)} != {other.get(name, 0)}"
        for name in sorted(set(reference) | set(other))
        if reference.get(name, 0) != other.get(name, 0)
    ]


def find_key_material(wanted: set[str], blobs: dict[str, bytes]) -> list[str]:
    """Names of the blobs that contain any of the lower-case hex strings
    ``wanted``, in either case."""
    lengths = sorted({len(h) for h in wanted})
    if not lengths:
        return []
    runs = re.compile(rb"[0-9a-fA-F]{%d,}" % lengths[0])
    found = []
    for name, blob in blobs.items():
        for run in runs.finditer(blob):
            text = run.group().decode().lower()
            if any(
                text[i : i + n] in wanted for n in lengths for i in range(len(text) - n + 1)
            ):
                found.append(name)
                break
    return found


def measure(args, workloads):
    """Run one warm-up job, then jobs for the requested time.  A traced run
    traces every other job.  Returns the warm-up sample, (sample, traced?)
    pairs, the tracer and every job's secrets, packed by length."""
    clock = workloads.LaunchClock()
    tracer = tracing.Tracer() if args.trace else None
    # Packed, so that keeping them moves peak RSS little.
    secrets: dict[int, bytearray] = {}
    jobs: list[tuple] = []

    def run_one(trace_it: bool):
        if trace_it:
            with tracer.job(len(tracer.jobs)):
                sample = workloads.run_job(args.workload, args.seed, clock)
        else:
            sample = workloads.run_job(args.workload, args.seed, clock)
        for secret in sample.secrets:
            secrets.setdefault(len(secret), bytearray()).extend(secret)
        sample.secrets = []
        return sample

    def speed() -> float:
        gc.collect()
        return probe.probe()

    warmup = run_one(False)
    before = speed()
    deadline = time.perf_counter() + args.seconds
    while not jobs or time.perf_counter() < deadline:
        trace_it = bool(args.trace) and len(jobs) % 2 == 1
        sample = run_one(trace_it)
        after = speed()
        sample.scale = probe.scale(before, after)
        before = after
        jobs.append((sample, trace_it))
    return warmup, jobs, tracer, secrets


def end_to_end(good) -> tuple[list, list[str]]:
    """(name, value, unit, samples) rows from successful untraced jobs."""
    jobs = [s.job_s * s.scale for s in good]
    n = len(good)
    values = {
        "setup_s": stats.median([s.setup_s * s.scale for s in good]),
        "job_p50_s": stats.median(jobs),
        "job_p90_s": stats.percentile(jobs, TAIL_Q),
        "launch_p50_s": stats.median([s.launch_s * s.scale for s in good]),
        "clear_p50_s": stats.median([s.clear_s * s.scale for s in good]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rows = [
        (name, values[name], unit, 1 if name == "peak_rss_mb" else n) for name, unit in END_TO_END
    ]
    job, clear = values["job_p50_s"], values["clear_p50_s"]
    notes = [f"overhead job_p50_s / clear_p50_s = {job / clear:.1f} ({job:.6g} s / {clear:.6g} s)"]
    if stats.beyond(n, TAIL_Q) < stats.MIN_BEYOND:
        notes.append(
            f"job_p90_s has {stats.beyond(n, TAIL_Q)} sample(s) beyond it, "
            f"fewer than {stats.MIN_BEYOND}"
        )
    return rows, notes


def per_layer(traced, good) -> tuple[list, list[str], dict, list[str]]:
    """Rows, notes, the first job's counts and count differences, from
    successful traced jobs given as (JobTrace, JobSample) pairs."""
    counts = job_counts(*traced[0])
    diffs = [
        f"count changed in traced job {i}: {diff}"
        for i, pair in enumerate(traced[1:], start=1)
        for diff in count_differences(counts, job_counts(*pair))
    ]
    busy = {
        name: stats.median([job.self_s.get(name, 0.0) * s.scale for job, s in traced])
        for name, _, _ in tracing.SPANNED
    }
    untraced_p50 = stats.median([s.job_s * s.scale for s in good])
    traced_p50 = stats.median([s.job_s * s.scale for _, s in traced])
    rows = []
    for name, unit in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if name == "trace.traced_job_p50_s":
            value = traced_p50
        elif name == "trace.untraced_job_p50_s":
            value = untraced_p50
        elif stat == "self_s":
            value = busy[prefix]
        elif stat == "MBps":
            value = counts.get(f"{prefix}.bytes", 0) / busy[prefix] / 1e6 if busy[prefix] else 0.0
        else:
            value = counts.get(name, 0)
        rows.append((name, value, unit, len(traced)))
    notes = [
        f"tracing overhead traced / untraced job_p50_s = {traced_p50 / untraced_p50:.3f} "
        f"({traced_p50:.6g} s / {untraced_p50:.6g} s)"
    ]
    return rows, notes, counts, diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "itx" / "__init__.py").is_file():
        print(f"error: no itx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    warmup, jobs, tracer, secrets = measure(args, workloads)
    attempted = len(jobs) + 1
    problems = [s.failure for s in [warmup] + [s for s, _ in jobs] if s.failure]
    failed = len(problems)
    good = [s for s, traced in jobs if not traced and not s.failure]
    rows, notes, counts = [], [], {}
    if args.trace:
        traced = [
            (job, s) for job, s in zip(tracer.jobs, [s for s, t in jobs if t]) if not s.failure
        ]
        if traced and good:
            rows, notes, counts, diffs = per_layer(traced, good)
            problems += diffs
    elif good:
        rows, notes = end_to_end(good)
    if not rows:
        problems.append("no successful job to measure")

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"jobs {len(jobs)} (+1 warm-up)",
        f"times are host seconds scaled by the speed probe (median factor "
        f"{stats.median([s.scale for s, _ in jobs]):.3f})",
        *(f"{name:34s} {value:>14.6g} {unit:6s} n={n}" for name, value, unit, n in rows),
        f"{'failed_frac':34s} {failed / attempted:>14.6g} {'1':6s} n={attempted}",
        *notes,
        *problems,
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counts": counts,
        "problems": problems,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path, spans_path = stem.with_suffix(".json"), stem.with_suffix(".spans.csv.gz")
    result_path.write_text(json.dumps(result, indent=1))
    written = {"result": result_path.read_bytes()}
    if tracer is not None:
        tracer.write(spans_path)
        written["spans"] = gzip.decompress(spans_path.read_bytes())
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    text = "\n".join(lines) + "\n" + json.dumps(summary)
    wanted = {
        packed[i : i + n].hex() for n, packed in secrets.items() for i in range(0, len(packed), n)
    }
    leaks = find_key_material(wanted, {**written, "stdout": text.encode()})
    if leaks:
        for path in (result_path, spans_path):
            path.unlink(missing_ok=True)
        print(f"key material found in: {', '.join(leaks)}; output withheld", file=sys.stderr)
        return 1
    print(text)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
