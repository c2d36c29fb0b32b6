"""The offline CLI workflow end to end: compile, package, run, verify, and
recover the model, on a 2-step SGD job."""

import json
import random
import shutil
import struct

import pytest

from itx.cli import EXIT_OK, EXIT_REJECTED, _archive_run, main
from itx.manifest import JobManifest
from itx.runtime import run_clear_reference
from itx.sandbox import make_sgd_fixture

STEPS = 2
MODEL_INTS = 192


def ints(rng: random.Random, count: int, lo: int, hi: int) -> bytes:
    return struct.pack(f"<{count}i", *(rng.randint(lo, hi) for _ in range(count)))


JOB = {"kind": "sgd", "model_party": "modelco", "data_parties": ["alpha", "beta"], "steps": STEPS}


def compile_and_package(root) -> dict[int, bytes]:
    """Compile the 2-step SGD job into ``root/build`` and package every
    party's inputs into ``root/pkg-PARTY`` and ``root/room-PARTY``; returns
    the plaintext of each data stream."""
    rng = random.Random(5)
    plaintexts = {
        2: ints(rng, MODEL_INTS, -9999, 9999),
        3: ints(rng, STEPS * MODEL_INTS, -500, 500),
        4: ints(rng, STEPS * MODEL_INTS, -500, 500),
    }
    for sid, blob in plaintexts.items():
        (root / f"s{sid}.bin").write_bytes(blob)
    (root / "job.json").write_text(json.dumps(JOB))
    build = root / "build"
    assert main(["compile", "--job", str(root / "job.json"), "--out", str(build)]) == EXIT_OK
    for command, party, sid in (
        ("package-model", "modelco", 2),
        ("package-data", "alpha", 3),
        ("package-data", "beta", 4),
    ):
        assert main([
            command, "--build", str(build), "--party", party,
            "--data", f"{sid}={root / f's{sid}.bin'}",
            "--package", str(root / f"pkg-{party}"),
            "--clean-room", str(root / f"room-{party}"),
        ]) == EXIT_OK
    return plaintexts


def run_args(root, run) -> list[str]:
    args = ["run", "--build", str(root / "build"), "--out", str(run)]
    for party in ("modelco", "alpha", "beta"):
        args += ["--package", str(root / f"pkg-{party}"), "--clean-room", str(root / f"room-{party}")]
    return args


def test_sgd_job_from_compile_to_model(tmp_path, capsys):
    plaintexts = compile_and_package(tmp_path)
    build, run = tmp_path / "build", tmp_path / "run"
    assert main(run_args(tmp_path, run)) == EXIT_OK
    assert main(["verify", "--run", str(run)]) == EXIT_OK
    model = tmp_path / "model.bin"
    assert main(["decrypt-model", "--run", str(run), "--out", str(model)]) == EXIT_OK

    compiled_measurement = next(
        line.split()[-1] for line in capsys.readouterr().out.splitlines()
        if line.startswith("manifest measurement")
    )
    manifest = JobManifest.from_dict(json.loads((build / "manifest.json").read_text()))
    assert manifest.measurement() == compiled_measurement
    binaries = {int(f.stem[1:]): f.read_bytes() for f in (build / "binaries").glob("t*.bin")}
    expected = run_clear_reference(manifest, binaries, plaintexts)
    assert model.read_bytes() == expected

    report = json.loads((run / "report.json").read_text())
    del report["epoch"]
    (run / "report.json").write_text(json.dumps(report))
    assert main(["verify", "--run", str(run)]) == EXIT_REJECTED


@pytest.fixture(scope="module")
def archived_run(tmp_path_factory):
    """A completed 2-step SGD run, archived the way ``itx run`` does."""
    fixture = make_sgd_fixture(steps=2)
    result = fixture.session.run()
    assert result.completed, result.reason
    run = tmp_path_factory.mktemp("archived") / "run"
    _archive_run(run, fixture.session, result, fixture.parties)
    return run


@pytest.mark.parametrize(
    "file, field, value",
    [
        ("ca.json", "cik_ca", None),
        ("ca.json", "cik_ca", "not hex"),
        ("expected.json", "party_fingerprints", None),
        ("expected.json", "manifest_measurement", "not hex"),
    ],
)
def test_verify_rejects_a_damaged_ca_or_expectation_file(archived_run, tmp_path, file, field, value):
    run = tmp_path / "run"
    shutil.copytree(archived_run, run)
    assert main(["verify", "--run", str(run)]) == EXIT_OK
    d = json.loads((run / file).read_text())
    if value is None:
        del d[field]
    else:
        d[field] = value
    (run / file).write_text(json.dumps(d))
    assert main(["verify", "--run", str(run)]) == EXIT_REJECTED


@pytest.mark.parametrize("change", [{"rotate_contexts": True}, {"steps": "3"}], ids=["unknown", "mistyped"])
def test_compile_rejects_a_malformed_job_file(tmp_path, change):
    (tmp_path / "job.json").write_text(json.dumps({**JOB, **change}))
    args = ["compile", "--job", str(tmp_path / "job.json"), "--out", str(tmp_path / "build")]
    assert main(args) == EXIT_REJECTED


@pytest.fixture(scope="module")
def packaged_job(tmp_path_factory):
    root = tmp_path_factory.mktemp("packaged")
    compile_and_package(root)
    return root


@pytest.mark.parametrize(
    "file, field, value",
    [
        ("pkg-alpha/package.json", "keyshare", None),
        ("room-alpha/cleanroom.json", "session_private", "not hex"),
    ],
)
def test_run_rejects_a_damaged_package_or_clean_room(packaged_job, tmp_path, file, field, value):
    root = tmp_path / "job"
    shutil.copytree(packaged_job, root)
    d = json.loads((root / file).read_text())
    if value is None:
        del d[field]
    else:
        d[field] = value
    (root / file).write_text(json.dumps(d))
    assert main(run_args(root, tmp_path / "run")) == EXIT_REJECTED
