"""The offline CLI workflow end to end: compile, package, run, verify, and
recover the model, on a 2-step SGD job."""

import hashlib
import json
import random
import shutil
import struct

import pytest

from itx.adversary import TamperFrame
from itx.cli import EXIT_OK, EXIT_REJECTED, _archive_run, main
from itx.errors import InvalidFrame, InvalidFrameSize
from itx.manifest import JobManifest
from itx.packaging import load_clean_room, load_package
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


PARTIES = ("modelco", "alpha", "beta")


def run_args(root, run) -> list[str]:
    args = ["run", "--build", str(root / "build"), "--out", str(run)]
    for party in PARTIES:
        args += ["--package", str(root / f"pkg-{party}"), "--clean-room", str(root / f"room-{party}")]
    return args


def party_args(command, run, *extra) -> list[str]:
    """``itx party COMMAND`` over the evidence files a run directory holds."""
    args = ["party", command]
    for name in ("report", "chain", "ca", "tcb", "expected"):
        args += [f"--{name}", str(run / f"{name}.json")]
    return args + list(extra)


def decrypt_args(root, run, out) -> list[str]:
    args = ["decrypt-model", "--run", str(run), "--out", str(out)]
    for party in PARTIES:
        args += ["--clean-room", str(root / f"room-{party}")]
    return args


def clear_model(root, plaintexts) -> bytes:
    build = root / "build"
    manifest = JobManifest.from_dict(json.loads((build / "manifest.json").read_text()))
    binaries = {int(f.stem[1:]): f.read_bytes() for f in (build / "binaries").glob("t*.bin")}
    return run_clear_reference(manifest, binaries, plaintexts)


def test_sgd_job_from_compile_to_model(tmp_path, capsys):
    plaintexts = compile_and_package(tmp_path)
    build, run = tmp_path / "build", tmp_path / "run"
    assert main(run_args(tmp_path, run)) == EXIT_OK
    assert main(party_args("verify", run)) == EXIT_OK
    model = tmp_path / "model.bin"
    assert main(decrypt_args(tmp_path, run, model)) == EXIT_OK

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
    assert main(party_args("verify", run)) == EXIT_REJECTED


@pytest.fixture(scope="module")
def archived_run(tmp_path_factory):
    """A completed 2-step SGD run, archived the way ``itx run`` does."""
    fixture = make_sgd_fixture(steps=2)
    result = fixture.session.run()
    assert result.completed, result.reason
    run = tmp_path_factory.mktemp("archived") / "run"
    _archive_run(run, fixture.session, result)
    return run


def damage(path, field, value) -> None:
    """Delete ``field`` of the JSON object in ``path`` (``value`` None), set
    it to ``value``, or (``field`` None) replace the whole file by ``value``."""
    if field is None:
        d = value
    else:
        d = json.loads(path.read_text())
        if value is None:
            del d[field]
        else:
            d[field] = value
    path.write_text(json.dumps(d))


@pytest.mark.parametrize(
    "file, field, value",
    [
        ("ca.json", "cik_ca", None),
        ("ca.json", "cik_ca", "not hex"),
        ("expected.json", "party_fingerprints", None),
        ("expected.json", "manifest_measurement", "not hex"),
        ("expected.json", "epoch", None),
        ("expected.json", "checkpoint_id", None),
        ("ca.json", "revoked_certs", None),
        ("ca.json", "revoked_tcb", None),
        pytest.param("chain.json", None, [], id="chain.json-a-list"),
        pytest.param("tcb.json", None, 5, id="tcb.json-a-number"),
    ],
)
def test_verify_rejects_a_damaged_ca_or_expectation_file(archived_run, tmp_path, file, field, value):
    run = tmp_path / "run"
    shutil.copytree(archived_run, run)
    assert main(party_args("verify", run)) == EXIT_OK
    damage(run / file, field, value)
    assert main(party_args("verify", run)) == EXIT_REJECTED


@pytest.mark.parametrize(
    "field, value",
    [
        ("stream_assignment", {"model_receivers": ["modelco"]}),
        ("bootloader_measurement", "22" * 32),
        ("run_attributes_digest", "66" * 32),
    ],
)
def test_verify_rejects_a_report_that_restates_a_manifest_fact(archived_run, tmp_path, capsys, field, value):
    """A report of the older form, with a field the manifest measurement
    already covers or a digest of its own fields, is malformed."""
    run = tmp_path / "run"
    shutil.copytree(archived_run, run)
    damage(run / "report.json", field, value)
    capsys.readouterr()
    assert main(party_args("verify", run)) == EXIT_REJECTED
    assert f"unknown fields ['{field}']" in capsys.readouterr().err


def test_inspect_describes_an_archived_report(archived_run, capsys):
    report = json.loads((archived_run / "report.json").read_text())
    capsys.readouterr()
    assert main(["ccu", "inspect", str(archived_run / "report.json")]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "attestation report"
    for key in ("manifest_measurement", "register_measurement", "epoch", "checkpoint_id", "ccu_keyshare"):
        assert f"  {key}: {report[key]}" in out
    assert [line for line in out if "party fingerprint" in line] == [
        f"  party fingerprint: {fp}" for fp in report["party_fingerprints"]
    ]
    assert f"  signature: {report['signature'][:32]}…" in out


def test_inspect_of_a_report_missing_a_field_is_one_error_line(tmp_path, capsys):
    (tmp_path / "partial.json").write_text(json.dumps({"ccu_keyshare": "00"}))
    assert main(["ccu", "inspect", str(tmp_path / "partial.json")]) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "missing field" in err[0], err


@pytest.mark.parametrize(
    "document, detail",
    [
        ({"new_measurement": "00"}, "missing field 'component'"),
        ({"cik_ca": "00", "firmware_ca": "00", "revoked_certs": [], "revoked_tcb": []}, "'pik_ca'"),
    ],
    ids=["tcb-certificate", "ca-roots"],
)
def test_inspect_of_another_document_missing_a_field_is_one_error_line(tmp_path, capsys, document, detail):
    (tmp_path / "partial.json").write_text(json.dumps(document))
    assert main(["ccu", "inspect", str(tmp_path / "partial.json")]) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and detail in err[0], err


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
        ("room-alpha/identity.json", "signing_seed", None),
        ("room-alpha/identity.json", "signing_seed", "not hex"),
        pytest.param("room-alpha/identity.json", "signing_seed", "00" * 31, id="identity-31-byte-seed"),
        pytest.param("room-alpha/cleanroom.json", "session_private", "00" * 31, id="cleanroom-31-byte-session-key"),
    ],
)
def test_run_rejects_a_damaged_package_or_clean_room(packaged_job, tmp_path, file, field, value):
    root = tmp_path / "job"
    shutil.copytree(packaged_job, root)
    damage(root / file, field, value)
    assert main(run_args(root, tmp_path / "run")) == EXIT_REJECTED


def short_frame(frames):
    return [frames[0][:-2]] + frames[1:]  # 127 bytes


def counter_area(frames):
    return [frames[0][:26] + "01" + frames[0][28:]] + frames[1:]  # IV block byte 13


@pytest.mark.parametrize(
    "change, error",
    [(short_frame, InvalidFrameSize), (counter_area, InvalidFrame), (lambda frames: [], InvalidFrame)],
    ids=["127-byte-frame", "nonzero-counter-area", "no-frames"],
)
def test_run_rejects_a_package_with_a_malformed_frame(packaged_job, tmp_path, change, error):
    """``package.json`` decodes as a record, then every frame must parse as a
    wire frame; each stream needs at least one."""
    root = tmp_path / "job"
    shutil.copytree(packaged_job, root)
    file = root / "pkg-alpha" / "package.json"
    d = json.loads(file.read_text())
    d["streams"]["3"] = change(d["streams"]["3"])
    file.write_text(json.dumps(d))
    with pytest.raises(error):
        load_package(root / "pkg-alpha")
    assert main(run_args(root, tmp_path / "run")) == EXIT_REJECTED


def package_data_args(root, out, data) -> list[str]:
    return [
        "package-data", "--build", str(root / "build"), "--party", "alpha", "--data", data,
        "--package", str(out / "pkg-alpha"), "--clean-room", str(out / "room-alpha"),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        lambda root, out: package_data_args(root, out, f"three={root / 's3.bin'}"),
        lambda root, out: package_data_args(root, out, str(root / "s3.bin")),
        lambda root, out: run_args(root, out / "run") + ["--resume", "1,x"],
        lambda root, out: run_args(root, out / "run") + ["--resume", "1"],
    ],
    ids=["data-id-not-an-integer", "data-without-equals", "resume-not-an-integer", "resume-without-comma"],
)
def test_a_malformed_split_option_is_rejected(packaged_job, tmp_path, capsys, argv):
    """``--data SID=FILE`` and ``--resume EPOCH,CKPT`` are split by the CLI
    itself; a bad part exits rejected with one error line, writing nothing."""
    assert main(argv(packaged_job, tmp_path)) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "change, message",
    [(short_frame, "frame size 127"), (counter_area, "counter area must be zero")],
    ids=["127-byte-frame", "nonzero-counter-area"],
)
def test_decrypt_model_rejects_a_malformed_output_frame(completed_run, tmp_path, capsys, change, message):
    """The open path makes the one structural frame check on ``output.json``."""
    run = tmp_path / "run"
    shutil.copytree(completed_run / "run", run)
    frames = json.loads((run / "output.json").read_text())
    (run / "output.json").write_text(json.dumps(change(frames)))
    model = tmp_path / "model.bin"
    capsys.readouterr()
    assert main(decrypt_args(completed_run, run, model)) == EXIT_REJECTED
    assert message in capsys.readouterr().err
    assert not model.exists()


def secrets_in(run, secrets) -> list[tuple[str, bytes]]:
    """(file name, secret) for each secret that a file under ``run`` holds
    raw, as hex or as the hex SHA-256 digest of it."""
    found = []
    for file in (f for f in run.rglob("*") if f.is_file()):
        blob = file.read_bytes()
        found += [
            (file.name, secret)
            for secret in secrets
            for form in (secret, secret.hex().encode(), hashlib.sha256(secret).hexdigest().encode())
            if form in blob
        ]
    return found


def test_the_run_directory_cannot_decrypt_the_model(tmp_path):
    """``itx run`` leaves each party's run nonce in its own clean room: no
    file of the run directory holds one or a stream key, and without the
    clean rooms ``decrypt-model`` cannot recover the model.  The archive of
    a run that aborts on a tampered frame holds none of its secrets either."""
    plaintexts = compile_and_package(tmp_path)
    run = tmp_path / "run"
    assert main(run_args(tmp_path, run)) == EXIT_OK
    nonces = [(tmp_path / f"room-{party}" / "run_nonce.bin").read_bytes() for party in PARTIES]
    assert len(set(nonces)) == len(PARTIES)
    keys = [key for party in PARTIES for key in load_clean_room(tmp_path / f"room-{party}").keys.values()]
    assert len(set(keys)) == 4  # code, weights and one gradient stream per data party
    assert secrets_in(run, nonces + keys) == []

    fixture = make_sgd_fixture(steps=2, adversary=TamperFrame(3, 2, 800))
    result = fixture.session.run()
    assert result.aborted
    aborted = tmp_path / "aborted"
    _archive_run(aborted, fixture.session, result)
    assert result.reason in (aborted / "events.log").read_text()
    released = [party.run_nonce for party in fixture.session.parties.values()]
    assert None not in released
    keys = [key for inputs in fixture.inputs.values() for key in inputs.keys.values()]
    assert secrets_in(aborted, released + keys) == []

    model = tmp_path / "model.bin"
    away = tmp_path / "away"
    away.mkdir()
    for party in PARTIES:
        shutil.move(tmp_path / f"room-{party}", away / f"room-{party}")
    assert main(decrypt_args(tmp_path, run, model)) == EXIT_REJECTED
    assert not model.exists()
    for party in PARTIES:
        shutil.move(away / f"room-{party}", tmp_path / f"room-{party}")
    assert main(decrypt_args(tmp_path, run, model)) == EXIT_OK
    assert model.read_bytes() == clear_model(tmp_path, plaintexts)


def test_a_resumed_run_decrypts_to_the_clear_reference(tmp_path):
    plaintexts = compile_and_package(tmp_path)
    run = tmp_path / "run"
    assert main(run_args(tmp_path, run) + ["--resume", "1,0"]) == EXIT_OK
    model = tmp_path / "model.bin"
    assert main(decrypt_args(tmp_path, run, model)) == EXIT_OK
    assert model.read_bytes() == clear_model(tmp_path, plaintexts)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """A packaged job and the run directory of its completed ``itx run``."""
    root = tmp_path_factory.mktemp("completed")
    compile_and_package(root)
    assert main(run_args(root, root / "run")) == EXIT_OK
    return root


def test_party_release_keys_wraps_keys_for_an_accepted_report(completed_run, tmp_path):
    blob = tmp_path / "alpha.wrapped"
    room = completed_run / "room-alpha"
    args = party_args("release-keys", completed_run / "run", "--clean-room", str(room), "--out", str(blob))
    assert main(args) == EXIT_OK
    assert len(blob.read_bytes()) > 12


def test_party_release_keys_refuses_another_manifest(completed_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(completed_run / "run", run)
    expected = json.loads((run / "expected.json").read_text())
    expected["manifest_measurement"] = "00" * 32
    (run / "expected.json").write_text(json.dumps(expected))
    blob = tmp_path / "alpha.wrapped"
    room = completed_run / "room-alpha"
    args = party_args("release-keys", run, "--clean-room", str(room), "--out", str(blob))
    assert main(args) == EXIT_REJECTED
    assert not blob.exists()


@pytest.mark.parametrize(
    "script",
    [
        json.dumps([{"action": "no_such_action"}]),
        json.dumps({"steps": []}),
        json.dumps([{"action": "tamper_frame"}]),
        '[{"action": ',
    ],
    ids=["unknown-action", "no-actions-list", "missing-parameters", "not-json"],
)
def test_run_rejects_a_malformed_adversary_script(packaged_job, tmp_path, script):
    (tmp_path / "adversary.json").write_text(script)
    args = run_args(packaged_job, tmp_path / "run") + ["--adversary", str(tmp_path / "adversary.json")]
    assert main(args) == EXIT_REJECTED


def test_package_data_refuses_a_stream_the_party_does_not_own(packaged_job, tmp_path, capsys):
    """Alpha's own stream is given too, so only the stray one can fail."""
    args = package_data_args(packaged_job, tmp_path, f"3={packaged_job / 's3.bin'}")
    assert main(args + ["--data", f"99={packaged_job / 's3.bin'}"]) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "[99]" in err[0], err
    assert not list(tmp_path.iterdir())


def run_on_manifest(root, out, blob):
    shutil.copytree(root, out / "job")
    (out / "job" / "build" / "manifest.json").write_bytes(blob)
    return run_args(out / "job", out / "run")


def verify_on_report(run, out, blob):
    shutil.copytree(run, out / "run")
    (out / "run" / "report.json").write_bytes(blob)
    return party_args("verify", out / "run")


def inspect_file(_, out, blob):
    (out / "deep.json").write_bytes(blob)
    return ["ccu", "inspect", str(out / "deep.json")]


@pytest.mark.parametrize(
    "source, argv, blob",
    [
        ("packaged_job", run_on_manifest, b"\xff\xfe{bad"),
        ("archived_run", verify_on_report, b'{"epoch": "\xe9"}'),
        ("archived_run", inspect_file, b"[" * 100_000),
    ],
    ids=["run-manifest-utf16-garbage", "verify-report-not-utf8", "inspect-nested-too-deep"],
)
def test_a_file_that_is_not_json_is_one_error_line(request, tmp_path, capsys, source, argv, blob):
    """Bytes that are not JSON (bad UTF-8, bad syntax, nesting too deep for
    the parser) exit rejected with one error line, never a traceback."""
    args = argv(request.getfixturevalue(source), tmp_path, blob)
    capsys.readouterr()
    assert main(args) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def package_model_args(root, out) -> list[str]:
    return [
        "package-model", "--build", str(root / "build"), "--party", "modelco",
        "--data", f"2={root / 's2.bin'}",
        "--package", str(out / "pkg-modelco"), "--clean-room", str(out / "room-modelco"),
    ]


def test_package_model_reads_the_binaries_the_manifest_lays_out(packaged_job, tmp_path, capsys):
    """A stray file among the binaries is not a tile's and is ignored; a
    missing tile binary is one error line."""
    root = tmp_path / "job"
    shutil.copytree(packaged_job, root)
    (root / "build" / "binaries" / "txyz.bin").write_bytes(b"stray")
    assert main(package_model_args(root, tmp_path / "with-stray")) == EXIT_OK
    manifest = JobManifest.from_bytes((root / "build" / "manifest.json").read_bytes())
    code = load_package(tmp_path / "with-stray" / "pkg-modelco").streams[1]
    assert len(code) == sum(layout.code_frames for layout in manifest.tile_layouts)
    (root / "build" / "binaries" / "t005.bin").unlink()
    capsys.readouterr()
    assert main(package_model_args(root, tmp_path / "missing")) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "t005.bin" in err[0], err


def test_a_directory_given_as_an_input_file_is_one_error_line(packaged_job, tmp_path, capsys):
    """Any file the CLI cannot read (missing, a directory, unreadable) is one
    error line, like a file it cannot parse."""
    assert main(package_data_args(packaged_job, tmp_path, f"3={tmp_path}")) == EXIT_REJECTED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
