"""Command-line front end for the offline confidential-job workflow.

The subcommands mirror the life of a job:

* ``itx compile``        — job description -> manifest + tile binaries
* ``itx package-model``  — model owner encrypts code (and parameters)
* ``itx package-data``   — data owner encrypts input streams
* ``itx run``            — untrusted host attests, collects keys, executes
* ``itx decrypt-model``  — recover the model from the clean rooms' run nonces
* ``itx ccu inspect``    — pretty-print archived reports and certificates
* ``itx pki issue``      — provision a device, emit its certificate chain
* ``itx pki tcb-update`` — ship new firmware, emit the TCB update certificate
* ``itx party verify``   — a party verifies attestation evidence from files
* ``itx party release-keys`` — the same, then wraps its keys on an accept

Packages, clean rooms and the run's output are codec JSON; there are no
binary stream files.  A package or clean room is a directory holding one
record (``package.json``, ``cleanroom.json``); a package's streams, like the
run's ``output.json``, are lists of hex wire frames.  Reports, certificates,
manifests and expectations are JSON files in the same field layout.  ``itx
run`` makes each clean room a ``pki.Party`` that offers its packaged keyshare
first; the host session gets the packages' ciphertext and no key.  A
completed run leaves each party's run nonce in that party's clean room, never
in the run directory.  Adversary scripts are JSON lists of ``{"action": ...,
parameters}`` objects (see ``itx run --help``).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from .adversary import ACTIONS, from_script
from .attestation import AttestationReport
from .certs import Certificate
from .compiler import JobDescription, compile_job
from .encoding import decode, parse_json
from .errors import InvalidEncoding, ItxError
from .manifest import JobManifest
from .packaging import load_clean_room, load_package, make_package, save_clean_room, save_package, write_json
from .pki import Party, PartyIdentity, TcbUpdateCertificate, verify_attestation
from .runtime import TrustedJobSession, decrypt_model
from .sandbox import _make_session, make_deployment, tile_bootloader_image, update_firmware

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_HALTED = 2


# ---------------------------------------------------------------------------
# small file helpers
# ---------------------------------------------------------------------------


def _read_json(path: Path):
    return parse_json(Path(path).read_bytes())


def _load_ca(d: dict) -> dict:
    """The CA keys as the verifier takes them; malformed ones raise ``InvalidEncoding``."""
    try:
        return {
            "cik_ca": bytes.fromhex(d["cik_ca"]),
            "pik_ca": bytes.fromhex(d["pik_ca"]),
            "firmware_ca": bytes.fromhex(d["firmware_ca"]),
            "revoked_certs": list(d["revoked_certs"]),
            "revoked_tcb": [tuple(x) for x in d["revoked_tcb"]],
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidEncoding(f"CA keys: {exc!r}") from None


def _int(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidEncoding(f"{option} wants an integer, got {text!r}") from None


def _parse_data_args(pairs: list[str]) -> dict[int, bytes]:
    data: dict[int, bytes] = {}
    for pair in pairs:
        sid_text, _, file = pair.partition("=")
        if not file:
            raise InvalidEncoding(f"--data wants STREAM_ID=FILE, got {pair!r}")
        data[_int(sid_text, "--data")] = Path(file).read_bytes()
    return data


def _parse_resume(text: str) -> tuple[int, int]:
    epoch, sep, ckpt = text.partition(",")
    if not sep:
        raise InvalidEncoding(f"--resume wants EPOCH,CKPT, got {text!r}")
    return _int(epoch, "--resume"), _int(ckpt, "--resume")


def _load_manifest(build: Path) -> JobManifest:
    return JobManifest.from_bytes((build / "manifest.json").read_bytes())


def _load_identity(clean_room) -> PartyIdentity:
    return PartyIdentity.from_dict(_read_json(Path(clean_room) / "identity.json"))


def _load_binaries(build: Path, manifest: JobManifest) -> dict[int, bytes]:
    """The binary of every tile the manifest lays out; other files are ignored."""
    return {
        layout.tile_id: (build / "binaries" / f"t{layout.tile_id:03d}.bin").read_bytes()
        for layout in manifest.tile_layouts
    }


# ---------------------------------------------------------------------------
# compile / package
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    desc = _read_json(Path(args.job))
    job = JobDescription.from_dict(desc)
    measurement = hashlib.sha256(tile_bootloader_image(args.firmware_revision)).hexdigest()
    compiled = compile_job(job, bootloader_measurement=measurement, ipu_id=args.ipu_id)
    out = Path(args.out)
    (out / "binaries").mkdir(parents=True, exist_ok=True)
    write_json(out / "job.json", desc)
    write_json(out / "manifest.json", compiled.manifest.to_dict())
    write_json(out / "streams.json", compiled.key_streams)
    for tile_id, binary in sorted(compiled.binaries.items()):
        (out / "binaries" / f"t{tile_id:03d}.bin").write_bytes(binary)
    manifest = compiled.manifest
    print(f"compiled {job.kind}: {len(manifest.stream_table)} streams, {len(manifest.plans)} barrier "
          f"plans over {len(manifest.schedule)} barriers, {len(compiled.binaries)} tile binaries")
    print(f"manifest measurement {manifest.measurement()}")
    for party, sids in sorted(compiled.key_streams.items()):
        kinds = ", ".join(
            f"{sid}:{manifest.stream_table[sid].kind}" for sid in sids
        )
        print(f"  {party} supplies streams {kinds}")
    return EXIT_OK


def cmd_package(args) -> int:
    build = Path(args.build)
    manifest = _load_manifest(build)
    data = _parse_data_args(args.data or [])
    binaries = _load_binaries(build, manifest) if args.model else None
    identity = PartyIdentity(args.party)
    package, room = make_package(identity, manifest, binaries, data)
    save_package(package, args.package)
    save_clean_room(room, args.clean_room)
    write_json(Path(args.clean_room) / "identity.json", identity.to_dict())
    print(f"party {args.party}: packaged streams {sorted(package.streams)} "
          f"for manifest {package.manifest_measurement[:16]}…")
    print(f"  shippable package: {args.package}")
    print(f"  private clean room: {args.clean_room}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


NONCE_FILE = "run_nonce.bin"  # in a clean room: the party's nonce for its last completed run


def _write_evidence(out: Path, chain: dict, ca: dict, tcb: list) -> None:
    """What a party judges a device by: its certificate chain, the CA's
    public state and the TCB update certificates."""
    write_json(out / "chain.json", {k: c.to_dict() for k, c in chain.items()})
    write_json(out / "ca.json", ca)
    write_json(out / "tcb.json", [c.to_dict() for c in tcb])


def _archive_run(out: Path, session: TrustedJobSession, result) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "events.log").write_text(result.log.dump())
    write_json(out / "manifest.json", session.manifest.to_dict())
    write_json(
        out / "result.json",
        {
            "status": result.status,
            "reason": result.reason,
            "epoch": result.epoch,
            "checkpoint_id": result.checkpoint_id,
            "verdicts": {
                name: {"accepted": v.accepted, "reason": v.reason}
                for name, v in result.verdicts.items()
            },
        },
    )
    if session.last_report is not None:
        write_json(out / "report.json", session.last_report.to_dict())
    _write_evidence(out, session.device_chain, session.ca_public, session.tcb_certs)
    if session.last_expected:
        write_json(out / "expected.json", session.last_expected)
    if result.completed:
        write_json(out / "output.json", result.output_frames)


def cmd_run(args) -> int:
    resume_at = _parse_resume(args.resume) if args.resume else None
    if resume_at is not None and resume_at[0] != 1:
        print("--resume demonstrates a first-epoch interruption; epoch must be 1",
              file=sys.stderr)
        return EXIT_REJECTED
    build = Path(args.build)
    manifest = _load_manifest(build)

    measurement = manifest.measurement()
    packages = {}
    for path in args.package:
        package = load_package(path)
        if package.manifest_measurement != measurement:
            print(f"package {path} was built for a different manifest", file=sys.stderr)
            return EXIT_REJECTED
        packages[package.party] = package
    room_dirs, parties = {}, {}
    for path in args.clean_room:
        room = load_clean_room(path)
        room_dirs[room.party] = Path(path)
        parties[room.party] = Party(_load_identity(path), room.keys, room.session())
    if sorted(packages) != sorted(parties):
        print(f"packages {sorted(packages)} do not match clean rooms {sorted(parties)}",
              file=sys.stderr)
        return EXIT_REJECTED

    adversary = from_script(_read_json(Path(args.adversary))) if args.adversary else None

    deployment = make_deployment(seed=args.seed, ipu_id=manifest.ipu_id)
    streams = {sid: frames for package in packages.values() for sid, frames in package.streams.items()}
    session = _make_session(deployment, manifest, parties, streams, adversary)

    if resume_at is not None:
        result = session.run(halt_after_checkpoint=resume_at[1] + 1)
        if result.status != "halted" or (result.epoch, result.checkpoint_id) != resume_at:
            print(f"job never reached checkpoint {resume_at}: {result.status} ({result.reason})",
                  file=sys.stderr)
            _archive_run(Path(args.out), session, result)
            return EXIT_REJECTED
        print(f"halted after checkpoint (epoch {result.epoch}, id {result.checkpoint_id}); "
              "resetting device and resuming")
        deployment.device.reset("sbr")
        result = session.resume()
    else:
        result = session.run(halt_after_checkpoint=args.halt_after)

    _archive_run(Path(args.out), session, result)
    if result.completed:
        for name, party in parties.items():
            (room_dirs[name] / NONCE_FILE).write_bytes(party.run_nonce)
    for name, verdict in sorted(result.verdicts.items()):
        word = "accepted" if verdict.accepted else f"rejected ({verdict.reason})"
        print(f"party {name} {word}")
    print(f"run {result.status}: {result.reason}")
    print(f"artifacts in {args.out}")
    if result.completed:
        return EXIT_OK
    return EXIT_HALTED if result.status == "halted" else EXIT_REJECTED


# ---------------------------------------------------------------------------
# verification / key release / model recovery
# ---------------------------------------------------------------------------


def _judge(args, party: Party | None = None):
    """Judge the evidence files as a party does and print the verdict; with a
    party, also wrap its keys on an accept.  Returns (verdict, wrapped or None)."""
    report = AttestationReport.from_dict(_read_json(args.report))
    # The evidence files decode as records or through ``_load_ca``; the expected values are a plain dict.
    try:
        chain = decode(dict[str, Certificate], _read_json(args.chain))
        tcb = decode(tuple[TcbUpdateCertificate, ...], _read_json(args.tcb))
        evidence = (chain, _load_ca(_read_json(args.ca)), tcb)
        expected = _read_json(args.expected)
        expected["party_fingerprints"] = tuple(expected["party_fingerprints"])
        if party is None:
            verdict, wrapped = verify_attestation(report, *evidence, expected), None
        else:
            party.offer()  # the packaged share, the one a first attempt is initialised with
            verdict, wrapped = party.release(report, evidence, expected, resume=False)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidEncoding(f"expected values: {exc!r}") from None
    print("Accept: evidence matches expectations" if verdict.accepted else f"Reject: {verdict.reason}")
    return verdict, wrapped


def cmd_party_verify(args) -> int:
    verdict, _ = _judge(args)
    return EXIT_OK if verdict.accepted else EXIT_REJECTED


def cmd_party_release_keys(args) -> int:
    room = load_clean_room(args.clean_room)
    verdict, wrapped = _judge(args, Party(_load_identity(args.clean_room), room.keys, room.session()))
    if not verdict.accepted:
        print("refusing to release keys for rejected evidence", file=sys.stderr)
        return EXIT_REJECTED
    Path(args.out).write_bytes(wrapped)
    print(f"wrapped key package for {room.party}: {len(wrapped)} bytes -> {args.out}")
    return EXIT_OK


def cmd_decrypt_model(args) -> int:
    run_dir = Path(args.run)
    manifest = _load_manifest(run_dir)
    nonces = {
        _load_identity(room).fingerprint: (Path(room) / NONCE_FILE).read_bytes()
        for room in args.clean_room
    }
    frames = decode(tuple[bytes, ...], _read_json(run_dir / "output.json"))
    model = decrypt_model(manifest, frames, nonces)
    Path(args.out).write_bytes(model)
    print(f"recovered model: {len(model)} bytes -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ccu inspect
# ---------------------------------------------------------------------------


def _describe(obj, indent: str = "") -> None:
    if isinstance(obj, dict) and "ccu_keyshare" in obj:
        report = AttestationReport.from_dict(obj).to_dict()  # a malformed report is one error line
        print(f"{indent}attestation report")
        for key in ("manifest_measurement", "register_measurement", "epoch", "checkpoint_id", "ccu_keyshare"):
            print(f"{indent}  {key}: {report[key]}")
        for fp in report["party_fingerprints"]:
            print(f"{indent}  party fingerprint: {fp}")
        print(f"{indent}  signature: {report['signature'][:32]}…")
    elif isinstance(obj, dict) and "subject_public_key" in obj:
        cert = Certificate.from_dict(obj)
        print(f"{indent}certificate issued by {cert.issuer_id}  fingerprint {cert.fingerprint}")
        print(f"{indent}  subject key: {obj['subject_public_key']}")
        for key, value in sorted(cert.extensions.items()):
            print(f"{indent}  {key}: {value}")
    elif isinstance(obj, dict) and "new_measurement" in obj:
        tcb = TcbUpdateCertificate.from_dict(obj)
        print(f"{indent}TCB update certificate for {tcb.component}")
        print(f"{indent}  {tcb.old_measurement} -> {tcb.new_measurement}")
    elif isinstance(obj, dict) and "cik_ca" in obj:
        ca = _load_ca(obj)
        print(f"{indent}certificate-authority roots")
        for key in ("cik_ca", "pik_ca", "firmware_ca"):
            print(f"{indent}  {key}: {ca[key].hex()}")
        print(f"{indent}  revoked certificates: {len(ca['revoked_certs'])}")
        print(f"{indent}  revoked TCB versions: {len(ca['revoked_tcb'])}")
    elif isinstance(obj, dict):
        for name, value in sorted(obj.items()):
            print(f"{indent}{name}:")
            _describe(value, indent + "  ")
    elif isinstance(obj, list):
        for value in obj:
            _describe(value, indent)
    else:
        print(f"{indent}{obj}")


def cmd_ccu_inspect(args) -> int:
    for file in args.files:
        print(f"== {file}")
        _describe(_read_json(Path(file)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pki demos
# ---------------------------------------------------------------------------


def cmd_pki_issue(args) -> int:
    deployment = make_deployment(seed=args.seed)
    out = Path(args.out)
    _write_evidence(out, deployment.device_chain, deployment.ca_public(), deployment.tcb_certs())
    chain = deployment.device_chain
    print(f"provisioned device {deployment.flash.device_serial}")
    for name in ("cik", "pik", "ak", "ca_cik"):
        print(f"  {name}: fingerprint {chain[name].fingerprint}")
    print(f"certificates archived in {out}")
    return EXIT_OK


def cmd_pki_tcb_update(args) -> int:
    deployment = make_deployment(seed=args.seed)
    old_pik = deployment.device_chain["pik"].fingerprint
    updated = update_firmware(deployment, args.revision, revoke_old=args.revoke_old)
    out = Path(args.out)
    _write_evidence(out, updated.device_chain, updated.ca_public(), updated.tcb_certs())
    cert = updated.tcb_certs()[-1]
    write_json(out / "update.json", cert.to_dict())
    print(f"firmware update {cert.old_measurement[:16]}… -> {cert.new_measurement[:16]}…")
    print(f"  platform cert rotated: {old_pik[:16]}… -> "
          f"{updated.device_chain['pik'].fingerprint[:16]}…")
    print(f"  card identity kept:    {updated.device_chain['cik'].fingerprint[:16]}…")
    if args.revoke_old:
        print("  previous bootloader version revoked")
    print(f"artifacts in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itx",
        description="offline confidential-job toolchain for the simulated accelerator stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a job description into a build directory")
    p.add_argument("--job", required=True, help="job description JSON file")
    p.add_argument("--out", required=True, help="build directory to create")
    p.add_argument("--ipu-id", type=int, default=0)
    p.add_argument("--firmware-revision", default="1",
                   help="tile bootloader revision the manifest pins")
    p.set_defaults(func=cmd_compile)

    for name, model in (("package-model", True), ("package-data", False)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} inside a clean room")
        p.add_argument("--build", required=True, help="build directory from `itx compile`")
        p.add_argument("--party", required=True, help="party name (must match the manifest)")
        p.add_argument("--data", action="append", metavar="SID=FILE",
                       required=not model, help="plaintext for an owned data stream")
        p.add_argument("--package", required=True, help="output package directory (shippable)")
        p.add_argument("--clean-room", required=True,
                       help="output clean-room directory (stays with the party)")
        p.set_defaults(func=cmd_package, model=model)

    p = sub.add_parser("run", help="execute a job on a freshly provisioned simulated device")
    p.add_argument("--build", required=True)
    p.add_argument("--package", action="append", required=True,
                   help="party package directory (repeat per party)")
    p.add_argument("--clean-room", action="append", required=True,
                   help="party clean-room directory (repeat per party)")
    p.add_argument("--out", required=True, help="run directory for archived artifacts")
    p.add_argument("--seed", type=int, default=0, help="deployment seed")
    p.add_argument("--adversary", help=f"JSON list of actions; known: {', '.join(sorted(ACTIONS))}")
    p.add_argument("--halt-after", type=int,
                   help="halt after this many checkpoint saves (demonstrates interruption)")
    p.add_argument("--resume", metavar="EPOCH,CKPT",
                   help="halt at checkpoint (EPOCH,CKPT), reset the device, and resume")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("decrypt-model", help="recover the model from a completed run")
    p.add_argument("--run", required=True)
    p.add_argument("--clean-room", action="append", required=True,
                   help="clean-room directory holding a party's run nonce (repeat per party)")
    p.add_argument("--out", required=True, help="file for the recovered plaintext model")
    p.set_defaults(func=cmd_decrypt_model)

    ccu = sub.add_parser("ccu", help="control-unit artifact utilities").add_subparsers(
        dest="ccu_command", required=True
    )
    p = ccu.add_parser("inspect", help="pretty-print report/certificate JSON files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_ccu_inspect)

    pki = sub.add_parser("pki", help="manufacturer PKI demonstrations").add_subparsers(
        dest="pki_command", required=True
    )
    p = pki.add_parser("issue", help="provision a device and archive its certificates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pki_issue)
    p = pki.add_parser("tcb-update", help="ship a new bootloader and archive the update cert")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--revision", default="2")
    p.add_argument("--revoke-old", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pki_tcb_update)

    party = sub.add_parser("party", help="file-level party-side operations").add_subparsers(
        dest="party_command", required=True
    )
    p = party.add_parser("verify", help="verify attestation evidence from files")
    for flag in ("--report", "--chain", "--ca", "--tcb", "--expected"):
        p.add_argument(flag, required=True)
    p.set_defaults(func=cmd_party_verify)
    p = party.add_parser("release-keys", help="wrap keys after verifying evidence from files")
    for flag in ("--report", "--chain", "--ca", "--tcb", "--expected", "--clean-room", "--out"):
        p.add_argument(flag, required=True)
    p.set_defaults(func=cmd_party_release_keys)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ItxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
