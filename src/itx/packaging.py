"""Party-side packaging: encrypt job inputs before anything leaves the
party's machine.

Each input stream gets a fresh random AES-256-GCM key.  The ciphertext
frames travel with the job; the keys stay with the party and are only
wrapped to a device after that device's attestation report has been
verified.  Code streams are encrypted per tile (the counter block carries
the tile id), data streams as one frame sequence.

What leaves the clean room is a ``StreamPackage`` (ciphertext, certificate,
a signed fresh keyshare); what stays is a ``CleanRoom`` (the stream keys and
the keyshare's private half).  Both serialize to directories so they can be
shipped and reloaded by the command-line tools.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import crypto
from .certs import Certificate
from .encoding import Record, decode
from .errors import InvalidEncoding, InvalidFrame, KeyExchangeFailure
from .frame_codec import (
    Frame,
    StreamIV,
    StreamType,
    decode_stream_file,
    encode_stream_file,
    encrypt_stream,
    payload_capacity,
)
from .manifest import CODE, DIR_IN, JobManifest
from .pki import PartyIdentity, PartySession


@dataclass
class EncryptedStream:
    stream_id: int
    frames: list[Frame]
    # For code streams the frame list is the concatenation of per-tile
    # sequences; ``tile_spans`` maps tile id -> (first frame, count).
    tile_spans: dict[int, tuple[int, int]] = field(default_factory=dict)


@dataclass
class JobInputs:
    """What a party contributes: ciphertext to ship, keys to keep."""

    party: str
    streams: dict[int, EncryptedStream]
    keys: dict[int, bytes]


def _pad(data: bytes, size: int) -> bytes:
    if len(data) % size:
        data = data + b"\x00" * (size - len(data) % size)
    return data


def encrypt_code_stream(
    key: bytes, manifest: JobManifest, binaries: dict[int, bytes]
) -> EncryptedStream:
    entry = manifest.stream_of_kind(CODE)
    payload = payload_capacity(entry.frame_total_size)
    frames: list[Frame] = []
    spans: dict[int, tuple[int, int]] = {}
    for layout in manifest.tile_layouts:
        binary = binaries[layout.tile_id]
        if len(binary) != layout.binary_length:
            raise InvalidFrame(
                f"tile {layout.tile_id}: binary is {len(binary)} bytes, "
                f"layout says {layout.binary_length}"
            )
        padded = _pad(binary, payload)
        if len(padded) != layout.code_frames * payload:
            raise InvalidFrame(f"tile {layout.tile_id}: code frame count mismatch")
        template = StreamIV(
            stream_type=StreamType.CODE,
            ipu_id=manifest.ipu_id,
            tile_id=layout.tile_id,
        )
        tile_frames = encrypt_stream(key, template, padded, entry.frame_total_size)
        spans[layout.tile_id] = (len(frames), len(tile_frames))
        frames.extend(tile_frames)
    return EncryptedStream(entry.stream_id, frames, spans)


def encrypt_data_stream(key: bytes, stream_id: int, frame_total_size: int, plaintext: bytes) -> EncryptedStream:
    payload = payload_capacity(frame_total_size)
    template = StreamIV(stream_type=StreamType.DATA, stream_id=stream_id)
    frames = encrypt_stream(key, template, _pad(plaintext, payload), frame_total_size)
    return EncryptedStream(stream_id, frames)


def package_inputs(
    party: str,
    manifest: JobManifest,
    binaries: dict[int, bytes] | None = None,
    data: dict[int, bytes] | None = None,
    rng=os.urandom,
) -> JobInputs:
    """Encrypt every input stream the manifest assigns to ``party``."""
    data = data or {}
    streams: dict[int, EncryptedStream] = {}
    keys: dict[int, bytes] = {}
    for sid, entry in sorted(manifest.stream_table.items()):
        if entry.direction != DIR_IN or entry.party != party:
            continue
        key = rng(32)
        keys[sid] = key
        if entry.kind == CODE:
            if binaries is None:
                raise KeyExchangeFailure(f"{party} owns the code stream but gave no binaries")
            streams[sid] = encrypt_code_stream(key, manifest, binaries)
        else:
            if sid not in data:
                raise KeyExchangeFailure(f"{party} owns stream {sid} but supplied no data for it")
            plaintext = data[sid]
            if len(plaintext) != entry.plaintext_length:
                raise KeyExchangeFailure(
                    f"stream {sid}: expected {entry.plaintext_length} plaintext bytes, "
                    f"got {len(plaintext)}"
                )
            streams[sid] = encrypt_data_stream(key, sid, entry.frame_total_size, plaintext)
    return JobInputs(party=party, streams=streams, keys=keys)


# ---------------------------------------------------------------------------
# package / clean-room split
# ---------------------------------------------------------------------------


@dataclass
class StreamPackage:
    """The shippable artifact: ciphertext plus the party's signed keyshare."""

    party: str
    certificate: Certificate
    keyshare: bytes
    share_signature: bytes
    manifest_measurement: str
    streams: dict[int, EncryptedStream]


@dataclass
class CleanRoom(Record):
    """The secrets that never leave the party: stream keys and the private
    half of the packaged keyshare."""

    party: str
    keys: dict[int, bytes]
    session_private: bytes
    keyshare: bytes
    share_signature: bytes

    def session(self) -> PartySession:
        return PartySession(
            crypto.x25519_from_private_bytes(self.session_private),
            self.keyshare,
            self.share_signature,
        )

    def job_inputs(self, package: StreamPackage) -> JobInputs:
        return JobInputs(party=self.party, streams=package.streams, keys=dict(self.keys))


def _package(
    identity: PartyIdentity,
    manifest: JobManifest,
    binaries: dict[int, bytes] | None,
    data: dict[int, bytes] | None,
) -> tuple[StreamPackage, CleanRoom]:
    inputs = package_inputs(identity.name, manifest, binaries=binaries, data=data)
    session = identity.new_session()
    package = StreamPackage(
        party=identity.name,
        certificate=identity.certificate,
        keyshare=session.public,
        share_signature=session.signature,
        manifest_measurement=manifest.measurement(),
        streams=inputs.streams,
    )
    room = CleanRoom(
        party=identity.name,
        keys=inputs.keys,
        session_private=crypto.x25519_private_bytes(session.private),
        keyshare=session.public,
        share_signature=session.signature,
    )
    return package, room


def package_model(
    binaries: dict[int, bytes],
    manifest: JobManifest,
    identity: PartyIdentity,
    data: dict[int, bytes] | None = None,
) -> tuple[StreamPackage, CleanRoom]:
    """Encrypt a model owner's contribution (code plus any data streams)."""
    return _package(identity, manifest, binaries, data)


def package_data(
    data: dict[int, bytes],
    manifest: JobManifest,
    identity: PartyIdentity,
) -> tuple[StreamPackage, CleanRoom]:
    """Encrypt a data owner's input streams."""
    return _package(identity, manifest, None, data)


# ---------------------------------------------------------------------------
# directory serialization
# ---------------------------------------------------------------------------


def save_package(package: StreamPackage, manifest: JobManifest, path: str | Path) -> None:
    root = Path(path)
    (root / "streams").mkdir(parents=True, exist_ok=True)
    stream_files: dict[str, dict] = {}
    for sid, enc in sorted(package.streams.items()):
        entry = manifest.stream_table[sid]
        if entry.kind == CODE:
            files = []
            for layout in manifest.tile_layouts:
                first, count = enc.tile_spans[layout.tile_id]
                template = StreamIV(
                    stream_type=StreamType.CODE,
                    ipu_id=manifest.ipu_id,
                    tile_id=layout.tile_id,
                )
                name = f"s{sid:03d}_t{layout.tile_id:03d}.stream"
                (root / "streams" / name).write_bytes(
                    encode_stream_file(
                        template,
                        entry.frame_total_size,
                        layout.binary_length,
                        enc.frames[first : first + count],
                    )
                )
                files.append({"tile": layout.tile_id, "file": name, "first": first, "count": count})
            stream_files[str(sid)] = {"kind": CODE, "files": files}
        else:
            template = StreamIV(stream_type=StreamType.DATA, stream_id=sid)
            name = f"s{sid:03d}.stream"
            (root / "streams" / name).write_bytes(
                encode_stream_file(
                    template, entry.frame_total_size, entry.plaintext_length, enc.frames
                )
            )
            stream_files[str(sid)] = {"kind": entry.kind, "file": name}
    meta = {
        "party": package.party,
        "certificate": package.certificate.to_dict(),
        "keyshare": package.keyshare.hex(),
        "share_signature": package.share_signature.hex(),
        "manifest_measurement": package.manifest_measurement,
        "streams": stream_files,
    }
    (root / "package.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_package(path: str | Path) -> StreamPackage:
    """Read a package directory; a malformed ``package.json`` (a missing
    field, bad hex, a non-integer stream id) raises ``InvalidEncoding``."""
    root = Path(path)
    try:
        meta = json.loads((root / "package.json").read_text())
        streams: dict[int, EncryptedStream] = {}
        for sid_text, desc in meta["streams"].items():
            sid = int(sid_text)
            if desc["kind"] == CODE:
                frames: list[Frame] = []
                spans: dict[int, tuple[int, int]] = {}
                for entry in desc["files"]:
                    _, _, _, tile_frames = decode_stream_file(
                        (root / "streams" / entry["file"]).read_bytes()
                    )
                    spans[entry["tile"]] = (len(frames), len(tile_frames))
                    frames.extend(tile_frames)
                streams[sid] = EncryptedStream(sid, frames, spans)
            else:
                _, _, _, frames = decode_stream_file(
                    (root / "streams" / desc["file"]).read_bytes()
                )
                streams[sid] = EncryptedStream(sid, list(frames))
        return StreamPackage(
            party=meta["party"],
            certificate=Certificate.from_dict(meta["certificate"]),
            keyshare=decode(bytes, meta["keyshare"]),
            share_signature=decode(bytes, meta["share_signature"]),
            manifest_measurement=meta["manifest_measurement"],
            streams=streams,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidEncoding(f"{root / 'package.json'}: {exc!r}") from None


def save_clean_room(room: CleanRoom, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "cleanroom.json").write_text(json.dumps(room.to_dict(), indent=2, sort_keys=True) + "\n")


def load_clean_room(path: str | Path) -> CleanRoom:
    return CleanRoom.from_dict(json.loads((Path(path) / "cleanroom.json").read_text()))
