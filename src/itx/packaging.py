"""Party-side packaging: encrypt job inputs before anything leaves the
party's machine.

Each input stream gets a fresh random AES-256-GCM key.  The ciphertext
frames travel with the job; the keys stay with the party and are only
wrapped to a device after that device's attestation report has been
verified.  Code streams are encrypted per tile (the counter block carries
the tile id), data streams as one frame sequence; either way a stream ships
as a tuple of wire frames, in the order the ring receives them.

What leaves the clean room is a ``StreamPackage`` (ciphertext, certificate,
a signed fresh keyshare); what stays is a ``CleanRoom`` (the stream keys and
the keyshare's private half).  ``make_package`` builds both in one call, for
the model owner and data owners alike.  Both are records, saved as one codec
JSON file in a directory (``package.json``, ``cleanroom.json``) so they can
be shipped and reloaded by the command-line tools.  A clean room runs as a
``pki.Party``, which offers the packaged keyshare to a job's first attempt.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from . import crypto
from .certs import Certificate
from .encoding import Record, jsonable
from .errors import InvalidEncoding, InvalidFrame, KeyExchangeFailure
from .frame_codec import StreamIV, StreamType, check_frame, encrypt_stream, payload_capacity
from .manifest import CODE, DIR_IN, JobManifest, frame_count
from .pki import PartyIdentity, PartySession


@dataclass
class JobInputs:
    """What a party contributes: ciphertext to ship, keys to keep."""

    party: str
    streams: dict[int, tuple[bytes, ...]]  # stream id -> wire frames, in ring order
    keys: dict[int, bytes]


def encrypt_code_stream(
    key: bytes, manifest: JobManifest, binaries: dict[int, bytes]
) -> tuple[bytes, ...]:
    """Encrypt each tile's binary under its tile-bound IVs.  The frames come
    in layout order, which is their order in the code region: the compiler
    lays ``code_offset`` out cumulatively in that order."""
    payload = payload_capacity(manifest.frame_size)
    frames: list[bytes] = []
    for layout in manifest.tile_layouts:
        binary = binaries[layout.tile_id]
        if len(binary) != layout.binary_length:
            raise InvalidFrame(
                f"tile {layout.tile_id}: binary is {len(binary)} bytes, "
                f"layout says {layout.binary_length}"
            )
        if frame_count(len(binary), payload) != layout.code_frames:
            raise InvalidFrame(f"tile {layout.tile_id}: code frame count mismatch")
        template = StreamIV(StreamType.CODE, ipu_id=manifest.ipu_id, tile_id=layout.tile_id)
        frames += encrypt_stream(key, template, binary, manifest.frame_size)
    return tuple(frames)


def encrypt_data_stream(key: bytes, stream_id: int, frame_total_size: int, plaintext: bytes) -> tuple[bytes, ...]:
    template = StreamIV(stream_type=StreamType.DATA, stream_id=stream_id)
    return tuple(encrypt_stream(key, template, plaintext, frame_total_size))


def package_inputs(
    party: str,
    manifest: JobManifest,
    binaries: dict[int, bytes] | None = None,
    data: dict[int, bytes] | None = None,
) -> JobInputs:
    """Encrypt every input stream the manifest assigns to ``party``; refuse
    inputs for any other stream rather than drop them."""
    data = data or {}
    owned = {sid: entry for sid, entry in sorted(manifest.stream_table.items())
             if entry.direction == DIR_IN and entry.party == party}
    stray = sorted(set(data) - set(owned))
    if stray:
        raise KeyExchangeFailure(f"{party} does not own input streams {stray}")
    if binaries is not None and not any(entry.kind == CODE for entry in owned.values()):
        raise KeyExchangeFailure(f"{party} gave binaries but does not own the code stream")
    streams: dict[int, tuple[bytes, ...]] = {}
    keys: dict[int, bytes] = {}
    for sid, entry in owned.items():
        key = os.urandom(32)
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
            streams[sid] = encrypt_data_stream(key, sid, manifest.frame_size, plaintext)
    return JobInputs(party=party, streams=streams, keys=keys)


# ---------------------------------------------------------------------------
# package / clean-room split
# ---------------------------------------------------------------------------


@dataclass
class StreamPackage(Record):
    """The shippable artifact: ciphertext plus the party's signed keyshare."""

    party: str
    certificate: Certificate
    keyshare: bytes
    share_signature: bytes
    manifest_measurement: str
    streams: dict[int, tuple[bytes, ...]]


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


def make_package(
    identity: PartyIdentity,
    manifest: JobManifest,
    binaries: dict[int, bytes] | None = None,
    data: dict[int, bytes] | None = None,
) -> tuple[StreamPackage, CleanRoom]:
    """Encrypt a party's contribution: the code (for the model owner, given
    ``binaries``) and the data streams it owns."""
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


# ---------------------------------------------------------------------------
# directory serialization
# ---------------------------------------------------------------------------


def write_json(path: Path, value) -> None:
    """Write a record or plain data as indented codec JSON (the one file writer)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(jsonable(value), indent=2, sort_keys=True) + "\n")


def save_package(package: StreamPackage, path: str | Path) -> None:
    write_json(Path(path) / "package.json", package)


def load_package(path: str | Path) -> StreamPackage:
    """Read a package directory.  A malformed ``package.json`` (not JSON, a
    missing field, bad hex, a non-integer stream id) raises ``InvalidEncoding``;
    a stream with no frames, or a frame of the wrong size or with a nonzero
    counter area, raises an ``InvalidFrame``-family error."""
    package = StreamPackage.from_bytes((Path(path) / "package.json").read_bytes())
    for sid, frames in package.streams.items():
        if not frames:
            raise InvalidFrame(f"stream {sid} has no frames")
        for raw in frames:
            check_frame(raw)
    return package


def save_clean_room(room: CleanRoom, path: str | Path) -> None:
    write_json(Path(path) / "cleanroom.json", room)


def load_clean_room(path: str | Path) -> CleanRoom:
    """Read a clean room; a malformed one, or a session key not 32 bytes long, raises ``InvalidEncoding``."""
    room = CleanRoom.from_bytes((Path(path) / "cleanroom.json").read_bytes())
    if len(room.session_private) != 32:
        raise InvalidEncoding(f"session_private is {len(room.session_private)} bytes, not 32")
    return room
