"""The record codec: round trips for every record class, and typed failures
for every malformed input.

Manifests, reports and certificates arrive from outside (JSON files, the
untrusted host), so a decoder must either rebuild the exact record or raise
``InvalidEncoding`` -- never a ``KeyError`` or ``TypeError``.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itx import crypto
from itx.attestation import AttestationReport, KeyPackage
from itx.certs import Certificate, self_signed
from itx.compiler import JobDescription, compile_job
from itx.encoding import Record
from itx.errors import InvalidEncoding
from itx.manifest import BindingSpec, JobManifest, StreamTableEntry, SyncPlan
from itx.packaging import CleanRoom, StreamPackage
from itx.pki import COMPONENT_BOOTLOADER, CaState, TcbUpdateCertificate

SIGNER = crypto.ed25519_generate()
CA = CaState()


def sgd_manifest() -> JobManifest:
    job = JobDescription(kind="sgd", model_party="modelco", data_parties=("alpha", "beta"))
    return compile_job(job, bootloader_measurement="bl").manifest


MANIFEST = sgd_manifest()

REPORT = AttestationReport(
    register_measurement="11" * 32,
    manifest_measurement=MANIFEST.measurement(),
    ccu_keyshare=bytes(range(32)),
    epoch=1,
    checkpoint_id=0,
    party_fingerprints=("44" * 32, "55" * 32),
).signed(SIGNER)

CERT = self_signed(SIGNER, "alpha", {"role": "party", "name": "alpha"})

TCB = CA.ca_issue_tcb_update(COMPONENT_BOOTLOADER, "a" * 64, "b" * 64)

STREAM_PACKAGE = StreamPackage(
    party="alpha",
    certificate=CERT,
    keyshare=b"\x44" * 32,
    share_signature=b"\x55" * 64,
    manifest_measurement=MANIFEST.measurement(),
    streams={3: (b"\x01" * 128, b"\x02" * 128), 4: (b"\x03" * 256,)},
)

SAMPLES = [
    MANIFEST.stream_table[3],
    MANIFEST.tile_layouts[0].bindings[0],
    MANIFEST.tile_layouts[0],
    MANIFEST.plans[0],
    MANIFEST,
    JobDescription(
        kind="sgd", model_party="modelco", data_parties=("alpha", "beta"), model_receivers=("beta",)
    ),
    CleanRoom("alpha", {3: b"\x11" * 32, 12: b"\x22" * 32}, b"\x33" * 32, b"\x44" * 32, b"\x55" * 64),
    STREAM_PACKAGE,
    CERT,
    REPORT,
    TCB,
    KeyPackage({3: b"\x01" * 16, 4: b"\x02" * 16}, b"\x03" * 32, b"\x04" * 32),
]

SIGNERS = {
    Certificate: crypto.public_bytes(SIGNER),
    AttestationReport: crypto.public_bytes(SIGNER),
    TcbUpdateCertificate: CA.public()["firmware_ca"],
}


def record_classes() -> set[type]:
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if dataclasses.is_dataclass(sub):
                found.add(sub)
    return found


def test_samples_cover_every_record_class():
    assert {type(x) for x in SAMPLES} == record_classes()


@pytest.mark.parametrize("record", SAMPLES, ids=lambda x: type(x).__name__)
def test_round_trips(record):
    cls = type(record)
    assert cls.from_dict(record.to_dict()) == record
    assert cls.from_dict(json.loads(json.dumps(record.to_dict()))) == record
    if cls in SIGNERS:
        clone = cls.from_dict(record.to_dict())
        assert clone.verify(SIGNERS[cls])
        assert not clone.verify(crypto.public_bytes(crypto.ed25519_generate()))


class TestTypedErrors:
    def test_missing_field_takes_the_default(self):
        d = MANIFEST.tile_layouts[0].bindings[0].to_dict()
        del d["stride"]
        assert BindingSpec.from_dict(d).stride == 1

    def test_missing_required_field(self):
        d = REPORT.to_dict()
        del d["epoch"]
        with pytest.raises(InvalidEncoding, match="missing field 'epoch'"):
            AttestationReport.from_dict(d)

    def test_unknown_field(self):
        with pytest.raises(InvalidEncoding, match="unknown fields"):
            Certificate.from_dict({**CERT.to_dict(), "serial": 1})

    @pytest.mark.parametrize("field", ["stream_assignment", "bootloader_measurement", "run_attributes_digest"])
    def test_a_report_that_restates_a_manifest_fact_is_refused(self, field):
        """A report of the older form, which also copied the assignment and
        the tile bootloader and digested its own fields, is not a report."""
        stale = {**REPORT.to_dict(), field: {"model_receivers": ["modelco"]} if field == "stream_assignment" else "22" * 32}
        with pytest.raises(InvalidEncoding, match=rf"AttestationReport: unknown fields \['{field}'\]"):
            AttestationReport.from_dict(stale)

    def test_bool_is_not_an_int(self):
        with pytest.raises(InvalidEncoding, match="StreamTableEntry.plaintext_length"):
            StreamTableEntry.from_dict({**MANIFEST.stream_table[3].to_dict(), "plaintext_length": True})

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1.0", "x"])
    def test_int_keys_are_canonical(self, key):
        with pytest.raises(InvalidEncoding, match="decimal integer"):
            JobManifest.from_dict({**MANIFEST.to_dict(), "stream_table": {key: MANIFEST.stream_table[3].to_dict()}})

    def test_fixed_tuple_length(self):
        with pytest.raises(InvalidEncoding, match="expected 5 items"):
            SyncPlan.from_dict({"moves": [[0, 1, 2]]})

    @pytest.mark.parametrize("text", ["0g", "0", "AB" * 32, "00 11"])
    def test_bad_hex(self, text):
        with pytest.raises(InvalidEncoding, match="ccu_keyshare"):
            AttestationReport.from_dict({**REPORT.to_dict(), "ccu_keyshare": text})


# ---------------------------------------------------------------------------
# mutation fuzzing
# ---------------------------------------------------------------------------


def paths(node, prefix=()):
    """Every path to a value inside a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


OTHER_TYPES = [None, True, 0, -1, 2**70, 1.5, "", "zz", [], [0], {}, {"0": 0}]


@st.composite
def mutated(draw, tree):
    """A copy of ``tree`` with one field dropped or added, one value swapped
    for another JSON type, or one hex string corrupted."""
    tree = json.loads(json.dumps(tree))
    where = draw(st.sampled_from(list(paths(tree))))
    parent = None
    node = tree
    for step in where:
        parent, node = node, node[step]
    action = draw(st.sampled_from(["drop", "add", "swap", "hex"]))
    if action == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["unknown", "7", "-1", ""]))] = draw(st.sampled_from(OTHER_TYPES))
    elif action == "drop" and parent is not None:
        del parent[where[-1]]
    elif action == "hex" and isinstance(node, str) and parent is not None:
        at = draw(st.integers(0, len(node)))
        parent[where[-1]] = node[:at] + draw(st.sampled_from(["", "g", "0", "Z"])) + node[at + 1 :]
    elif parent is not None:
        other = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(node)]))
        parent[where[-1]] = other
    else:
        tree = draw(st.sampled_from(OTHER_TYPES))
    return tree


def decodes_or_rejects(cls, d) -> None:
    try:
        cls.from_dict(d)
    except InvalidEncoding:
        pass


class TestMutations:
    @settings(max_examples=150, deadline=None)
    @given(mutated(MANIFEST.to_dict()))
    def test_manifest(self, d):
        decodes_or_rejects(JobManifest, d)

    @settings(max_examples=150, deadline=None)
    @given(mutated(REPORT.to_dict()))
    def test_report(self, d):
        decodes_or_rejects(AttestationReport, d)

    @settings(max_examples=150, deadline=None)
    @given(mutated(CERT.to_dict()))
    def test_certificate(self, d):
        decodes_or_rejects(Certificate, d)

    @settings(max_examples=150, deadline=None)
    @given(mutated(STREAM_PACKAGE.to_dict()))
    def test_stream_package(self, d):
        decodes_or_rejects(StreamPackage, d)


PACKAGE = KeyPackage({3: b"\x01" * 16, 4: b"\x02" * 16}, b"\x03" * 32, b"\x04" * 32)


class TestKeyPackage:
    def test_round_trip(self):
        assert KeyPackage.from_bytes(PACKAGE.to_bytes()) == PACKAGE

    @settings(max_examples=150, deadline=None)
    @given(mutated(json.loads(PACKAGE.to_bytes())))
    def test_mutated_fields(self, d):
        blob = json.dumps(d).encode()
        try:
            KeyPackage.from_bytes(blob)
        except InvalidEncoding:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_corrupted_bytes(self, data):
        blob = bytearray(PACKAGE.to_bytes())
        at = data.draw(st.integers(0, len(blob) - 1))
        action = data.draw(st.sampled_from(["flip", "cut", "noise"]))
        if action == "flip":
            blob[at] ^= data.draw(st.integers(1, 255))
        elif action == "cut":
            del blob[at:]
        else:
            blob = bytearray(data.draw(st.binary(max_size=64)))
        try:
            KeyPackage.from_bytes(bytes(blob))
        except InvalidEncoding:
            pass
