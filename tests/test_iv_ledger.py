"""No (key, IV) pair is sealed twice over a whole run, and the device
writes nothing in the clear.

GCM loses both confidentiality and integrity once a key seals two frames
under one IV.  The ledger records every seal there is: each frame the
parties' codec seals, and each frame the egress packet engine opens.  It
holds the keys in memory only.  The plaintext half watches every write
request that leaves a tile for the ring."""

import pytest

from itx import frame_codec
from itx.sandbox import make_sgd_fixture, make_sum_fixture
from itx.sxp import ExchangePacket, PacketKind, SxpEngine, _KeyContext


class _RecordingAead:
    """The codec's AEAD, recording the (key, IV) of every seal."""

    def __init__(self, key: bytes, aead, ledger: list) -> None:
        self.key, self.aead, self.ledger = key, aead, ledger

    def encrypt(self, iv: bytes, data: bytes, aad) -> bytes:
        self.ledger.append((self.key, iv))
        return self.aead.encrypt(iv, data, aad)

    def decrypt(self, iv: bytes, data: bytes, aad) -> bytes:
        return self.aead.decrypt(iv, data, aad)


@pytest.fixture
def ledger(monkeypatch) -> list[tuple[bytes, bytes]]:
    pairs: list[tuple[bytes, bytes]] = []
    keys: dict[int, bytes] = {}  # id of an SXP key context -> its loaded key
    cipher, load, open_frame = frame_codec._cipher, _KeyContext.load, SxpEngine._open_frame

    def loading(ctx, key):
        load(ctx, key)
        keys[id(ctx)] = key

    def opening(engine, ctx, pkt):
        block = open_frame(engine, ctx, pkt)
        if engine.name == "egress":
            pairs.append((keys[id(ctx)], ctx.iv))
        return block

    monkeypatch.setattr(frame_codec, "_cipher", lambda key: _RecordingAead(key, cipher(key), pairs))
    monkeypatch.setattr(_KeyContext, "load", loading)
    monkeypatch.setattr(SxpEngine, "_open_frame", opening)
    return pairs


def assert_no_pair_repeats(pairs: list[tuple[bytes, bytes]]) -> None:
    repeated = len(pairs) - len(set(pairs))
    assert repeated == 0, f"{repeated} of {len(pairs)} (key, IV) pairs repeat"


def test_a_halted_and_resumed_sgd_job_never_repeats_a_key_and_iv(ledger):
    fixture = make_sgd_fixture(steps=6, checkpoint_period=1)
    sealed = len(ledger)  # the parties' streams
    assert fixture.session.run(halt_after_checkpoint=3).status == "halted"
    fixture.deployment.device.reset("sbr")
    assert fixture.session.resume().completed
    egress = ledger[sealed:]
    assert sealed and len(egress) > 16 * 6  # every tile's checkpoints, then the model
    assert_no_pair_repeats(ledger)


def test_the_17_stream_sum_job_never_repeats_a_key_and_iv(ledger):
    fixture = make_sum_fixture(stream_count=17)
    sealed = len(ledger)
    assert fixture.session.run().completed
    assert sealed and len(ledger) > sealed
    assert_no_pair_repeats(ledger)


@pytest.fixture
def writes(monkeypatch) -> list[ExchangePacket]:
    """Every write request a tile hands the egress packet engine."""
    packets: list[ExchangePacket] = []
    process_egress = SxpEngine.process_egress

    def recording(engine, pkt):
        if pkt.kind == PacketKind.WRITE_REQUEST:
            packets.append(pkt)
        return process_egress(engine, pkt)

    monkeypatch.setattr(SxpEngine, "process_egress", recording)
    return packets


def assert_every_write_is_sealed(packets: list[ExchangePacket], clear_region: tuple[int, int]) -> None:
    lo, hi = clear_region
    clear = [hex(pkt.address) for pkt in packets if not pkt.aes or lo <= pkt.address < hi]
    assert packets
    assert not clear, f"{len(clear)} of {len(packets)} writes in the clear: {clear[:4]}"


def test_a_halted_and_resumed_sgd_job_writes_nothing_in_the_clear(writes):
    fixture = make_sgd_fixture(steps=6, checkpoint_period=1)
    assert fixture.session.run(halt_after_checkpoint=3).status == "halted"
    fixture.deployment.device.reset("sbr")
    assert fixture.session.resume().completed
    assert_every_write_is_sealed(writes, fixture.session.manifest.clear_region)


def test_the_17_stream_sum_job_writes_nothing_in_the_clear(writes):
    fixture = make_sum_fixture(stream_count=17)
    assert fixture.session.run().completed
    assert_every_write_is_sealed(writes, fixture.session.manifest.clear_region)
