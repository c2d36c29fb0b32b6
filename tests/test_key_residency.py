"""A key is present only in the interval that uses it.

At every interval of a trusted run, the (bank, context) pairs of the two
packet engines that hold a key as the tiles start are exactly the pairs that
open a frame before the tiles park again; the device empties both banks at
every park, and a barrier loads the keys of the streams its interval moves.
Frames of the frame-serial phases (boot, checkpoint save and restore) open
outside any interval and are not counted."""

import pytest

from itx.sandbox import make_sgd_fixture, make_sum_fixture


def record_residency(monkeypatch, device) -> list[tuple[int, set, set]]:
    """Wrap ``device`` so that each interval it runs appends (the barrier it
    starts from, the keyed pairs as it starts, the pairs that open a frame in it)."""
    intervals: list[tuple[int, set, set]] = []
    engines = (device.ingress, device.egress)
    opened: list[set] = []  # the running interval's, while one runs

    for engine in engines:
        def open_frame(ctx, pkt, engine=engine, original=engine._open_frame):
            if opened:
                opened[0].add((engine.name, ctx.index))
            return original(ctx, pkt)

        monkeypatch.setattr(engine, "_open_frame", open_frame)

    def run_interval(original=device.run_interval):
        keyed = {(engine.name, ctx.index) for engine in engines for ctx in engine.contexts if ctx.aead is not None}
        intervals.append((device.barrier, keyed, set()))
        opened.append(intervals[-1][2])
        try:
            return original()
        finally:
            opened.clear()

    monkeypatch.setattr(device, "run_interval", run_interval)
    return intervals


@pytest.mark.parametrize("shape", ["sgd-fresh", "sgd-halted-then-resumed", "sum-17-streams"])
def test_the_keys_held_in_each_interval_are_the_keys_it_uses(monkeypatch, shape):
    """A 3-step SGD job that checkpoints every step, run fresh, or halted
    after two checkpoints and resumed on a reset device; and a 17-stream
    sum job, whose five waves rotate keys through the same contexts."""
    if shape.startswith("sgd"):
        fixture = make_sgd_fixture(steps=3, checkpoint_period=1)
    else:
        fixture = make_sum_fixture(stream_count=17)
    intervals = record_residency(monkeypatch, fixture.deployment.device)
    session = fixture.session
    if shape == "sgd-halted-then-resumed":
        assert session.run(halt_after_checkpoint=2).status == "halted"
        fixture.deployment.device.reset("sbr")
        result = session.resume()
    else:
        result = session.run()
    assert result.completed, result.reason
    assert [(barrier, keyed) for barrier, keyed, _ in intervals] == [(b, used) for b, _, used in intervals]
    assert sum(bool(used) for _, _, used in intervals) >= 3
