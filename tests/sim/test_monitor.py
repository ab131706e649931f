"""Time-weighted statistics."""

import pytest

from repro.sim import TimeWeightedStat


def test_time_weighted_average(engine):
    stat = TimeWeightedStat(engine, initial=0.0)

    def proc(env):
        yield env.timeout(2)
        stat.update(4.0)
        yield env.timeout(2)
        stat.update(0.0)
        yield env.timeout(4)

    engine.process(proc(engine))
    engine.run()
    # 0 for 2s, 4 for 2s, 0 for 4s => integral 8, average 1.0 over 8s.
    assert stat.integral() == pytest.approx(8.0)
    assert stat.time_average() == pytest.approx(1.0)


def test_time_weighted_reset(engine):
    stat = TimeWeightedStat(engine, initial=2.0)

    def proc(env):
        yield env.timeout(3)
        stat.reset()
        yield env.timeout(2)

    engine.process(proc(engine))
    engine.run()
    assert stat.integral() == pytest.approx(4.0)  # 2.0 level × 2 s
    assert stat.time_average() == pytest.approx(2.0)


def test_time_weighted_add(engine):
    stat = TimeWeightedStat(engine)
    stat.add(3)
    stat.add(-1)
    assert stat.level == 2
