"""Unit tests for the interconnect models."""

import pytest

from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.sim.network import CSMABus, SharedMemoryInterconnect, TokenRing
from repro.sim.rng import SimRandom


@pytest.fixture
def eng():
    return Engine()


def test_token_ring_serialisation_rate(eng):
    ring = TokenRing(eng, rate_mbit=10.0, access_delay_ms=0.0)
    # 10 Mbit/s = 1.25 bytes/us -> 1000 bytes = 0.8 ms
    assert ring.transit_time(1000) == pytest.approx(0.8)
    assert ring.transit_time(0) == pytest.approx(0.0)


def test_token_ring_access_delay_added(eng):
    ring = TokenRing(eng, access_delay_ms=0.05)
    assert ring.transit_time(0) == pytest.approx(0.05)


def test_csma_slower_per_byte_than_ring(eng):
    ring = TokenRing(eng, access_delay_ms=0.0)
    bus = CSMABus(eng, base_access_ms=0.0, max_backoff_ms=0.0)
    assert bus.transit_time(1000) > ring.transit_time(1000)
    # 1 Mbit/s -> 8 us/byte -> 8 ms for 1000 bytes
    assert bus.transit_time(1000) == pytest.approx(8.0)


def test_csma_backoff_is_bounded_and_seeded(eng):
    bus = CSMABus(
        eng, rng=SimRandom(7, "bus"), base_access_ms=0.2, max_backoff_ms=0.4
    )
    times = [bus.transit_time(0) for _ in range(100)]
    assert all(0.2 <= t <= 0.6 for t in times)
    bus2 = CSMABus(
        eng, rng=SimRandom(7, "bus"), base_access_ms=0.2, max_backoff_ms=0.4
    )
    assert times == [bus2.transit_time(0) for _ in range(100)]


def test_csma_broadcast_loss_zero_reaches_everyone(eng):
    bus = CSMABus(eng, broadcast_loss=0.0)
    heard = []
    reached = bus.broadcast(10, [lambda: heard.append(1), lambda: heard.append(2)])
    eng.run()
    assert reached == 2
    assert sorted(heard) == [1, 2]


def test_csma_broadcast_loss_one_reaches_no_one(eng):
    m = MetricSet()
    bus = CSMABus(eng, metrics=m, broadcast_loss=1.0)
    heard = []
    reached = bus.broadcast(10, [lambda: heard.append(1)])
    eng.run()
    assert reached == 0
    assert heard == []
    assert m.get("wire.broadcast_lost") == 1


def test_csma_broadcast_loss_statistics(eng):
    bus = CSMABus(eng, rng=SimRandom(3, "b"), broadcast_loss=0.3)
    total = 0
    for _ in range(200):
        total += bus.broadcast(1, [lambda: None] * 5)
    # expect ~0.7 * 1000 = 700 deliveries; allow generous slack
    assert 600 < total < 800


def test_shared_memory_costs_are_microscopic(eng):
    sm = SharedMemoryInterconnect(eng, per_byte_us=0.55, hop_us=4.0)
    # 1000-byte copy ~ 0.554 ms; tiny next to Charlotte's per-message ms
    assert sm.transit_time(1000) == pytest.approx(0.004 + 0.55)
    assert sm.transit_time(0) == pytest.approx(0.004)
