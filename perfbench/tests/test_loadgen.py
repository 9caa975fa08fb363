"""Load generator: schedules, due-time latency and the capacity search."""

import asyncio
import json
import math

import numpy as np
import pytest

from loadgen import (
    capacity_search,
    closed_loop,
    open_loop,
    poisson_schedule,
    windowed,
)


def test_poisson_schedule_is_seeded_and_has_the_rate():
    a = poisson_schedule(200.0, 10.0, np.random.default_rng(7))
    b = poisson_schedule(200.0, 10.0, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0) and a[0] >= 0 and a[-1] < 10.0
    assert abs(len(a) - 2000) < 5 * math.sqrt(2000)


class Recorder:
    """Counts probes; passes below ``capacity``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rates = []

    def __call__(self, rate):
        self.rates.append(rate)
        return rate <= self.capacity


@pytest.mark.parametrize("capacity", [7.0, 19.9, 100.0, 333.3])
def test_capacity_search_finds_the_rate(capacity):
    passes = Recorder(capacity)
    found = capacity_search(passes, start_hz=5.0, max_hz=10_000.0,
                            resolution=0.05)
    assert found <= capacity
    assert found >= capacity / 1.05
    assert len(passes.rates) < 20


def test_capacity_search_reads_zero_when_the_lowest_rung_fails():
    passes = Recorder(3.0)
    assert capacity_search(passes, start_hz=5.0, max_hz=1000.0) == 0.0
    assert passes.rates == [5.0]


def test_capacity_search_stops_at_the_ceiling():
    assert capacity_search(Recorder(1e9), start_hz=5.0, max_hz=40.0) == 40.0


def test_capacity_search_against_a_latency_curve():
    """M/M/1-like p99 = base / (1 - rate / mu); SLO 50 ms, base 10 ms."""
    mu, base, slo = 400.0, 10.0, 50.0

    def p99(rate):
        return math.inf if rate >= mu else base / (1.0 - rate / mu)

    exact = mu * (1.0 - base / slo)  # 320 Hz
    found = capacity_search(lambda r: p99(r) <= slo, start_hz=10.0,
                            max_hz=4000.0, resolution=0.02)
    assert exact / 1.02 <= found <= exact
    # Base latency above the SLO: no rate meets it.
    assert capacity_search(lambda r: p99(r) * 6 <= slo, start_hz=10.0,
                           max_hz=4000.0) == 0.0


class FakeGateway:
    """Answers each JSONL line in order after ``delays[i]`` seconds."""

    def __init__(self, delays):
        self.delays = list(delays)
        self.seen = 0

    async def handle(self, reader, writer):
        while True:
            raw = await reader.readline()
            if not raw:
                break
            req = json.loads(raw)
            delay = self.delays[self.seen] if self.seen < len(self.delays) \
                else 0.0
            self.seen += 1
            await asyncio.sleep(delay)
            writer.write((json.dumps({"id": req["id"],
                                      "prediction": float(req["id"])})
                          + "\n").encode())
            await writer.drain()
        writer.close()


async def _with_server(gateway, body):
    server = await asyncio.start_server(gateway.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await body(port)
    finally:
        server.close()
        await server.wait_closed()


def _lines(n):
    return [json.dumps({"id": i}) for i in range(n)]


def test_open_loop_times_latency_from_the_due_time():
    # One connection; the first request stalls the in-order server
    # 0.3 s, so requests due during the stall wait behind it.
    offsets = np.array([0.0, 0.05, 0.10, 0.15])
    gateway = FakeGateway([0.3, 0.0, 0.0, 0.0])
    result = asyncio.run(_with_server(
        gateway, lambda port: open_loop(port, _lines(4), offsets,
                                        connections=1)))
    lat = result.latencies_ms()
    assert len(lat) == 4
    # Request 3 was due at 0.15 s and answered after 0.3 s: ~150 ms,
    # although it was answered right after it reached the server.
    assert lat[3] > 120
    assert all(s.late_s < 0.05 for s in result.samples)
    assert [s.response["id"] for s in result.samples] == [0, 1, 2, 3]
    assert result.counts()["answered"] == 4


def test_closed_and_windowed_phases_answer_in_order():
    gateway = FakeGateway([0.0] * 100)

    async def body(port):
        closed = await closed_loop(port, _lines(10))
        bulk = await windowed(port, _lines(40), connections=2, in_flight=4)
        return closed, bulk

    closed, bulk = asyncio.run(_with_server(gateway, body))
    assert [s.response["id"] for s in closed.samples] == list(range(10))
    assert [s.response["id"] for s in bulk.samples] == list(range(40))
    assert bulk.counts() == {"attempted": 40, "answered": 40, "shed": 0,
                             "failed": 0, "malformed": 0, "missing": 0}


def test_counts_tell_outcomes_apart():
    from loadgen import PhaseResult, Sample

    responses = [{"prediction": 1.0}, {"error": "x", "status": 429},
                 {"error": "prediction failed: boom"},
                 {"error": "deadline exceeded: late"},
                 {"error": "request must carry a 'features' array"}, None]
    result = PhaseResult(samples=[Sample(due=0.0, response=r)
                                  for r in responses])
    assert result.counts() == {"attempted": 6, "answered": 1, "shed": 1,
                               "failed": 2, "malformed": 1, "missing": 1}
