"""The benchmark's load generator: JSONL over loopback TCP, one process.

Three phase shapes, all on one asyncio loop in the benchmark process:

* :func:`closed_loop` -- one connection, one request in flight;
* :func:`open_loop` -- requests sent on a precomputed Poisson schedule,
  split round-robin over a few connections, never waiting for replies.
  Latency runs from each request's *due* time, so a stall that delays
  later sends is charged to them, and how late the sender ran is kept;
* :func:`windowed` -- a fixed request set pushed through a few
  connections with a bounded number in flight each (a bulk client).

The gateway answers each connection in request order, so the i-th
response line on a connection belongs to the i-th request sent on it.
:func:`capacity_search` is the rate search that runs open-loop probes.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Ceiling for one response line (a JSON object of a few fields).
_LINE_LIMIT = 1 << 20


@dataclass
class Sample:
    """One request as the client saw it (times on the loop clock)."""

    due: float
    sent: float = math.nan
    done: float = math.nan
    response: dict | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseResult:
    """Every request of one phase, in the order of the input lines."""

    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    def answered(self) -> list[int]:
        """Indices whose response carries a prediction."""
        return [i for i, s in enumerate(self.samples)
                if s.response is not None and "prediction" in s.response]

    def counts(self) -> dict:
        """Attempted / answered / shed / failed / malformed / missing."""
        out = {"attempted": len(self.samples), "answered": 0, "shed": 0,
               "failed": 0, "malformed": 0, "missing": 0}
        for s in self.samples:
            r = s.response
            if r is None:
                out["missing"] += 1
            elif "prediction" in r:
                out["answered"] += 1
            elif r.get("status") == 429:
                out["shed"] += 1
            elif str(r.get("error", "")).startswith(
                    ("prediction failed", "deadline exceeded")):
                out["failed"] += 1
            else:
                out["malformed"] += 1
        return out

    def latencies_ms(self) -> np.ndarray:
        """Latency of every answered request, from its due time."""
        return np.asarray([1e3 * self.samples[i].latency_s
                           for i in self.answered()])


def poisson_schedule(rate_hz: float, duration_s: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s) of a homogeneous Poisson process on [0, duration)."""
    if rate_hz <= 0:
        raise ValueError("rate_hz must be > 0")
    n_max = int(rate_hz * duration_s * 2 + 50)
    times = np.cumsum(rng.exponential(1.0 / rate_hz, size=n_max))
    while times[-1] < duration_s:  # vanishingly rare: extend the draw
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate_hz, n_max))
        times = np.concatenate([times, more])
    return times[times < duration_s]


async def _connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port,
                                         limit=_LINE_LIMIT)


async def _read_responses(reader, samples: list[Sample], loop) -> None:
    for s in samples:
        raw = await reader.readline()
        if not raw:
            return
        s.done = loop.time()
        s.response = json.loads(raw)


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def closed_loop(port: int, lines: list[str],
                      budget_s: float | None = None) -> PhaseResult:
    """Send ``lines`` one at a time on one connection.

    With ``budget_s``, stop sending once that many seconds have passed.
    """
    loop = asyncio.get_running_loop()
    reader, writer = await _connect(port)
    result = PhaseResult()
    t0 = loop.time()
    try:
        for line in lines:
            if budget_s is not None and loop.time() - t0 >= budget_s:
                break
            s = Sample(due=loop.time())
            s.sent = s.due
            writer.write(line.encode() + b"\n")
            await writer.drain()
            raw = await reader.readline()
            s.done = loop.time()
            s.response = json.loads(raw) if raw else None
            result.samples.append(s)
    finally:
        await _close(writer)
    result.wall_s = loop.time() - t0
    return result


async def open_loop(port: int, lines: list[str], offsets: np.ndarray,
                    connections: int = 2) -> PhaseResult:
    """Send ``lines[i]`` at ``offsets[i]`` s after start, never waiting.

    Request ``i`` goes out on connection ``i % connections``.
    """
    if len(lines) != len(offsets):
        raise ValueError("one due offset per line")
    loop = asyncio.get_running_loop()
    conns = [await _connect(port) for _ in range(connections)]
    t0 = loop.time() + 0.01
    samples = [Sample(due=t0 + float(o)) for o in offsets]

    async def send(writer, idx):
        for i in idx:
            delay = samples[i].due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(lines[i].encode() + b"\n")
            samples[i].sent = loop.time()
        await writer.drain()

    try:
        tasks = []
        for c, (reader, writer) in enumerate(conns):
            idx = list(range(c, len(lines), connections))
            tasks.append(send(writer, idx))
            tasks.append(_read_responses(reader, [samples[i] for i in idx],
                                         loop))
        await asyncio.gather(*tasks)
    finally:
        for _, writer in conns:
            await _close(writer)
    return PhaseResult(samples=samples, wall_s=loop.time() - t0)


async def windowed(port: int, lines: list[str], connections: int = 2,
                   in_flight: int = 16) -> PhaseResult:
    """Push ``lines`` through with at most ``in_flight`` open per connection.

    Every request counts as due when the phase starts, so a latency here
    is the time a bulk client waited for that answer.
    """
    loop = asyncio.get_running_loop()
    conns = [await _connect(port) for _ in range(connections)]
    t0 = loop.time()
    samples = [Sample(due=t0) for _ in lines]

    async def one(reader, writer, idx):
        window = asyncio.Semaphore(in_flight)

        async def send():
            for i in idx:
                await window.acquire()
                writer.write(lines[i].encode() + b"\n")
                samples[i].sent = loop.time()
            await writer.drain()

        async def receive():
            for i in idx:
                raw = await reader.readline()
                if not raw:
                    return
                samples[i].done = loop.time()
                samples[i].response = json.loads(raw)
                window.release()

        await asyncio.gather(send(), receive())

    try:
        await asyncio.gather(*(
            one(reader, writer, list(range(c, len(lines), connections)))
            for c, (reader, writer) in enumerate(conns)))
    finally:
        for _, writer in conns:
            await _close(writer)
    return PhaseResult(samples=samples, wall_s=loop.time() - t0)


def capacity_search(passes, start_hz: float, max_hz: float,
                    factor: float = 2.0, resolution: float = 0.05) -> float:
    """Highest rate at which ``passes(rate)`` holds, or 0.0.

    Raises the rate geometrically from ``start_hz`` until a rung fails
    (or ``max_hz`` is reached), then bisects geometrically between the
    last passing and the first failing rung until they are within
    ``resolution`` of each other.  Returns 0.0 when ``start_hz`` itself
    fails.  ``passes`` is assumed monotone (passing below capacity).
    """
    if not passes(start_hz):
        return 0.0
    lo, hi = start_hz, None
    while lo * factor <= max_hz:
        rate = lo * factor
        if passes(rate):
            lo = rate
        else:
            hi = rate
            break
    if hi is None:
        return lo
    while hi / lo > 1.0 + resolution:
        mid = math.sqrt(lo * hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
