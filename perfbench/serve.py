"""Workload ``serve``: online serving through a 2-shard gateway.

Set-up trains and publishes the ``pipeline`` model (same seed), then
starts the gateway in its own process (``server.py``, configured as
``repro serve --gateway --shards 2`` configures it) and warms it; the
start is repeated ``SETUP_REPEATS`` times and the last server kept.

Requests are ``{"row": ...}`` raw telemetry of held-out rows, keyed by
their run (one UE walk), so the online feature path runs on every
request.  Phases, all from this one client process over loopback:

* ``unloaded`` -- closed loop, one connection, one request in flight;
* ``loaded`` -- open loop, Poisson arrivals at ``LOADED_HZ`` over two
  connections, latency timed from each request's due time;
* ``bulk`` -- the first ``BULK_REQUESTS`` held-out rows with
  ``IN_FLIGHT`` open per connection: its wall time is ``wall_s`` and
  its answers give ``mae_mbps``;
* ``overload`` -- open loop at ``OVERLOAD_FACTOR`` times the bulk
  throughput: the answered requests per second, while the admission
  windows shed the excess, are ``capacity_rps``.

Traced runs add the SLO capacity search (``gateway.slo_capacity_rps``):
a rate ladder, then bisection, over open-loop rungs for the highest rate
with p99 within the gateway's 50 ms SLO and at most 0.1% shed or failed.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
import time

import numpy as np

from common import StageTimer, mean, median, quantile, tail
from loadgen import (
    PhaseResult,
    capacity_search,
    closed_loop,
    open_loop,
    poisson_schedule,
    windowed,
)

SHARDS = 2
CONNECTIONS = 2
SETUP_REPEATS = 3
WARMUP_REQUESTS = 256
#: Closed-loop requests, unless the phase's share of ``--seconds`` ends.
UNLOADED_REQUESTS = 1000
UNLOADED_SHARE = 0.4
#: Open-loop rate: a third of today's throughput, so nothing is shed
#: and a few percent of host noise does not swing the queueing delay.
LOADED_HZ = 100.0
LOADED_SHARE = 0.5
BULK_REQUESTS = 2000
IN_FLIGHT = 16
OVERLOAD_FACTOR = 2.0
OVERLOAD_S = 3.0
#: ``gateway.slo_capacity_rps`` (traced runs): rung duration, search
#: resolution, ladder step, the p99 SLO (``latency_slo_p99_ms``) and the
#: share allowed to be shed or failed.  A rung fails only when a second
#: attempt at the same rate fails too.  It reads 0 while one 1-row
#: predict costs about half the SLO.
RUNG_S = 2.0
RESOLUTION = 0.04
LADDER_FACTOR = 1.5
SLO_P99_MS = 50.0
MAX_FAILED_SHARE = 0.001
SLO_START_HZ = 5.0
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "server.py")


class GatewayProcess:
    """``server.py`` in its own process, driven over stdin/stdout."""

    def __init__(self, registry_dir: str, name: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, SERVER, "--registry", registry_dir,
             "--name", name, "--shards", str(SHARDS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**env, "REPRO_OBS": "0"})
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.port = self._reply(timeout=60)["port"]
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self, timeout: float = 30) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("gateway process did not answer") from None
        if line is None:
            raise RuntimeError(f"gateway process exited "
                               f"({self.proc.wait()})")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class Requests:
    """Held-out rows as gateway requests, with their expected answers."""

    def __init__(self, trained, view):
        table = trained.table
        rows = trained.test_rows
        cols = view.source_columns()
        values = {c: np.asarray(table[c])[rows].tolist() for c in cols}
        runs = np.asarray(table["run_id"])[rows].tolist()
        self.rows = [{c: values[c][i] for c in cols}
                     for i in range(len(rows))]
        self.keys = [f"ue-{r}" for r in runs]
        self.X = trained.X_test
        self.y = trained.y_test
        self.expected = trained.model.predict(trained.X_test)

    def lines(self, start: int, n: int) -> tuple[list[str], np.ndarray]:
        """Request lines for rows ``start .. start + n`` (cycling)."""
        idx = (start + np.arange(n)) % len(self.rows)
        return self.lines_for(idx), idx

    def lines_for(self, idx) -> list[str]:
        return [json.dumps({"id": int(i), "key": self.keys[i],
                            "row": self.rows[i]}) for i in idx]


def start_gateway(registry_dir, name, env, requests) -> tuple:
    """Start, then warm (lazy init, first batches); (process, seconds)."""
    t0 = time.perf_counter()
    gateway = GatewayProcess(registry_dir, name, env)
    try:
        lines, _ = requests.lines(0, WARMUP_REQUESTS)
        asyncio.run(closed_loop(gateway.port, lines[:32]))
        asyncio.run(windowed(gateway.port, lines, CONNECTIONS, IN_FLIGHT))
    except BaseException:
        gateway.stop()
        raise
    return gateway, time.perf_counter() - t0


def online_rows(requests: Requests, view, n: int) -> tuple[float, list]:
    """Mean microseconds per ``OnlineFeatureServer.vector`` call, and
    rows whose online vector differs from offline materialization."""
    from repro.fstore import OnlineFeatureServer

    server = OnlineFeatureServer(view)
    t0 = time.perf_counter()
    vectors = [server.vector(row) for row in requests.rows[:n]]
    per_row_us = 1e6 * (time.perf_counter() - t0) / n
    bad = [i for i, vec in enumerate(vectors)
           if not np.array_equal(vec, requests.X[i], equal_nan=True)]
    return per_row_us, bad


def run(seed: int, seconds: float, trace: bool, env: dict,
        workdir: str) -> dict:
    import pipeline
    from repro import fstore, obs

    obs.set_enabled(False)
    timer = StageTimer()
    layers: dict = {}
    t0 = time.perf_counter()
    trained = pipeline.train_and_publish(seed, timer, workdir, replay=trace,
                                         layers=layers)
    train_s = time.perf_counter() - t0
    view = fstore.combination_view(
        pipeline.SPEC, pipeline.model_config().past_throughput_lags)
    requests = Requests(trained, view)
    starts = []
    gateway = None
    try:
        for _ in range(SETUP_REPEATS):
            if gateway is not None:
                gateway.stop()
            gateway, start_s = start_gateway(
                trained.registry_dir, pipeline.NAME, env, requests)
            starts.append(start_s)
        out = Client(gateway, requests, trained.version, seed,
                     seconds).run(trace)
    finally:
        if gateway is not None:
            gateway.stop()
    out["details"]["setup"] = {"train_s": train_s, "gateway_starts_s": starts}
    if trace:
        online_us, bad = online_rows(requests, view,
                                     min(2000, len(requests.rows)))
        if bad:
            out["problems"].append(f"online feature vectors differ from "
                                   f"offline rows {bad[:5]}")
        out["metrics"].update(pipeline.set_up_layers(timer, layers))
        out["metrics"]["fstore.online_row_us"] = online_us
        return out
    out["metrics"]["setup_s"] = train_s + median(starts)
    return out


class Client:
    """The measured phases against one warm gateway."""

    def __init__(self, gateway: GatewayProcess, requests: Requests,
                 version: int, seed: int, seconds: float):
        self.gateway = gateway
        self.requests = requests
        self.version = version
        self.seconds = seconds
        self.rng = np.random.default_rng([seed, 1])
        self.problems: list[str] = []
        self.phases: dict = {}
        self.rungs: list[dict] = []
        self.sent = 0
        self._cursor = 0

    def _record(self, name: str, result: PhaseResult, idx) -> PhaseResult:
        from checks import check_gateway_answers

        self.sent += len(result.samples)
        self.problems += [f"{name}: {p}" for p in check_gateway_answers(
            [s.response for s in result.samples],
            self.requests.expected[idx[:len(result.samples)]],
            self.version)]
        self.phases[name] = result.counts()
        return result

    def closed(self, name: str) -> PhaseResult:
        lines, idx = self.requests.lines(0, UNLOADED_REQUESTS)
        result = asyncio.run(closed_loop(self.gateway.port, lines,
                                         UNLOADED_SHARE * self.seconds))
        return self._record(name, result, idx)

    def open(self, name: str, rate_hz: float, duration_s: float,
             start: int | None = None) -> PhaseResult:
        offsets = poisson_schedule(rate_hz, duration_s, self.rng)
        if start is None:
            start, self._cursor = self._cursor, self._cursor + len(offsets)
        lines, idx = self.requests.lines(start, len(offsets))
        result = asyncio.run(open_loop(self.gateway.port, lines, offsets,
                                       CONNECTIONS))
        return self._record(name, result, idx)

    def bulk(self) -> tuple[PhaseResult, float]:
        """Rows spread evenly over the held-out set, so their error
        stands for the whole set's."""
        n = len(self.requests.rows)
        idx = (np.arange(BULK_REQUESTS) * n) // BULK_REQUESTS
        lines = self.requests.lines_for(idx)
        result = self._record("bulk", asyncio.run(windowed(
            self.gateway.port, lines, CONNECTIONS, IN_FLIGHT)), idx)
        answered = result.answered()
        served = np.asarray([result.samples[i].response["prediction"]
                             for i in answered], dtype=float)
        mae = float(np.mean(np.abs(served - self.requests.y[idx[answered]])))
        return result, mae

    def overload(self, rate_hz: float) -> float:
        """Answered requests per second while offered ``rate_hz``."""
        result = self.open("overload", rate_hz, OVERLOAD_S)
        answered = result.answered()
        done = max(result.samples[i].done for i in answered)
        return len(answered) / (done - result.samples[0].due)

    def meets_slo(self):
        """A rung predicate: p99 within the SLO, shed + failed in budget."""
        def attempt(rate: float) -> bool:
            result = self.open(f"slo@{rate:.1f}", rate, RUNG_S)
            counts = result.counts()
            lat = result.latencies_ms()
            p99 = quantile(lat, 0.99) if len(lat) else float("inf")
            lost = counts["attempted"] - counts["answered"]
            ok = (lost <= MAX_FAILED_SHARE * counts["attempted"]
                  and p99 <= SLO_P99_MS)
            self.rungs.append({"rate_hz": rate, "p99_ms": p99, "ok": ok,
                               **counts})
            time.sleep(0.2)  # let the shards drain between rungs
            return ok

        return lambda rate: attempt(rate) or attempt(rate)

    def run(self, trace: bool) -> dict:
        before = self.gateway.ask("stats")
        if trace:
            reference = self.closed("unloaded_untraced")
            self.gateway.ask("trace")
        unloaded = self.closed("unloaded")
        if trace:
            unloaded_calls = self.gateway.ask("stats")["predict_calls"]
        loaded = self.open("loaded", LOADED_HZ, LOADED_SHARE * self.seconds,
                           start=0)
        if trace:
            loaded_calls = self.gateway.ask("stats")["predict_calls"]
        bulk, mae = self.bulk()
        bulk_rps = len(bulk.samples) / bulk.wall_s
        capacity = self.overload(OVERLOAD_FACTOR * bulk_rps)
        slo_capacity = (capacity_search(self.meets_slo(), SLO_START_HZ,
                                        max_hz=capacity,
                                        factor=LADDER_FACTOR,
                                        resolution=RESOLUTION)
                        if trace else None)
        after = self.gateway.ask("stats")

        timed = ("unloaded", "loaded", "bulk")
        out = {
            "problems": self.problems,
            "attempted": sum(self.phases[p]["attempted"] for p in timed),
            "failed": sum(self.phases[p]["attempted"]
                          - self.phases[p]["answered"] for p in timed),
            "details": {"phases": self.phases, "capacity_rungs": self.rungs,
                        "latency_ms": {
                            "unloaded": tail(unloaded.latencies_ms()),
                            "loaded": tail(loaded.latencies_ms())},
                        "loaded_hz": LOADED_HZ, "bulk_rps": bulk_rps,
                        "server_peak_rss_mb": after["peak_rss_mb"]},
        }
        if not trace:
            out["metrics"] = {
                "wall_s": bulk.wall_s,
                "peak_rss_mb": after["peak_rss_mb"],
                "mae_mbps": mae,
                "unloaded_p95_ms": quantile(unloaded.latencies_ms(), 0.95),
                "loaded_mean_ms": mean(loaded.latencies_ms()),
                "capacity_rps": capacity,
            }
            return out

        from pipeline import zero_layers

        durations_ms = [1e3 * d for d, _ in loaded_calls]
        per_shard = [s["submitted"] - b["submitted"] for s, b in
                     zip(after["per_shard"], before["per_shard"])]
        metrics = zero_layers()
        metrics.update({
            "predict.call_p50_ms": quantile(durations_ms, 0.5),
            "predict.call_p99_ms": quantile(durations_ms, 0.99),
            "predict.rows_per_call": float(np.mean([n for _, n in
                                                    loaded_calls])),
            "gateway.shed": after["shed"] - before["shed"],
            "gateway.failures": after["failures"] - before["failures"],
            "gateway.errors": after["errors"] - before["errors"],
            "gateway.deadline_exceeded": (after["deadline_exceeded"]
                                          - before["deadline_exceeded"]),
            "gateway.shard_imbalance": (max(per_shard)
                                        / max(min(per_shard), 1)),
            "gateway.slo_capacity_rps": slo_capacity,
            "loadgen.late_p99_ms": quantile(
                [1e3 * s.late_s for s in loaded.samples], 0.99),
            "loadgen.sent": self.sent,
            "trace.overhead_ratio": (mean(unloaded.latencies_ms())
                                     / mean(reference.latencies_ms())),
            "trace.coverage": (sum(1e3 * d for d, _ in unloaded_calls)
                               / float(np.sum(unloaded.latencies_ms()))),
        })
        out["metrics"] = metrics
        return out
