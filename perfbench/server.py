"""The system under test for the ``serve`` workload: one gateway process.

Loads the newest version of a registry model and serves it through
:class:`repro.gateway.AsyncGateway` on loopback with the configuration
``repro serve --gateway --shards N`` builds (CLI defaults otherwise,
telemetry on).  Run from the repository root::

    python3 perfbench/server.py --registry DIR --name NAME --shards 2

It prints one JSON line ``{"port": ...}`` once it listens, then obeys
one-word commands on stdin, answering each with one JSON line:

* ``stats``  -- gateway counters, per-shard counters, the predict
  timing proxy's samples since the last ``stats`` and this process's
  peak RSS;
* ``trace``  -- turn ``repro.obs`` and the predict timing proxy on;
* ``quit``   -- stop listening, close the gateway and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import threading
import time


class TimedModel:
    """Times every ``predict`` call of the model it wraps.

    Everything else is delegated, so the gateway's codec sees the
    wrapped model's feature-view stamp, drift baseline and arity.
    """

    def __init__(self, model):
        self._model = model
        self._lock = threading.Lock()
        self.enabled = False
        self.calls: list[tuple[float, int]] = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict(self, X):
        if not self.enabled:
            return self._model.predict(X)
        t0 = time.perf_counter()
        out = self._model.predict(X)
        dt = time.perf_counter() - t0
        with self._lock:
            self.calls.append((dt, len(X)))
        return out

    def take(self) -> list[tuple[float, int]]:
        with self._lock:
            calls, self.calls = self.calls, []
        return calls


def gateway_config(registry: str, name: str, shards: int):
    """The ``GatewayConfig`` that ``repro serve --gateway`` would build."""
    from repro.cli import build_parser
    from repro.gateway import GatewayConfig

    args = build_parser().parse_args(
        ["serve", "--gateway", "--shards", str(shards),
         "--registry", registry, "--name", name])
    return GatewayConfig(
        shards=args.shards,
        queue_depth=args.shard_queue,
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        request_deadline_ms=args.deadline_ms,
        backend=args.gateway_backend,
        telemetry=not args.no_telemetry,
        window_s=args.window_s,
        slow_window_s=max(args.slow_window_s, args.window_s),
        latency_slo_p99_ms=args.slo_p99_ms,
        latency_slo_p999_ms=args.slo_p999_ms,
        availability_target=args.availability_target,
    )


def _stats(gateway, proxy: TimedModel) -> dict:
    stats = gateway.collect_stats()
    return {
        "requests": stats.requests,
        "errors": stats.errors,
        "shed": stats.shed,
        "failures": stats.failures,
        "deadline_exceeded": stats.deadline_exceeded,
        "per_shard": [{"submitted": s["submitted"],
                       "completed": s["completed"]}
                      for s in stats.per_shard],
        "predict_calls": proxy.take(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


async def _serve(gateway, proxy: TimedModel) -> None:
    from repro import obs

    server = await gateway.serve_tcp("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    try:
        while True:
            command = (await reader.readline()).decode().strip()
            if command in ("", "quit"):
                return
            if command == "stats":
                reply = _stats(gateway, proxy)
            elif command == "trace":
                obs.set_enabled(True)
                proxy.enabled = True
                reply = {"trace": True}
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.close()
        await server.wait_closed()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--shards", type=int, default=2)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.gateway import AsyncGateway
    from repro.serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    version = registry.latest_version(args.name)
    proxy = TimedModel(registry.load_resilient(args.name, version))
    config = gateway_config(args.registry, args.name, args.shards)
    with AsyncGateway(proxy, version=version, config=config) as gateway:
        asyncio.run(_serve(gateway, proxy))
    return 0


if __name__ == "__main__":
    sys.exit(main())
