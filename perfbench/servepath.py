"""In-process ``repro serve`` probes for the batch workloads.

:func:`score_jsonl` streams request lines through one
:class:`repro.serve.InferenceService` (the path ``repro serve`` takes),
timestamping when the service reads each line and when it writes each
response, so every request gets a latency under a saturated stream.
:func:`single_requests` is a closed loop through one service: one
request in flight, the unloaded latency of the same path.
"""

from __future__ import annotations

import json
import time

import numpy as np


def serve_config():
    """The ``ServeConfig`` that ``repro serve`` builds from its defaults."""
    from repro.cli import build_parser
    from repro.serve import ServeConfig

    args = build_parser().parse_args(
        ["serve", "--model", "unused.json"])
    return ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        cache_size=args.cache_size,
        cache_quant_step=args.quant_step,
        request_deadline_ms=args.deadline_ms,
        telemetry=not args.no_telemetry,
        window_s=args.window_s,
        slow_window_s=max(args.slow_window_s, args.window_s),
        latency_slo_p99_ms=args.slo_p99_ms,
        latency_slo_p999_ms=args.slo_p999_ms,
        availability_target=args.availability_target,
    )


def feature_lines(X) -> list[str]:
    """One ``{"id", "features"}`` request line per row (NaN -> null)."""
    return [json.dumps({"id": i, "features": [
        float(v) if np.isfinite(v) else None for v in row]})
        for i, row in enumerate(np.asarray(X, dtype=float).tolist())]


class _Responses:
    """A write target that keeps each response line and its write time."""

    def __init__(self):
        self.lines: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> None:
        self.times.append(time.perf_counter())
        self.lines.append(text)


def score_jsonl(model, lines: list[str]) -> dict:
    """Serve ``lines`` as one stream; responses, stats and latencies."""
    from repro.serve import InferenceService

    service = InferenceService(model, serve_config())
    read_at: list[float] = []

    def stream():
        for line in lines:
            read_at.append(time.perf_counter())
            yield line

    out = _Responses()
    t0 = time.perf_counter()
    stats = service.run_jsonl(stream(), out)
    wall_s = time.perf_counter() - t0
    responses = [json.loads(line) for line in out.lines]
    return {
        "responses": responses,
        "stats": stats,
        "cache": service.cache,
        "wall_s": wall_s,
        "latencies_ms": 1e3 * (np.asarray(out.times) - np.asarray(read_at)),
    }


def single_requests(model, lines: list[str], budget_s: float) -> dict:
    """Closed loop through one service: one request in flight.

    The service reads the next line only after it has written the
    answer to the previous one (``read_ahead=1``; with the CLI's
    256-line read-ahead a lone request waits for 255 more or for end of
    input).  Stops after ``budget_s`` seconds or when ``lines`` run out.
    """
    import dataclasses

    from repro.serve import InferenceService

    config = dataclasses.replace(serve_config(), read_ahead=1)
    out = _Responses()
    sent: list[float] = []
    t0 = time.perf_counter()

    def stream():
        for line in lines:
            now = time.perf_counter()
            if now - t0 >= budget_s:
                return
            sent.append(now)
            yield line

    service = InferenceService(model, config)
    service.run_jsonl(stream(), out)
    return {"responses": [json.loads(line) for line in out.lines],
            "cache": service.cache,
            "latencies_ms": 1e3 * (np.asarray(out.times)
                                   - np.asarray(sent))}


def answered_count(responses) -> int:
    return sum(1 for r in responses if r is not None and "prediction" in r)


def check_scored(scored: dict, model, X, y) -> tuple[list[str], dict]:
    """A :func:`score_jsonl` stream against ``model.predict`` on ``X``.

    Returns the problems found and ``{"mae_mbps", "aliased"}``: the
    mean absolute error of the served answers against ``y``, and how
    many answers the prediction cache gave from another row.
    """
    from checks import check_predictions

    responses = scored["responses"]
    missing = len(responses) - answered_count(responses)
    if missing or len(responses) != len(X):
        return [f"{missing} of {len(X)} JSONL requests unanswered"], {}
    served = np.asarray([r["prediction"] for r in responses], dtype=float)
    cache = scored["cache"]
    keys = [cache.key(row) for row in X] if cache is not None else None
    problems, aliased = check_predictions(served, model.predict(X), keys)
    return problems, {"mae_mbps": float(np.mean(np.abs(served - y))),
                      "aliased": aliased}


def unloaded_probe(model, lines: list[str], X,
                   budget_s: float) -> tuple[list[str], dict]:
    """:func:`single_requests`, checked against ``model.predict``."""
    from checks import check_predictions

    single = single_requests(model, lines, budget_s)
    responses = single["responses"]
    answered = answered_count(responses)
    problems = []
    if answered != len(responses):
        problems.append(f"{len(responses) - answered} unloaded requests "
                        "unanswered")
    else:
        rows = X[:len(responses)]
        cache = single["cache"]
        keys = [cache.key(r) for r in rows] if cache is not None else None
        problems += check_predictions(
            [r["prediction"] for r in responses], model.predict(rows),
            keys)[0]
    return problems, {"latencies_ms": single["latencies_ms"],
                      "attempted": len(responses), "answered": answered}


def serving_metrics(scored: list[dict], unloaded: dict) -> dict:
    """The serving end-to-end metrics of a batch workload.

    ``scored`` holds one or more :func:`score_jsonl` runs of the same
    lines; each loaded statistic is the median over those runs.
    """
    from common import mean, median, quantile

    return {
        "unloaded_p95_ms": quantile(unloaded["latencies_ms"], 0.95),
        "loaded_mean_ms": median([mean(s["latencies_ms"]) for s in scored]),
        "capacity_rps": median([len(s["responses"]) / s["wall_s"]
                                for s in scored]),
    }


def latency_tails(scored: dict, unloaded: dict) -> dict:
    from common import tail

    return {"unloaded": tail(unloaded["latencies_ms"]),
            "loaded": tail(scored["latencies_ms"])}


def phase_counts(scored: list[dict], unloaded: dict) -> dict:
    return {
        "jsonl": {"attempted": sum(len(s["responses"]) for s in scored),
                  "answered": sum(answered_count(s["responses"])
                                  for s in scored)},
        "unloaded": {"attempted": unloaded["attempted"],
                     "answered": unloaded["answered"]},
    }
