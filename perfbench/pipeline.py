"""Workload ``pipeline``: campaign to served prediction, in memory.

One timed pass is the batch job a user runs end to end:

1. a fixed-seed campaign over Airport, Intersection and Loop
   (``generate_datasets(..., use_cache=False, workers=2)``);
2. ``fstore.extract`` of ``L+M`` on the pooled Global table;
3. a run-wise split (``split_by_run``);
4. ``GBDTRegressor`` at ``ModelConfig()`` defaults, fit on training runs;
5. publish to a fresh ``ModelRegistry`` (drift baseline and feature view
   attached, as ``Lumos5G.publish`` does) and load it back;
6. score the held-out runs through ``InferenceService.run_jsonl``.

The traced pass replays step 1 through the layers' own public
functions (``run_area_campaign`` and ``clean`` per area on a 2-worker
``pmap``, pooled as ``generate_datasets`` pools) so sim and clean are
timed apart, and checks that the replay builds the same Global table.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from common import StageTimer, median, peak_rss_mb

AREAS = ("Airport", "Intersection", "Loop")
#: Walking/driving passes per trajectory: ~32k cleaned rows in total.
PASSES = 5
SPEC = "L+M"
NAME = "pipeline-lm-gdbt-reg"
WORKERS = 2
#: The unloaded (one request in flight) probe: at most this many
#: requests, within this share of ``--seconds``.
UNLOADED_REQUESTS = 1000
UNLOADED_SHARE = 0.25
#: Fresh-interpreter start-ups timed as set-up.
SETUP_REPEATS = 3

#: What a fresh interpreter imports before the pipeline can start.
_IMPORTS = ("import repro.datasets.generate, repro.fstore, "
            "repro.ml.gbdt, repro.ml.preprocessing, repro.serve, "
            "repro.core.pipeline, repro.cli")


@dataclass
class Trained:
    """What one pass produced, kept for the checks and probes."""

    model: object
    served_model: object
    registry_dir: str
    version: int
    table: object
    X_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    test_rows: np.ndarray
    n_train: int
    scored: dict | None = None


def campaign_config(seed: int):
    from repro.sim.collection import CampaignConfig

    return CampaignConfig(passes_per_trajectory=PASSES,
                          driving_passes=PASSES, seed=seed)


def model_config():
    from repro.core.pipeline import ModelConfig

    return ModelConfig()


def startup_s(env: dict) -> float:
    """Wall time of one fresh interpreter importing the pipeline."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORTS], env=env, check=True,
                   cwd=os.getcwd())
    return time.perf_counter() - t0


def _area_task(campaign, area: str):
    """One area's sim and clean, timed apart (runs in a pool worker)."""
    from repro.datasets.cleaning import clean
    from repro.env.areas import build_area
    from repro.sim.collection import run_area_campaign

    t0, c0 = time.perf_counter(), time.process_time()
    raw = run_area_campaign(build_area(area), campaign)
    sim_wall, sim_cpu = time.perf_counter() - t0, time.process_time() - c0
    t0 = time.perf_counter()
    cleaned, report = clean(raw)
    clean_wall = time.perf_counter() - t0
    next_offset = int(np.asarray(raw["run_id"], dtype=int).max()) + 1
    return {"area": area, "cleaned": cleaned, "raw_rows": len(raw),
            "next_offset": next_offset, "sim_wall": sim_wall,
            "sim_cpu": sim_cpu, "clean_wall": clean_wall,
            "retention": report.retention}


def _replay_campaign(seed: int, layers: dict):
    """Step 1 through ``run_area_campaign`` + ``clean``; Global table."""
    from repro.datasets.frame import Table
    from repro.par import pmap

    results = pmap(partial(_area_task, campaign_config(seed)), list(AREAS),
                   workers=WORKERS, label="perfbench.campaign")
    pooled, offset = [], 0
    for r in results:
        cleaned = r["cleaned"]
        pooled.append(cleaned.with_column(
            "run_id", np.asarray(cleaned["run_id"], dtype=int) + offset))
        offset += r["next_offset"]
    layers.update({
        "raw_rows": sum(r["raw_rows"] for r in results),
        "clean_rows": sum(len(r["cleaned"]) for r in results),
        "sim_busy": sum(r["sim_wall"] for r in results),
        "sim_cpu": sum(r["sim_cpu"] for r in results),
        "clean_busy": sum(r["clean_wall"] for r in results),
    })
    return Table.concat(pooled)


def train_and_publish(seed: int, timer: StageTimer, workdir: str, *,
                      replay: bool = False,
                      layers: dict | None = None) -> Trained:
    """Steps 1-5; every call into the program runs inside a stage."""
    from repro import fstore
    from repro.datasets.generate import generate_datasets
    from repro.ml.gbdt import GBDTRegressor
    from repro.ml.preprocessing import split_by_run
    from repro.obs.telemetry import attach_baseline
    from repro.serve import ModelRegistry

    cfg = model_config()
    with timer.stage("campaign"):
        if replay:
            table = _replay_campaign(seed, layers)
        else:
            table = generate_datasets(
                areas=AREAS, passes_per_trajectory=PASSES, seed=seed,
                include_global=True, use_cache=False, workers=WORKERS,
            )["Global"]
    with timer.stage("extract"):
        fm = fstore.extract(table, SPEC, cfg.past_throughput_lags)
        y = fstore.target(table)
    with timer.stage("split"):
        train, test = split_by_run(np.asarray(table["run_id"]), rng=seed)
    with timer.stage("fit"):
        model = GBDTRegressor(
            n_estimators=cfg.gdbt_estimators, max_depth=cfg.gdbt_depth,
            learning_rate=cfg.gdbt_learning_rate,
            min_samples_leaf=cfg.gdbt_min_samples_leaf, random_state=seed,
        ).fit(fm.X[train], y[train])
    with timer.stage("baseline"):
        attach_baseline(model, model.predict(fm.X[train]))
        fstore.attach_view(model, fstore.combination_view(
            SPEC, cfg.past_throughput_lags))
    registry_dir = tempfile.mkdtemp(prefix="registry-", dir=workdir)
    with timer.stage("publish"):
        version = ModelRegistry(registry_dir).save(NAME, model)
    with timer.stage("load"):
        served = ModelRegistry(registry_dir).load_resilient(NAME, version)
    return Trained(model=model, served_model=served,
                   registry_dir=registry_dir, version=version, table=table,
                   X_train=fm.X[train], X_test=fm.X[test], y_test=y[test],
                   test_rows=np.flatnonzero(test), n_train=int(train.sum()))


def one_pass(seed: int, workdir: str, *, replay: bool = False,
             layers: dict | None = None) -> tuple[Trained, StageTimer, float]:
    """Steps 1-6 as one timed pass; returns (result, stages, wall_s)."""
    from servepath import feature_lines, score_jsonl

    timer = StageTimer()
    t0 = time.perf_counter()
    trained = train_and_publish(seed, timer, workdir, replay=replay,
                                layers=layers)
    with timer.stage("loadgen"):
        lines = feature_lines(trained.X_test)
    with timer.stage("jsonl"):
        trained.scored = score_jsonl(trained.served_model, lines)
    trained.scored["lines"] = lines
    return trained, timer, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, env: dict,
        workdir: str) -> dict:
    """Run the workload; returns the result fields for ``run.py``."""
    from repro import obs
    from servepath import (check_scored, latency_tails, phase_counts,
                           serving_metrics, unloaded_probe)

    setup = [startup_s(env) for _ in range(SETUP_REPEATS)]
    walls: list[float] = []
    t_start = time.perf_counter()
    obs.set_enabled(False)
    while not walls or (time.perf_counter() - t_start + median(walls)
                        <= seconds):
        trained = None  # free the previous pass before the next one
        trained, _, wall = one_pass(seed, workdir)
        walls.append(wall)
    scored = trained.scored
    problems, quality = check_scored(scored, trained.model, trained.X_test,
                                     trained.y_test)
    probe_problems, unloaded = unloaded_probe(
        trained.served_model, scored["lines"][:UNLOADED_REQUESTS],
        trained.X_test, UNLOADED_SHARE * seconds)
    problems += probe_problems
    phases = phase_counts([scored], unloaded)
    details = {
        "pass_walls_s": walls,
        "rows": len(trained.table),
        "train_rows": trained.n_train,
        "test_rows": len(trained.X_test),
        "cache_aliased_answers": quality.get("aliased"),
        "phases": phases,
        "latency_ms": latency_tails(scored, unloaded),
    }
    result = {
        "problems": problems,
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": sum(p["attempted"] - p["answered"]
                      for p in phases.values()),
        "details": details,
    }
    if trace:
        layers, traced_problems = traced_layers(seed, workdir,
                                                median(walls), trained)
        result["problems"] += traced_problems
        result["metrics"] = layers
        return result
    result["metrics"] = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "mae_mbps": quality.get("mae_mbps", float("nan")),
        **serving_metrics([scored], unloaded),
    }
    return result


def traced_layers(seed: int, workdir: str, untraced_wall: float,
                  untraced: Trained) -> tuple[dict, list[str]]:
    """One traced pass: per-layer metrics and the replay check."""
    from repro import obs
    from repro.ml.serialize import model_to_dict
    from repro.ml.tree import FeatureBinner
    from servepath import check_scored

    obs.set_enabled(True)
    registry = obs.get_registry()
    registry.reset()
    layers: dict = {}
    trained, timer, wall = one_pass(seed, workdir, replay=True,
                                    layers=layers)
    counters = registry.snapshot()["counters"]
    problems = [f"traced replay: {p}" for p in check_scored(
        trained.scored, trained.model, trained.X_test, trained.y_test)[0]]
    if not tables_equal(trained.table, untraced.table):
        problems.append("traced campaign replay differs from "
                        "generate_datasets")
    t0 = time.perf_counter()
    FeatureBinner(trained.model.max_bins).fit_transform(trained.X_train)
    bin_s = time.perf_counter() - t0
    obs.set_enabled(False)

    trees = model_to_dict(trained.model)["trees"]
    scored = trained.scored
    stats = scored["stats"]
    out = zero_layers()
    out.update(set_up_layers(timer, layers))
    out.update({
        "bin.wall_s": bin_s,
        "fit.row_trees_per_s": (trained.n_train * len(trees)
                                / timer.wall("fit")),
        "fit.nodes": sum(len(t["nodes"]) for t in trees),
        "fit.hist_subtracted_ratio": subtracted_ratio(counters),
        "predict.batch_rows_per_s": trained.n_train / timer.wall("baseline"),
        "serve.jsonl_rows_per_s": len(scored["lines"]) / timer.wall("jsonl"),
        "serve.rows_per_batch": stats.requests / max(stats.batches, 1),
        "serve.cache_hit_ratio": stats.cache_hits / max(stats.requests, 1),
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.coverage": timer.total_wall() / wall,
    })
    return out, problems


def set_up_layers(timer: StageTimer, layers: dict) -> dict:
    """Layers of steps 1-5 from a replayed pass's stage timings.

    In the 2-worker campaign stage, wall time is split between sim and
    clean in proportion to their busy time in the workers.
    """
    campaign = timer.wall("campaign")
    sim_wall = campaign * layers["sim_busy"] / (layers["sim_busy"]
                                                + layers["clean_busy"])
    return {
        "sim.wall_s": sim_wall,
        "sim.cpu_s": layers["sim_cpu"],
        "sim.rows_per_s": layers["raw_rows"] / sim_wall,
        "clean.wall_s": campaign - sim_wall,
        "clean.retention": layers["clean_rows"] / layers["raw_rows"],
        "fstore.extract_s": timer.wall("extract"),
        "fit.wall_s": timer.wall("fit"),
        "fit.cpu_s": timer.cpu("fit"),
        "registry.publish_s": timer.wall("publish"),
        "registry.load_s": timer.wall("load"),
    }


def subtracted_ratio(counters: dict) -> float:
    """Histograms built by sibling subtraction / all histograms."""
    built = counters.get("tree.hist_built_total", 0)
    subtracted = counters.get("tree.hist_subtracted_total", 0)
    return subtracted / max(built + subtracted, 1)


def tables_equal(a, b) -> bool:
    return (sorted(a.column_names) == sorted(b.column_names)
            and len(a) == len(b)
            and all(np.array_equal(np.asarray(a[n]), np.asarray(b[n]),
                                   equal_nan=np.asarray(a[n]).dtype.kind
                                   == "f")
                    for n in a.column_names))


def zero_layers() -> dict:
    from spec import per_layer_names

    return {name: 0.0 for name in per_layer_names()}
