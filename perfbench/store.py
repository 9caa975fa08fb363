"""Workload ``store``: the same fit out of core, as ``repro fit --from-store``.

Set-up writes a fixed-seed Airport raw campaign store of ``CHUNKS``
chunks (the chunk size is derived from the campaign's row count, so
every seed gives the same geometry).  One timed pass is
``train_from_store`` with the CLI's feature, model and task defaults
(``L+M+T+C``, gdbt, regression) and the ``--fast`` hyperparameters into
a fresh work directory, then ``streamed_error`` over its feature store.

The traced pass replays ``train_from_store`` stage by stage through the
layers' public functions (``clean_stream`` -> ``materialize_store`` ->
``bin_store`` -> ``fit_binned_stream`` -> streamed baseline) and checks
that the replay serializes to the same model as the untraced call.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import numpy as np

from common import StageTimer, cpu_seconds, median, peak_rss_mb

AREA = "Airport"
#: Walking/driving passes per trajectory: ~3.9k raw rows.
PASSES = 6
#: Chunks of the raw store; the streaming grower pays per chunk.
CHUNKS = 4
SPEC = "L+M+T+C"
MODEL = "gdbt"
TASK = "regression"
MAX_BINS = 256
SIM_WORKERS = 2
SETUP_REPEATS = 3
#: The unloaded (one request in flight) probe: at most this many
#: requests, within this share of ``--seconds``.
UNLOADED_REQUESTS = 1000
UNLOADED_SHARE = 0.25
#: The feature store's rows are scored as JSONL streams, fresh service
#: each, for this share of ``--seconds``; loaded figures are medians.
LOADED_SHARE = 0.2


def model_config():
    """``repro fit --fast``: the CLI defaults' 200 trees at depth 6 cost
    ~15 s per chunk in the streaming grower, past the run budget."""
    from repro.core.pipeline import ModelConfig

    return ModelConfig.fast()


def campaign_config(seed: int):
    from repro.sim.collection import CampaignConfig

    return CampaignConfig(passes_per_trajectory=PASSES,
                          driving_passes=PASSES, seed=seed)


def write_store(seed: int, store_dir: str, chunk_rows: int | None):
    """The raw store ``repro generate --store-dir`` writes."""
    from repro.env.areas import build_area
    from repro.sim.collection import run_area_campaign

    return run_area_campaign(build_area(AREA), campaign_config(seed),
                             workers=SIM_WORKERS, store_dir=store_dir,
                             chunk_rows=chunk_rows)


def set_up(seed: int, workdir: str) -> tuple[str, dict]:
    """Write the raw store ``SETUP_REPEATS`` times; keep the last one.

    The first write sizes the chunks: ``ceil(rows / CHUNKS)`` rows each.
    """
    sizing = write_store(seed, os.path.join(workdir, "raw-sizing"), None)
    chunk_rows = math.ceil(len(sizing) / CHUNKS)
    writes = []
    for _ in range(SETUP_REPEATS):
        store_dir = tempfile.mkdtemp(prefix="raw-", dir=workdir)
        t0, c0 = time.perf_counter(), cpu_seconds()
        reader = write_store(seed, store_dir, chunk_rows)
        writes.append((time.perf_counter() - t0, cpu_seconds() - c0))
    if reader.n_chunks != CHUNKS:
        raise RuntimeError(f"raw store has {reader.n_chunks} chunks, "
                           f"expected {CHUNKS}")
    wall = median([w for w, _ in writes])
    return store_dir, {
        "setup_s": wall,
        "raw_rows": len(reader),
        "chunks": reader.n_chunks,
        "sim_wall_s": wall,
        "sim_cpu_s": median([c for _, c in writes]),
    }


def one_pass(seed: int, store_dir: str, workdir: str):
    """``train_from_store`` + ``streamed_error``; (model, info, wall)."""
    from repro.colstore import ChunkReader
    from repro.colstore.pipeline import streamed_error, train_from_store

    work = tempfile.mkdtemp(prefix="work-", dir=workdir)
    t0 = time.perf_counter()
    estimator, info = train_from_store(
        store_dir, work, spec=SPEC, model=MODEL, task=TASK,
        config=model_config(), seed=seed, max_bins=MAX_BINS)
    feats = ChunkReader(os.path.join(work, "features"))
    cleaned = ChunkReader(os.path.join(work, "clean"))
    error = streamed_error(estimator, feats, cleaned, TASK)
    wall = time.perf_counter() - t0
    return estimator, {"info": info, "error": error, "feats": feats,
                       "cleaned": cleaned}, wall


def replay(seed: int, store_dir: str, workdir: str):
    """``train_from_store`` stage by stage, each stage timed."""
    from repro.colstore import ChunkReader
    from repro.colstore.pipeline import (
        LABEL_COLUMN,
        bin_store,
        binned_label_chunks,
        streamed_error,
        streamed_prediction_baseline,
    )
    from repro.datasets.cleaning import clean_stream
    from repro.fstore.offline import OfflineMaterializer
    from repro.fstore.views import combination_view
    from repro.ml.gbdt import GBDTRegressor

    cfg = model_config()
    work = tempfile.mkdtemp(prefix="replay-", dir=workdir)
    timer = StageTimer()
    t0 = time.perf_counter()
    raw = ChunkReader(store_dir)
    with timer.stage("clean_stream"):
        cleaned, _ = clean_stream(raw, os.path.join(work, "clean"))
    view = combination_view(SPEC,
                            past_throughput_lags=cfg.past_throughput_lags)
    with timer.stage("materialize_store"):
        feats = OfflineMaterializer(view).materialize_store(
            cleaned, os.path.join(work, "features"))
    with timer.stage("bin_store"):
        binner = bin_store(feats, max_bins=MAX_BINS)
    estimator = GBDTRegressor(
        n_estimators=cfg.gdbt_estimators, max_depth=cfg.gdbt_depth,
        learning_rate=cfg.gdbt_learning_rate,
        min_samples_leaf=cfg.gdbt_min_samples_leaf, random_state=seed)
    with timer.stage("fit_stream"):
        estimator.fit_binned_stream(
            binned_label_chunks(feats, cleaned, binner), binner)
    with timer.stage("baseline"):
        estimator.drift_baseline_ = streamed_prediction_baseline(
            estimator, feats).to_dict()
    with timer.stage("error"):
        streamed_error(estimator, feats, cleaned, TASK)
    wall = time.perf_counter() - t0
    rows = sum(len(np.asarray(c[LABEL_COLUMN]))
               for c in cleaned.iter_chunks([LABEL_COLUMN]))
    return estimator, timer, wall, {"raw_rows": len(raw), "train_rows": rows,
                                    "chunks": cleaned.n_chunks}


def stored_rows(feats):
    """The feature store's rows as one matrix (serving probe inputs)."""
    from repro.colstore.pipeline import feature_matrix_chunks

    return np.vstack(list(feature_matrix_chunks(feats)))


def stored_labels(cleaned):
    from repro.colstore.pipeline import LABEL_COLUMN

    return np.concatenate([np.asarray(c[LABEL_COLUMN], dtype=float)
                           for c in cleaned.iter_chunks([LABEL_COLUMN])])


def run(seed: int, seconds: float, trace: bool, env: dict,
        workdir: str) -> dict:
    from repro import obs
    from servepath import (check_scored, feature_lines, latency_tails,
                           phase_counts, score_jsonl, serving_metrics,
                           unloaded_probe)

    obs.set_enabled(False)
    store_dir, setup = set_up(seed, workdir)
    walls: list[float] = []
    t_start = time.perf_counter()
    while not walls or (time.perf_counter() - t_start + median(walls)
                        <= seconds):
        estimator = out = None  # free the previous pass first
        estimator, out, wall = one_pass(seed, store_dir, workdir)
        walls.append(wall)
    X = stored_rows(out["feats"])
    y = stored_labels(out["cleaned"])
    lines = feature_lines(X)
    runs: list[dict] = []
    problems: list[str] = []
    t_scored = time.perf_counter()
    while not runs or (time.perf_counter() - t_scored
                       < LOADED_SHARE * seconds):
        runs.append(score_jsonl(estimator, lines))
        run_problems, quality = check_scored(runs[-1], estimator, X, y)
        problems += run_problems
    scored = runs[-1]
    probe_problems, unloaded = unloaded_probe(
        estimator, lines[:UNLOADED_REQUESTS], X, UNLOADED_SHARE * seconds)
    problems += probe_problems
    phases = phase_counts(runs, unloaded)
    details = {
        "pass_walls_s": walls,
        "jsonl_runs": len(runs),
        "raw_rows": setup["raw_rows"],
        "train_rows": out["info"]["train_rows"],
        "chunks": out["info"]["n_chunks"],
        "streamed_mae_mbps": out["error"]["mae"],
        "served_mae_mbps": quality.get("mae_mbps"),
        "cache_aliased_answers": quality.get("aliased"),
        "phases": phases,
        "latency_ms": latency_tails(scored, unloaded),
    }
    if out["info"]["n_chunks"] < CHUNKS:
        problems.append(f"trained on {out['info']['n_chunks']} chunks, "
                        f"fewer than {CHUNKS}")
    result = {
        "problems": problems,
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": sum(p["attempted"] - p["answered"]
                      for p in phases.values()),
        "details": details,
    }
    if trace:
        layers, traced_problems = traced_layers(seed, store_dir, workdir,
                                                median(walls), estimator,
                                                setup)
        result["problems"] += traced_problems
        result["metrics"] = layers
        return result
    result["metrics"] = {
        "setup_s": setup["setup_s"],
        "wall_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "mae_mbps": out["error"]["mae"],
        **serving_metrics(runs, unloaded),
    }
    return result


def traced_layers(seed, store_dir, workdir, untraced_wall, reference,
                  setup) -> tuple[dict, list[str]]:
    from checks import model_dict_problems
    from pipeline import subtracted_ratio, zero_layers
    from repro import obs
    from repro.ml.serialize import model_to_dict

    obs.set_enabled(True)
    registry = obs.get_registry()
    registry.reset()
    estimator, timer, wall, info = replay(seed, store_dir, workdir)
    counters = registry.snapshot()["counters"]
    obs.set_enabled(False)
    replayed = model_to_dict(estimator)
    problems = [f"traced replay: {p}" for p in model_dict_problems(
        replayed, model_to_dict(reference))]
    fit_s = timer.wall("fit_stream")
    out = zero_layers()
    out.update({
        "sim.wall_s": setup["sim_wall_s"],
        "sim.cpu_s": setup["sim_cpu_s"],
        "sim.rows_per_s": setup["raw_rows"] / setup["sim_wall_s"],
        "colstore.clean_stream_s": timer.wall("clean_stream"),
        "fstore.materialize_store_s": timer.wall("materialize_store"),
        "colstore.bin_store_s": timer.wall("bin_store"),
        "fit_stream.wall_s": fit_s,
        "fit_stream.row_trees_per_s": (info["train_rows"]
                                       * len(replayed["trees"]) / fit_s),
        "fit_stream.chunks": info["chunks"],
        "fit_stream.hist_subtracted_ratio": subtracted_ratio(counters),
        "colstore.baseline_s": timer.wall("baseline"),
        "colstore.error_s": timer.wall("error"),
        "colstore.rows_per_s": info["raw_rows"] / wall,
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.coverage": timer.total_wall() / wall,
    })
    return out, problems
