"""BENCHMARK.json: names, units, bounds and what each run must report."""

import json
import os
import re

import pytest

import run
import spec
from conftest import ROOT

DOC = spec.load(ROOT)
NAME_CHARS = re.compile(r"^[A-Za-z0-9_.-]+$")


def all_metrics():
    return DOC["end_to_end"] + DOC["per_layer"]


def test_top_level_keys():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert isinstance(DOC["run_seconds"], int)
    assert 1 <= DOC["run_seconds"] <= 60
    assert len(json.dumps(DOC)) < 64 * 1024


def test_workloads_are_the_three_and_runnable():
    names = [w["name"] for w in DOC["workloads"]]
    assert names == ["pipeline", "store", "serve"]
    assert set(names) == set(run.PARALLELISM)
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200


@pytest.mark.parametrize("metric", all_metrics(), ids=lambda m: m["name"])
def test_metric_names_and_units(metric):
    assert NAME_CHARS.match(metric["name"])
    assert spec.NAME_RE.match(metric["name"])
    assert spec.UNIT_RE.match(metric["unit"])
    assert metric["better"] in ("higher", "lower")


def test_names_are_unique():
    names = [m["name"] for m in all_metrics()]
    assert len(names) == len(set(names))
    names += [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))


def test_end_to_end_bounds():
    bounds = {}
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())
    for m in DOC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_specified_metrics_are_declared():
    e2e = {m["name"] for m in DOC["end_to_end"]}
    assert {"setup_s", "wall_s", "peak_rss_mb", "mae_mbps",
            "unloaded_p95_ms", "loaded_mean_ms", "capacity_rps"} <= e2e
    capacity = next(m for m in DOC["end_to_end"]
                    if m["name"] == "capacity_rps")
    assert capacity["better"] == "higher"


def test_package_reports_exactly_the_declared_metrics():
    for trace in (False, True):
        values = {name: 1.5 for name in spec.declared(trace, ROOT)}
        out = spec.package(values, trace, ROOT)
        assert set(out) == set(values)
        for name, unit in spec.declared(trace, ROOT).items():
            assert out[name] == {"value": 1.5, "unit": unit}


def test_package_rejects_missing_extra_and_non_finite():
    values = {name: 1.0 for name in spec.declared(False, ROOT)}
    missing = dict(values)
    missing.pop("wall_s")
    with pytest.raises(ValueError, match="wall_s"):
        spec.package(missing, False, ROOT)
    with pytest.raises(ValueError, match="bogus"):
        spec.package({**values, "bogus": 1.0}, False, ROOT)
    with pytest.raises(ValueError, match="finite"):
        spec.package({**values, "wall_s": float("nan")}, False, ROOT)


def test_zero_layers_covers_every_per_layer_metric():
    from pipeline import zero_layers

    assert set(zero_layers()) == set(spec.per_layer_names(ROOT))


def test_pinned_env_is_hermetic(monkeypatch):
    import common

    for key in common.CLEARED_ENV:
        monkeypatch.setenv(key, "x")
    for trace in (False, True):
        env = common.pinned_env(trace)
        assert not set(common.CLEARED_ENV) & set(env)
        assert env["REPRO_OBS"] == ("1" if trace else "0")
        assert env["REPRO_WORKERS"] == "1"
        assert env["REPRO_MP_CONTEXT"] == "fork"
        assert env["PYTHONPATH"].split(os.pathsep)[0] == common.SRC
