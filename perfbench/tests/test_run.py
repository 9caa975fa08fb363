"""The entry point: refusals, and full runs reporting every metric.

The full runs take a few minutes; they are marked ``slow``::

    python3 -m pytest perfbench/tests -m slow
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spec
from conftest import BENCH, ROOT


def _run(cwd, *args, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "pipeline", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_refuses_unknown_workload():
    out = _run(ROOT, "--workload", "nope", "--seed", "1", "--seconds", "1",
               timeout=60)
    assert out.returncode == 2 and out.stdout == ""


def test_refuses_fewer_cores_than_its_parallelism(monkeypatch, capsys):
    import common

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(common, "cores", lambda: 1)
    code = run.main(["--workload", "serve", "--seed", "1", "--seconds", "1"])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.workload_names(ROOT))
def test_workload_reports_every_declared_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec.declared(bool(trace), ROOT)
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
    details = json.loads(lines[-2].removeprefix("# details "))
    host = details["host"]
    assert host["cpu_count"] == os.cpu_count()
    assert {"python", "numpy", "git_sha", "workers", "shards",
            "connections"} <= set(host)
    assert not os.path.exists(os.path.join(ROOT, run.WORK_ROOT))
