"""Run one benchmark workload and print its result as the last line.

From the root of a checkout::

    python3 perfbench/run.py --workload store --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload traced and reports the per-layer
metrics.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (prefixed ``# details``) records the
host, the parallelism used and per-phase request counts.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spec  # noqa: E402

#: Processes and threads each workload keeps busy at once.  A host with
#: fewer usable cores than ``cores`` is refused: parallel figures taken
#: on fewer cores than workers measure time-slicing, not the program.
PARALLELISM = {
    "pipeline": {"workers": 2, "shards": 0, "connections": 0, "cores": 2},
    "store": {"workers": 2, "shards": 0, "connections": 0, "cores": 2},
    "serve": {"workers": 2, "shards": 2, "connections": 2, "cores": 2},
}

#: Scratch space inside the checkout; removed after every run.
WORK_ROOT = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    env = common.pinned_env(trace)
    if name == "pipeline":
        import pipeline as workload
    elif name == "store":
        import store as workload
    else:
        import serve as workload
    return workload.run(seed, seconds, trace, env, workdir)


def _exit_on_sigterm(signum, _frame):
    """SIGTERM raises SystemExit, so the finally blocks stop the gateway
    and pool processes and remove the scratch directory."""
    sys.exit(128 + signum)


def _default_sigterm() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    try:
        workloads = spec.workload_names(root)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads or args.workload not in PARALLELISM:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{workloads}", file=sys.stderr)
        return 2
    parallelism = PARALLELISM[args.workload]
    if common.cores() < parallelism["cores"]:
        print(f"perfbench: {args.workload} needs {parallelism['cores']} "
              f"cores, this host has {common.cores()}; refusing to record "
              "figures that would measure time-slicing", file=sys.stderr)
        return 3
    trace = bool(args.trace)
    common.pin_environment(trace)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # Forked pool workers keep the default: the pool terminates them
    # with SIGTERM and joins them, which a Python-level handler can stall.
    os.register_at_fork(after_in_child=_default_sigterm)
    os.makedirs(os.path.join(root, WORK_ROOT), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(root, WORK_ROOT))
    speed_before = common.host_speed()
    t0 = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace,
                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass
    metrics = spec.package(result["metrics"], trace, root)
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": trace,
        "run_wall_s": time.perf_counter() - t0,
        "host_speed_loops_per_s": [speed_before, common.host_speed()],
        "host": common.host_block(parallelism),
        "problems": result["problems"],
        **result["details"],
    }
    print("# details " + json.dumps(details, sort_keys=True, default=str))
    for problem in result["problems"]:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    correct = not result["problems"]
    common.emit({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
