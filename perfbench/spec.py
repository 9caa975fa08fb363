"""The metric declarations, read from ``BENCHMARK.json`` at the root.

``BENCHMARK.json`` is the single list of workloads and metrics: a run
must report exactly the declared end-to-end metrics (untraced) or
per-layer metrics (traced), each with its declared unit.
"""

from __future__ import annotations

import json
import os
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(root: str | None = None) -> dict:
    path = os.path.join(root or os.getcwd(), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def declared(trace: bool, root: str | None = None) -> dict[str, str]:
    """``{metric name: unit}`` a run must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in load(root)[key]}


def per_layer_names(root: str | None = None) -> list[str]:
    return list(declared(True, root))


def workload_names(root: str | None = None) -> list[str]:
    return [w["name"] for w in load(root)["workloads"]]


def package(values: dict, trace: bool, root: str | None = None) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.

    Raises ``ValueError`` if a declared metric is missing, an extra one
    is present, or a value is not a finite number.
    """
    units = declared(trace, root)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    out = {}
    for name, unit in units.items():
        value = float(values[name])
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out
