"""Output checks: the benchmark fails a run whose answers are wrong.

Each check returns a list of human-readable problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import numpy as np


def check_predictions(served, expected, keys=None) -> tuple[list[str], int]:
    """Served predictions against ``model.predict`` on the same rows.

    ``served[i]`` must equal ``expected[i]`` bit for bit.  When ``keys``
    (one prediction-cache key per row) is given, a served value may
    instead equal ``expected[j]`` for an earlier row ``j`` with the same
    key: the serving cache answers near-identical rows with the first
    such row's prediction.  Returns ``(problems, aliased)`` where
    ``aliased`` counts answers that came from another row that way.
    """
    served = np.asarray(served, dtype=float)
    expected = np.asarray(expected, dtype=float)
    problems: list[str] = []
    if served.shape != expected.shape:
        return [f"{served.size} answers for {expected.size} rows"], 0
    seen: dict = {}
    aliased = 0
    for i, (got, want) in enumerate(zip(served.tolist(),
                                        expected.tolist())):
        earlier = seen.setdefault(keys[i], set()) if keys is not None \
            else set()
        if got != want:
            if got in earlier:
                aliased += 1
            elif len(problems) < 5:
                problems.append(f"row {i}: served {got!r}, "
                                f"model.predict {want!r}")
            else:
                problems.append("...")
                break
        earlier.add(want)
    return problems, aliased


def check_gateway_answers(responses, expected, version: int) -> list[str]:
    """Every gateway answer equals its row's prediction and carries
    the serving ``model_version``; unanswered requests are counted by
    the phase, not here."""
    problems: list[str] = []
    for i, r in enumerate(responses):
        if r is None or "prediction" not in r:
            continue
        if r.get("model_version") != version:
            problems.append(f"request {i}: model_version "
                            f"{r.get('model_version')!r} != {version}")
        elif float(r["prediction"]) != float(expected[i]):
            problems.append(f"request {i}: served {r['prediction']!r}, "
                            f"model.predict {float(expected[i])!r}")
        if len(problems) >= 5:
            break
    return problems


def model_dict_problems(got: dict, want: dict) -> list[str]:
    """Two serialized models must be equal apart from fit wall time.

    ``telemetry`` records how long the fit took, so it differs between
    any two fits; every other field (trees, binner, baseline, view)
    must match exactly.
    """
    a = {k: v for k, v in got.items() if k != "telemetry"}
    b = {k: v for k, v in want.items() if k != "telemetry"}
    if a == b:
        return []
    differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"serialized models differ in {differing}"]
