"""The output checks accept correct answers and reject perturbed ones."""

import numpy as np

from checks import check_gateway_answers, check_predictions, \
    model_dict_problems


def bump(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def test_exact_predictions_pass():
    expected = np.array([1.5, 2.25, 300.125])
    assert check_predictions(expected.copy(), expected) == ([], 0)


def test_one_ulp_perturbation_fails():
    expected = np.array([1.5, 2.25, 300.125])
    served = expected.copy()
    served[1] = bump(served[1])
    problems, _ = check_predictions(served, expected)
    assert len(problems) == 1 and "row 1" in problems[0]


def test_cache_alias_needs_an_earlier_row_with_the_same_key():
    expected = np.array([10.0, 11.0, 12.0])
    keys = [b"a", b"b", b"a"]
    # Row 2 answered from row 0's cache entry: allowed, counted.
    problems, aliased = check_predictions([10.0, 11.0, 10.0], expected, keys)
    assert problems == [] and aliased == 1
    # Row 2 answered with row 1's value: different key, rejected.
    problems, _ = check_predictions([10.0, 11.0, 11.0], expected, keys)
    assert problems
    # Row 0 cannot be answered from a later row.
    problems, _ = check_predictions([10.0, 11.0, 12.0][::-1],
                                    expected, [b"a", b"b", b"a"])
    assert problems
    # A perturbed value matches no row at all.
    problems, _ = check_predictions([10.0, 11.0, bump(10.0)], expected,
                                    keys)
    assert problems


def test_length_mismatch_fails():
    assert check_predictions([1.0], [1.0, 2.0])[0]


def test_gateway_answers():
    expected = np.array([5.0, 6.0, 7.0])
    good = [{"prediction": 5.0, "model_version": 3},
            {"prediction": 6.0, "model_version": 3},
            {"error": "service unavailable: queue full", "status": 429}]
    assert check_gateway_answers(good, expected, 3) == []
    perturbed = [dict(r) for r in good]
    perturbed[1]["prediction"] = bump(6.0)
    assert check_gateway_answers(perturbed, expected, 3)
    unstamped = [dict(r) for r in good]
    del unstamped[0]["model_version"]
    assert check_gateway_answers(unstamped, expected, 3)
    assert check_gateway_answers(good, expected, 4)


def test_model_dicts_ignore_only_fit_timing():
    a = {"trees": [{"nodes": [1, 2]}], "telemetry": {"fit_wall_s": 1.0}}
    b = {"trees": [{"nodes": [1, 2]}], "telemetry": {"fit_wall_s": 2.0}}
    assert model_dict_problems(a, b) == []
    c = {"trees": [{"nodes": [1, 3]}], "telemetry": {"fit_wall_s": 1.0}}
    assert model_dict_problems(a, c) == ["serialized models differ in "
                                         "['trees']"]
