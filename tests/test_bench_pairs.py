import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
METRICS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, name="images_per_s"):
    """Synthetic runs of one workload: pair i holds parent[i] and change[i]."""
    return [{"workload": "w", "pair": i, "side": side,
             "result": {"metrics": {name: {"value": value}}}}
            for i, values in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), values)]


HIGHER = [{"name": "images_per_s", "better": "higher", "bound": 0.25}]
LOWER = [{"name": "images_per_s", "better": "lower", "bound": 0.25}]


def test_a_tight_parent_resolves_the_comparison(bench_pairs):
    s = bench_pairs.summarise(_runs([100, 101, 99, 100, 102], [90, 91, 89, 92, 90]),
                              HIGHER)["w"]["images_per_s"]
    assert s["parent"]["median"] == 100 and s["change"]["median"] == 90
    assert s["change_better_pairs"] == 0 and s["pairs"] == 5
    assert s["within_bound"] and not s["unresolved"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # quartiles 80 and 120 around a median of 100: a spread of 40 > 0.25 * 100
    parent = [60, 80, 100, 120, 140]
    s = bench_pairs.summarise(_runs(parent, [95, 105, 100, 110, 90]), HIGHER)
    assert s["w"]["images_per_s"]["unresolved"]
    # unless every change run beats every parent run, in the metric's direction
    s = bench_pairs.summarise(_runs(parent, [141, 150, 160, 145, 170]), HIGHER)
    assert not s["w"]["images_per_s"]["unresolved"]
    s = bench_pairs.summarise(_runs(parent, [59, 50, 40, 55, 30]), HIGHER)
    assert s["w"]["images_per_s"]["unresolved"]
    s = bench_pairs.summarise(_runs(parent, [59, 50, 40, 55, 30]), LOWER)
    assert not s["w"]["images_per_s"]["unresolved"]


def test_a_median_past_the_bound_is_flagged(bench_pairs):
    s = bench_pairs.summarise(_runs([100] * 4, [70] * 4), HIGHER)["w"]["images_per_s"]
    assert not s["within_bound"] and not s["unresolved"]
    s = bench_pairs.summarise(_runs([100] * 4, [130] * 4), LOWER)["w"]["images_per_s"]
    assert not s["within_bound"]
    s = bench_pairs.summarise(_runs([100] * 4, [120] * 4), LOWER)["w"]["images_per_s"]
    assert s["within_bound"]


def test_pairs_missing_a_side_or_a_result_are_left_out(bench_pairs):
    runs = _runs([100, 100, 100], [90, 90, 90])
    runs[1]["result"] = None  # pair 0 lost its change run
    runs = runs[:-1]  # pair 2 lost its change run
    s = bench_pairs.summarise(runs, HIGHER)["w"]["images_per_s"]
    assert s["pairs"] == 1 and s["runs"] == {"parent": [100], "change": [90]}


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_spread(bench_pairs):
    # parent quartiles 99.25 and 100.75: an interquartile range of 1.5
    parent = [99, 100, 101, 100, 99, 101, 100, 98, 102, 100]
    s = bench_pairs.summarise(_runs(parent, [103] * 9 + [97]), HIGHER)["w"]["images_per_s"]
    assert s["change_better_pairs"] == 9 and s["gain"]
    s = bench_pairs.summarise(_runs(parent, [103] * 8 + [97] * 2), HIGHER)["w"]["images_per_s"]
    assert s["change_better_pairs"] == 8 and not s["gain"]
    # every pair won, but the medians differ by 1, less than the spread
    s = bench_pairs.summarise(_runs(parent, [v + 1 for v in parent]), HIGHER)["w"]["images_per_s"]
    assert s["change_better_pairs"] == 10 and not s["gain"]
    # ties count for neither side
    s = bench_pairs.summarise(_runs(parent, [103] * 8 + parent[8:]), HIGHER)["w"]["images_per_s"]
    assert s["change_better_pairs"] == 8 and not s["gain"]
    # a lower-is-better metric gains downwards
    s = bench_pairs.summarise(_runs(parent, [97] * 10), LOWER)["w"]["images_per_s"]
    assert s["gain"]
    s = bench_pairs.summarise(_runs(parent, [103] * 10), LOWER)["w"]["images_per_s"]
    assert not s["gain"] and s["change_better_pairs"] == 0


def test_the_pair_ratios_see_a_change_that_drift_on_both_sides_hides(bench_pairs):
    # both sides of pairs 0-3 run 40% slower, and the change wins every pair
    # by 21-86%: the medians' gap stays inside the parent's spread, so no
    # gain is read, but every ratio quartile lies on the better side
    parent = [1.6, 1.7, 1.65, 1.6, 2.6, 2.65, 2.6, 2.7, 2.6, 2.65]
    won_by = [1.86, 1.5, 1.7, 1.6, 1.21, 1.25, 1.3, 1.22, 1.28, 1.24]
    change = [p * r for p, r in zip(parent, won_by)]
    s = bench_pairs.summarise(_runs(parent, change), HIGHER)["w"]["images_per_s"]
    assert s["change_better_pairs"] == 10 and not s["gain"]
    assert s["ratio"]["q1"] > 1 and s["ratio"]["median"] > 1 and s["ratio"]["q3"] > 1
    assert s["ratio"]["median"] == pytest.approx(1.29)
    # as times, lower is better: the same pairs give ratios below 1
    s = bench_pairs.summarise(_runs([1 / v for v in parent], [1 / v for v in change]),
                              LOWER)["w"]["images_per_s"]
    assert s["change_better_pairs"] == 10 and not s["gain"]
    assert s["ratio"]["q1"] < 1 and s["ratio"]["median"] < 1 and s["ratio"]["q3"] < 1


def _replay(bench_pairs, path, *keys):
    """Summaries of the committed pairs of one workload of a ``BENCH_*.json``,
    every end-to-end metric under its bound in ``BENCHMARK.json``."""
    workload = json.loads((ROOT / path).read_text())["workloads"]
    for key in keys:
        workload = workload[key]
    return {name: bench_pairs.summarise(
                _runs(workload[name]["runs"]["parent"], workload[name]["runs"]["change"], name),
                [m])["w"][name]
            for name, m in METRICS.items()}


def test_the_pairs_read_the_gain_bench_22_set_1_hid(bench_pairs):
    # attack16, 10 of 10 pairs won at ratios 1.21-1.86; drift on both sides
    # of pairs 0-3 leaves the side medians inside the parent's spread
    s = _replay(bench_pairs, "BENCH_22.json", "set_1", "attack16")["images_per_s"]
    ratios = [c / p for p, c in zip(s["runs"]["parent"], s["runs"]["change"])]
    assert 1.2 < min(ratios) < 1.22 and 1.85 < max(ratios) < 1.87
    assert s["change_better_pairs"] == 10
    assert not s["gain"] and s["unresolved"]
    assert s["paired_gain"] and not s["paired_worse"] and not s["paired_unresolved"]


def test_the_pairs_resolve_bench_25_certify32(bench_pairs):
    s = _replay(bench_pairs, "BENCH_25.json", "certify32")
    for name, (q1, q3) in {"images_per_s": (0.934, 1.066), "op_ms_p50": (0.955, 1.040)}.items():
        assert (s[name]["ratio"]["q1"], s[name]["ratio"]["q3"]) == \
            (pytest.approx(q1, abs=5e-4), pytest.approx(q3, abs=5e-4)), name
        assert s[name]["within_bound"] and s[name]["unresolved"], name
        assert not (s[name]["paired_worse"] or s[name]["paired_unresolved"]
                    or s[name]["paired_gain"]), name
    # no metric of the set reads worse than its bound under either rule
    assert all(v["within_bound"] and not v["paired_worse"] for v in s.values())


def test_the_pairs_flag_a_regression_past_the_bound_under_drift(bench_pairs):
    # every pair loses 26-28% images/s, and drift slows both runs of pairs
    # 2, 3, 5 and 8 by 40%
    drift = [1.0, 1.0, 0.6, 0.6, 1.0, 0.6, 1.0, 1.0, 0.6, 1.0]
    parent = [100 * d * (1 + 0.01 * (i % 3)) for i, d in enumerate(drift)]
    lost = [0.26, 0.27, 0.28, 0.27, 0.26, 0.28, 0.27, 0.26, 0.28, 0.27]
    change = [p * (1 - x) for p, x in zip(parent, lost)]
    s = bench_pairs.summarise(_runs(parent, change), HIGHER)["w"]["images_per_s"]
    assert s["paired_worse"] and not s["paired_unresolved"] and not s["paired_gain"]
    assert s["ratio"]["median"] == pytest.approx(0.73)
    assert s["unresolved"]  # the parent's own spread is 40% of its median
    # as times, lower is better: the same pairs are worse past 1 + bound
    s = bench_pairs.summarise(_runs([1 / v for v in parent], [1 / v for v in change]),
                              LOWER)["w"]["images_per_s"]
    assert s["paired_worse"] and not s["paired_unresolved"]


def test_ratio_quartiles_straddling_the_line_are_unresolved(bench_pairs):
    # ratios 0.6-0.9 around the line at 0.75: not past it in the median
    parent = [100] * 8
    change = [60, 65, 70, 74, 76, 80, 85, 90]
    s = bench_pairs.summarise(_runs(parent, change), HIGHER)["w"]["images_per_s"]
    assert s["paired_unresolved"] and not s["paired_worse"]
    s = bench_pairs.summarise(_runs(parent, [v - 3 for v in change]), HIGHER)["w"]["images_per_s"]
    assert s["paired_unresolved"] and s["paired_worse"]
