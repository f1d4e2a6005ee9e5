"""The wording and the claim rule of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.2},
                       {"name": "work_per_s", "better": "higher", "bound": 0.2}]}


@pytest.mark.parametrize("parent,change,better,words", [
    (0.044, 0.033, "lower", "better by 25.00%"),
    (0.044, 0.055, "lower", "worse by 25.00%"),
    (100.0, 122.0, "higher", "better by 22.00%"),
    (100.0, 78.0, "higher", "worse by 22.00%"),
    (1.0, 1.0, "lower", "unchanged"),
])
def test_change_is_worded_in_the_metric_direction(parent, change, better, words):
    assert bench_pairs.change_words(parent, change, better)[1] == words


def result(pass_s, work):
    return {"failed": 0, "attempted": 10, "correct": True,
            "metrics": {"pass_s": {"value": pass_s}, "work_per_s": {"value": work}}}


def summary(parent, change):
    runs = {"w": {"parent": [result(p, 1.0 / p) for p in parent],
                  "change": [result(c, 1.0 / c) for c in change]}}
    return bench_pairs.summarise(SPEC, runs)


def test_claim_needs_nine_wins_in_ten_and_a_gain_past_the_parent_spread():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    met = summary(parent, [0.75] * 9 + [1.05])
    assert bench_pairs.claim_verdict(met, "w:pass_s", "layer")["met"]
    assert met["w"]["metrics"]["pass_s"]["change_wins"] == 9
    assert met["w"]["metrics"]["work_per_s"]["median_change"] == "better by 33.33%"
    eight_wins = summary(parent, [0.75] * 8 + [1.05] * 2)
    assert not bench_pairs.claim_verdict(eight_wins, "w:pass_s", "layer")["met"]
    within_spread = summary(parent, [p - 0.005 for p in parent])
    assert not bench_pairs.claim_verdict(within_spread, "w:pass_s", "layer")["met"]
