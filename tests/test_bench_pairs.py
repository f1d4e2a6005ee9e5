"""The wording and the claim rule of tools/bench_pairs.py."""

import argparse
import importlib.util
import json
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


MODULE = '''"""A module docstring
over two lines."""

import math


def root(x):
    """One line."""
    # a comment
    return math.sqrt(x)   # a trailing comment
'''


def code_line_change(tmp_path, parent, change):
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for side, text in (("parent", parent), ("change", change)):
        (trees[side] / "src" / "pkg").mkdir(parents=True)
        (trees[side] / "src" / "pkg" / "mod.py").write_text(text)
    return bench_pairs.tree_code_lines(trees, "src")


def test_a_docstring_edit_changes_no_code_line(tmp_path):
    edited = MODULE.replace('"""One line."""', '"""One line,\n\n    now three."""')
    assert code_line_change(tmp_path, MODULE, edited) == {"parent": 3, "change": 3, "net": 0}


def test_an_added_statement_is_one_code_line(tmp_path):
    edited = MODULE.replace("    return", "    x = abs(x)\n\n    return")
    assert code_line_change(tmp_path, MODULE, edited) == {"parent": 3, "change": 4, "net": 1}


def test_line_change_sums_the_numstat_rows():
    numstat = ("12\t30\tsrc/flutterrom/romdyn.py\n"
               "0\t7\tsrc/flutterrom/polytensor.py\n"
               "-\t-\tsrc/flutterrom/data.bin\n"
               "5\t0\tsrc/flutterrom/new file.py\n")
    assert bench_pairs.line_change(numstat) == {"added": 17, "deleted": 37, "net": -20}
    assert bench_pairs.line_change("") == {"added": 0, "deleted": 0, "net": 0}


def test_src_line_change_of_two_trees(tmp_path):
    # and of tests/, so that code moved from src/ into tests/ shows
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for side, text in (("parent", "a\nb\nc\n"), ("change", "a\nc\nd\ne\n")):
        for sub in ("src", "tests"):
            (trees[side] / sub).mkdir(parents=True)
            (trees[side] / sub / "m.py").write_text(text)
    (trees["change"] / "src" / "new.py").write_text("x\n")
    assert bench_pairs.tree_line_change(trees, "src") == {"added": 3, "deleted": 1, "net": 2}
    assert bench_pairs.tree_line_change(trees, "tests") == {"added": 2, "deleted": 1, "net": 1}


@pytest.mark.parametrize("stdout", ["", "# environment: fake\n"])
def test_a_crashed_run_names_tree_workload_seed_and_exit_code(tmp_path, stdout):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"sys.stdout.write({stdout!r})\n"
        "sys.stderr.write('Traceback: the pass failed\\n')\n"
        "sys.exit(1)\n")
    with pytest.raises(RuntimeError) as err:
        bench_pairs.run_once(tmp_path, "w", 7, 1, 0)
    msg = str(err.value)
    assert str(tmp_path) in msg and "w seed 7" in msg
    assert "exit code 1" in msg and "the pass failed" in msg
    assert ("printed nothing" in msg) == (stdout == "")


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_refused_before_any_run(pairs, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "write_report", refuse)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--pairs", pairs, "--out", str(out)])
    assert stop.value.code == 2
    assert "the quartiles need at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pairs,traced_pairs", [(5, 3), (2, 2)])
def test_traced_runs_in_the_first_pairs_in_their_order(pairs, traced_pairs, monkeypatch,
                                                        tmp_path):
    # run_once stubbed: each run reports a per-layer value that names its
    # side and pair, so the medians and the order can be read back
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        side = tree.name
        calls.append((side, workload, seed, trace))
        value = seed - 100 + (1000 if side == "change" else 0)
        metrics = {"pass_s": {"value": 1.0}, "work_per_s": {"value": 1.0},
                   "dpim.build_s": {"value": value}}
        extras = {"continuation.s_per_point": value / 10.0} if trace else {}
        return {"failed": 0, "attempted": 1, "correct": True, "metrics": metrics,
                "extras": extras}, "env"

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "export_revision", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "export_working_tree", lambda dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "tree_line_change", lambda trees, sub: sub)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "parent")
    out = tmp_path / "bench.json"
    args = argparse.Namespace(parent="HEAD", pairs=pairs, seconds=1, seed0=100,
                                          claim=None, layer="", change_note="",
                                          traced_seconds=2, out=str(out))
    bench_pairs.write_report(args, SPEC, ["w1", "w2"], tmp_path)

    traced = [(side, w, seed) for side, w, seed, trace in calls if trace]
    expect = []
    for i in range(traced_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        expect += [(side, w, 100 + i) for w in ("w1", "w2") for side in order]
    assert traced == expect
    # each pair's traced runs follow its untraced ones
    for i in range(traced_pairs):
        pair = [trace for _, _, seed, trace in calls if seed == 100 + i]
        assert pair == [0] * 4 + [1] * 4
    assert sum(not trace for *_, trace in calls) == 4 * pairs

    report = json.loads(out.read_text())
    assert (report["src_lines"], report["tests_lines"]) == ("src", "tests")
    assert report["tests_code_lines"] == {"parent": 0, "change": 0, "net": 0}
    for w in ("w1", "w2"):
        layer = report["traced"][w]["dpim.build_s"]
        assert layer["parent"]["values"] == list(range(traced_pairs))
        assert layer["change"]["values"] == [1000 + i for i in range(traced_pairs)]
        assert layer["parent"]["median"] == (traced_pairs - 1) / 2
        assert layer["change"]["median"] == 1000 + (traced_pairs - 1) / 2
        assert layer["parent"]["min"] == 0
        assert layer["change"]["min"] == 1000
        # a traced run's workload-specific numbers sit beside its metrics
        extra = report["traced"][w]["continuation.s_per_point"]
        assert extra["parent"]["values"] == [i / 10.0 for i in range(traced_pairs)]
        assert extra["change"]["values"] == [100.0 + i / 10.0 for i in range(traced_pairs)]


def test_traced_min_is_the_least_value_of_each_side():
    # outside load only adds time: a slow traced run moves the median of
    # three, never the min
    runs = {"parent": [5.0, 3.0, 4.0], "change": [9.0, 2.0, 2.5]}
    traced = {"w": {side: [{"dpim.build_s": {"value": v}} for v in vals]
                    for side, vals in runs.items()}}
    layer = bench_pairs.summarise_traced(traced)["w"]["dpim.build_s"]
    assert layer["parent"] == {"median": 4.0, "min": 3.0, "values": [5.0, 3.0, 4.0]}
    assert layer["change"] == {"median": 2.5, "min": 2.0, "values": [9.0, 2.0, 2.5]}


def test_a_run_reports_its_workload_specific_lines(tmp_path):
    # the "# (workload-specific)" lines of perfbench/run.py, by name
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('# environment: fake')\n"
        "print('# (workload-specific) continuation.continue_s = 0.0074')\n"
        "print('# (workload-specific) continuation.s_per_point = 0.000435294')\n"
        "print('# (workload-specific) dpim.build.o7_s = 1.5e-02')\n"
        "print('# pass_s = 0.02 s')\n"
        "print('{\"correct\": true, \"metrics\": {}}')\n")
    result, env = bench_pairs.run_once(tmp_path, "w", 7, 1, 1)
    assert env == "fake"
    assert result["extras"] == {"continuation.continue_s": 0.0074,
                                "continuation.s_per_point": 0.000435294,
                                "dpim.build.o7_s": 0.015}
