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


def test_line_change_sums_the_numstat_rows():
    numstat = ("12\t30\tsrc/flutterrom/romdyn.py\n"
               "0\t7\tsrc/flutterrom/polytensor.py\n"
               "-\t-\tsrc/flutterrom/data.bin\n"
               "5\t0\tsrc/flutterrom/new file.py\n")
    assert bench_pairs.line_change(numstat) == {"added": 17, "deleted": 37, "net": -20}
    assert bench_pairs.line_change("") == {"added": 0, "deleted": 0, "net": 0}


def test_src_line_change_of_two_trees(tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for side, text in (("parent", "a\nb\nc\n"), ("change", "a\nc\nd\ne\n")):
        (trees[side] / "src").mkdir(parents=True)
        (trees[side] / "src" / "m.py").write_text(text)
    (trees["change"] / "src" / "new.py").write_text("x\n")
    assert bench_pairs.src_line_change(trees) == {"added": 3, "deleted": 1, "net": 2}


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
