"""Alternating parent/change pairs of perfbench/run.py, summarised into one
BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 30 \
        --claim ziegler2-branch:pass_s --layer "linear analysis" \
        --change-note "what the change does" --out BENCH_26.json

The parent side is `git archive` of the --parent revision; the change side
is the working tree's src/, perfbench/, BENCHMARK.json and tests/ (copied
for its line counts alone; the runs do not read it). Both are copied
into --workdir before the first run, so edits made while the pairs run reach
neither side. `git archive` rather than a worktree leaves the repository's
.git untouched.

Pair i runs every workload once per side with seed --seed0 + i, one
process at a time. The parent runs first in even pairs and second in odd
ones. Each end-to-end metric of BENCHMARK.json gets, per workload:

- the median and quartiles (inclusive method) of each side;
- the number of pairs the change won (ties count for neither);
- the median change, worded "better by X%" or "worse by X%" in the
  metric's own direction, and whether a worse median stays within the
  benchmark's bound;
- every run's value.

A claim (--claim workload:metric) is met when the change wins at least nine
pairs in ten and its median is better than the parent's by more than the
parent's quartile spread. --traced-seconds adds a --trace 1 run per side
and workload to each of the first TRACED_PAIRS pairs (all of them, if there
are fewer), after its untraced runs, with the pair's seed and in the pair's
order; "traced" then holds, per workload and per-layer metric, each side's
median, min and every value in pair order. src_lines is the line change of src/
from the parent's copy to the change's (git diff --numstat); src_code_lines
counts only the Python lines of each side's src/ that hold code, not blank,
not comment-only and not inside a docstring, and their change. tests_lines
and tests_code_lines are the same for tests/, so that code moved from src/
into tests/ shows on both sides of the count.
"""

import argparse
import ast
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json", "tests")
TRACED_PAIRS = 3


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_revision(rev, dest):
    """The benchmark's files of git revision rev, unpacked under dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *TREE],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as buf:
        buf.write(archive)
        buf.seek(0)
        with tarfile.open(fileobj=buf) as tar:
            tar.extractall(dest, filter="data")


def export_working_tree(dest):
    """The benchmark's files of the working tree, copied under dest."""
    dest.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__", "out", "*.pyc")
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in tree: (result JSON, environment line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        ended = f"ended on {lines[-1]!r}" if lines else "printed nothing"
        raise RuntimeError(f"{tree}: {workload} seed {seed} {ended} (exit code "
                           f"{proc.returncode})\n{proc.stderr[-2000:]}")
    prefix = "# environment: "
    env_line = next((ln[len(prefix):] for ln in lines if ln.startswith(prefix)), "")
    return result, env_line


def line_change(numstat):
    """Lines added, deleted and net over the rows of `git diff --numstat`
    output; a binary file's row ("-" counts) adds nothing."""
    added = deleted = 0
    for row in numstat.splitlines():
        a, d, _ = row.split("\t", 2)
        if a != "-":
            added, deleted = added + int(a), deleted + int(d)
    return {"added": added, "deleted": deleted, "net": added - deleted}


def tree_line_change(trees, sub):
    """line_change of the directory sub from trees["parent"] to
    trees["change"]."""
    proc = subprocess.run(["git", "diff", "--no-index", "--numstat", "--",
                           str(trees["parent"] / sub), str(trees["change"] / sub)],
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 1: the trees differ
        raise RuntimeError(f"git diff --no-index failed: {proc.stderr}")
    return line_change(proc.stdout)


def code_lines(path):
    """Lines of a Python file that hold code: not blank, not comment-only
    and not inside a module, class or function docstring (found with ast)."""
    source = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docstrings)


def tree_code_lines(trees, sub):
    """code_lines summed over the Python files under each tree's directory
    sub, and the change from trees["parent"] to trees["change"]."""
    count = {side: sum(map(code_lines, sorted((tree / sub).rglob("*.py"))))
             for side, tree in trees.items()}
    return {**count, "net": count["change"] - count["parent"]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def change_words(parent, change, better):
    """'better by X%' or 'worse by X%' of the change's median against the
    parent's, in the metric's own direction."""
    rel = (change - parent) / abs(parent) if parent else 0.0
    worse = -rel if better == "higher" else rel
    if worse == 0:
        return 0.0, "unchanged"
    return worse, f"{'worse' if worse > 0 else 'better'} by {abs(worse):.2%}"


def summarise(spec, runs):
    """Per workload and end-to-end metric: quartiles, wins, the worded
    median change and the bound; runs[workload][side] lists result dicts in
    pair order."""
    out = {}
    for workload, sides in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            vals = {side: [r["metrics"][name]["value"] for r in sides[side]] for side in sides}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            stats = {side: quartiles(v) for side, v in vals.items()}
            worse, words = change_words(stats["parent"]["median"], stats["change"]["median"],
                                        better)
            metrics[name] = {
                "better": better, "bound": m["bound"], **stats, "change_wins": wins,
                "median_change": words, "median_worse_by": worse,
                "within_bound": worse <= m["bound"],
                "parent_quartile_spread": stats["parent"]["q3"] - stats["parent"]["q1"],
                "runs": vals,
            }
        out[workload] = {
            "pairs": len(sides["parent"]),
            "failed": {s: sum(r["failed"] for r in v) for s, v in sides.items()},
            "attempted": {s: sum(r["attempted"] for r in v) for s, v in sides.items()},
            "correct": {s: all(r["correct"] for r in v) for s, v in sides.items()},
            "metrics": metrics,
        }
    return out


def summarise_traced(traced):
    """Per workload and per-layer metric, each side's median, min and values;
    traced[workload][side] lists the traced runs' metrics in pair order.
    Outside load only adds time, so the min is the run least disturbed by it."""
    out = {}
    for workload, sides in traced.items():
        names = [name for name in sides["parent"][0] if name in sides["change"][0]]
        out[workload] = {}
        for name in names:
            vals = {side: [run[name]["value"] for run in runs] for side, runs in sides.items()}
            out[workload][name] = {side: {"median": statistics.median(v), "min": min(v),
                                          "values": v} for side, v in vals.items()}
    return out


def summary_line(entry):
    p, c = entry["parent"], entry["change"]
    return (f"{p['median']:.6g} -> {c['median']:.6g} (median {entry['median_change']}, "
            f"bound {entry['bound']:.0%}; change better in {entry['change_wins']} of "
            f"{len(entry['runs']['parent'])} pairs; parent quartiles {p['q1']:.6g}-{p['q3']:.6g})")


def claim_verdict(summary, claim, layer):
    workload, metric = claim.split(":")
    entry = summary[workload]["metrics"][metric]
    pairs = len(entry["runs"]["parent"])
    gain = abs(entry["change"]["median"] - entry["parent"]["median"])
    met = (entry["change_wins"] >= math.ceil(0.9 * pairs) and entry["median_worse_by"] < 0
           and gain > entry["parent_quartile_spread"])
    return {"workload": workload, "metric": metric, "layer": layer, "result": summary_line(entry),
            "gain_over_parent_quartile_spread": gain / entry["parent_quartile_spread"]
            if entry["parent_quartile_spread"] else None,
            "met": met}


def pair_count(text):
    """--pairs, refused below 2 before any run: each side's quartiles need
    two runs at least."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"{pairs} pairs: the quartiles need at least 2")
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed0", type=int, default=801)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--layer", default="", help="the layer the claim names")
    parser.add_argument("--change-note", default="", help="what the change does")
    parser.add_argument("--traced-seconds", type=float, default=0)
    parser.add_argument("--workdir",
                        help="where the two copies go (default: a temp dir, removed at the end)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        write_report(args, spec, workloads, work)
    finally:
        if args.workdir is None:
            shutil.rmtree(work)


def write_report(args, spec, workloads, work):
    """Copy both sides under work, run the pairs and write args.out."""
    trees = {"parent": work / "parent", "change": work / "change"}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
    export_revision(args.parent, trees["parent"])
    export_working_tree(trees["change"])

    runs = {w: {"parent": [], "change": []} for w in workloads}
    traced = {w: {"parent": [], "change": []} for w in workloads}
    environment = ""
    seeds = [args.seed0 + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result, env_line = run_once(trees[side], workload, seed, args.seconds, 0)
                runs[workload][side].append(result)
                environment = environment or env_line
                print(f"pair {i} seed {seed} {workload} {side}: pass_s "
                      f"{result['metrics']['pass_s']['value']:.6g}", file=sys.stderr, flush=True)
        if args.traced_seconds and i < TRACED_PAIRS:
            for workload in workloads:
                for side in order:
                    result, _ = run_once(trees[side], workload, seed, args.traced_seconds, 1)
                    traced[workload][side].append(result["metrics"])

    summary = summarise(spec, runs)
    report = {
        "description": (
            f"Alternating parent/change pairs of perfbench/run.py --seconds {args.seconds:g} "
            "--trace 0 (end-to-end metrics, contention-corrected), one process at a time, the "
            "parent first in even pairs and second in odd ones, every workload in each pair. "
            "Each metric: median and quartiles (inclusive method) of each side, the pairs the "
            "change won (ties count for neither), the median change worded in the metric's own "
            "direction, the benchmark's bound, and every run's value. Written by "
            "tools/bench_pairs.py."),
        "parent": git("rev-parse", "--short", args.parent),
        "change": args.change_note or "the working tree",
        "run_seconds": args.seconds,
        "seeds": seeds,
        "environment": environment,
        "src_lines": tree_line_change(trees, "src"),
        "src_code_lines": tree_code_lines(trees, "src"),
        "tests_lines": tree_line_change(trees, "tests"),
        "tests_code_lines": tree_code_lines(trees, "tests"),
    }
    if args.claim:
        report["claim"] = claim_verdict(summary, args.claim, args.layer)
    report["not_claimed"] = {
        w: {name: summary_line(entry) for name, entry in s["metrics"].items()
            if f"{w}:{name}" != args.claim}
        for w, s in summary.items()}
    report["workloads"] = summary
    if args.traced_seconds:
        report["traced"] = summarise_traced(traced)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.claim:
        print(json.dumps(report["claim"]), flush=True)


if __name__ == "__main__":
    main()
