"""Benchmark of the flutterrom pipeline: model -> spectrum -> ROM -> branch -> FOM.

Usage, from the repository root:

    python3 perfbench/run.py --workload ziegler2-branch --seed 1 --seconds 30 --trace 0

One process, closed loop, one client: passes of the workload run back to
back while the next one is expected to end within --seconds (at least one
pass).  Before every pass the library is imported afresh from ./src and the
models and seeded inputs are rebuilt, so no state carries over between
passes; that set-up is timed too.  Every output is checked against an
oracle (workloads.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured untraced and corrected for host
CPU contention (contention.py).  With --trace 1 they are the per-layer ones,
from passes run with the tracer installed, plus an untraced per-call timing
of the evaluators; a traced run also writes its spans to perfbench/out/.
The exit code is 0 only when every check passed.
"""

import os

# one process with one compute thread: pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("models", "spectral", "dpim", "polytensor", "romdyn", "continuation")
MIN_SETUPS = 15
SETUP_WINDOW_S = 0.3    # a set-up is shorter than the sampling interval: use the slices around it

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "work_per_s": "1/s",
                    "rom_err_max": "ratio", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("rom_over_fom_rhs"):
        return "ratio"
    return "count"


def import_library():
    """Import flutterrom from ./src afresh; a namespace of its layer modules."""
    for name in [n for n in sys.modules if n == "flutterrom" or n.startswith("flutterrom.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{name: importlib.import_module(f"flutterrom.{name}")
                             for name in LAYERS})
    origin = Path(sys.modules["flutterrom"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"flutterrom was imported from {origin}, not from {SRC}")
    return lib


def environment():
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    threads = "unknown"
    libs_dir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def run(workload, seed, seconds, trace, size="full", out_dir=None):
    """Run one workload; returns (result dict for the JSON line, report dict)."""
    import numpy  # noqa: F401  (import before timing set-up)
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import workloads
    from contention import ContentionSampler
    from tracing import Tracer, evaluator_timings

    wl = workloads.WORKLOADS[workload]
    oracle = workloads.oracle_values()
    checks = workloads.Checks()
    # the traced run reports raw busy times; a sampler would add to them
    sampler = None if trace else ContentionSampler()
    clock = sampler.clock if sampler else time.perf_counter
    setups, intervals, results, traced = [], [], [], []
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            t0 = clock()
            lib = import_library()
            inputs = wl.setup(lib, seed, size)
            setups.append((t0, clock()))
            inputs["clock"] = clock
            tracer = Tracer() if trace else None
            if tracer:
                tracer.install(lib)
            try:
                t0 = clock()
                res = wl.run_pass(lib, inputs, checks, oracle)
            except Exception:  # a failing operation is a failed check, not a crash
                checks.expect(False, f"pass {len(results) + 1} raised:\n{traceback.format_exc()}")
                break
            intervals.append((t0, clock()))
            results.append(res)
            if tracer:
                traced.append(tracer)
            # start another pass only if it should end within the budget
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                break
        while len(setups) < MIN_SETUPS:
            t0 = clock()
            wl.setup(import_library(), seed, size)
            setups.append((t0, clock()))
    walls = [b - a for a, b in intervals]
    factors = [sampler.factor(a, b) for a, b in intervals] if sampler else []
    setup_s = [(b - a) * sampler.factor(a - SETUP_WINDOW_S, b + SETUP_WINDOW_S) if sampler
               else b - a for a, b in setups]

    report = {"workload": workload, "seed": seed, "trace": bool(trace),
              "environment": environment(), "passes": len(results),
              "pass_wall_s": walls, "contention_factor": factors, "setup_s": setup_s,
              "failures": list(checks.failures), "unsteady": []}
    for key in ("rom_err", "counts"):
        if any(r[key] != results[0][key] for r in results):
            report["unsteady"].append(f"{key} differs between passes")

    metrics = {}
    if results and not trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": statistics.median(w * f for w, f in zip(walls, factors)),
            "work_per_s": statistics.median(r["work"] / (r["work_s"] * f)
                                            for r, f in zip(results, factors)),
            "rom_err_max": results[-1]["rom_err"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    elif results:
        per_pass = [t.metrics(r["counts"]) for t, r in zip(traced, results)]
        values = {}
        for name in per_pass[0]:
            series = [p[name] for p in per_pass]
            if per_layer_unit(name) == "count":
                if len(set(series)) > 1:
                    report["unsteady"].append(f"{name} differs between passes: {series}")
                values[name] = series[0]
            else:
                values[name] = statistics.median(series)
        values.update(evaluator_timings(import_library(), oracle["P_H"], seed))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        report["extras"] = {k: statistics.median(t.extras().get(k, 0.0) for t in traced)
                            for k in traced[0].extras()}
        report["extras"].update({k: v for k, v in results[0]["stages"].items()
                                 if k.startswith("dpim.build.")})
        if "continuation.continue_s" in report["extras"]:
            report["extras"]["continuation.s_per_point"] = (
                report["extras"]["continuation.continue_s"] / values["continuation.points"])
        report["fingerprint"] = {**results[0]["counts"], **traced[0].fingerprint()}
        report["untraced_names"] = traced[0].missing
        stored = json.loads((HERE / "fingerprint.json").read_text()).get(workload, {})
        report["fingerprint_diff"] = {k: [stored.get(k), v]
                                      for k, v in report["fingerprint"].items()
                                      if stored.get(k) != v}
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            trace_doc = {**report, "spans": [t.dump_spans() for t in traced]}
            (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(trace_doc))

    result = {"correct": bool(results) and not checks.failures,
              "attempted": max(checks.attempted, 1), "failed": len(checks.failures),
              "metrics": metrics}
    return result, report


def print_report(result, report):
    env = report["environment"]
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"passes={report['passes']} raw pass s: "
          + " ".join(f"{w:.3f}" for w in report["pass_wall_s"])
          + (" contention factor: " if report["contention_factor"] else "")
          + " ".join(f"{f:.3f}" for f in report["contention_factor"]))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, value in report.get("extras", {}).items():
        print(f"# (workload-specific) {name} = {value:.6g}")
    if report.get("fingerprint_diff"):
        print("# count fingerprint differs from perfbench/fingerprint.json (stored, now): "
              + json.dumps(report["fingerprint_diff"]))
    elif "fingerprint" in report:
        print("# count fingerprint matches perfbench/fingerprint.json")
    for note in report["unsteady"]:
        print(f"# UNSTEADY: {note}")
    for name in report.get("untraced_names", []):
        print(f"# not traced (missing in the library): {name}")
    for failure in report["failures"]:
        print(f"# FAILED CHECK: {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flutterrom" / "__init__.py").is_file():
        print(f"error: no flutterrom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import flutterrom: {exc}", file=sys.stderr)
        return 2

    result, report = run(args.workload, args.seed, args.seconds, args.trace,
                         out_dir=HERE / "out")
    print_report(result, report)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
