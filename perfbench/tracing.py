"""Tracing for the benchmark's traced run, and per-call evaluator timing.

The tracer wraps public functions and methods of each flutterrom layer from
the outside, on a freshly imported library namespace, so no library file
changes.  Coarse calls (sweeps, builds, continuation, cycle measurements)
become spans with a parent.  Hot leaf calls (monomial lookups, form
applications, reduced RHS/Jacobian evaluations) only add to a call count
and a busy time; the evaluators' busy time is also added to every open
span.  Spans stay in memory and are written out when the run ends.
"""

import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# (module, class or None, attribute, trace key)
SPANS = [
    ("spectral", None, "eigen_sweep", "spectral.sweep"),
    ("spectral", None, "solve_master_eigen", "spectral.master"),
    ("spectral", None, "detect_exceptional_point", "spectral.jordan"),
    ("spectral", None, "enforce_jordan", "spectral.jordan"),
    ("models", None, "recast_to_dae", "models.recast"),
    ("models", "PolynomialSecondOrderModel", "nl_rhs_series", "models.nl_rhs_series"),
    ("dpim", None, "build_rom_firstorder", "dpim.build"),
    ("dpim", None, "build_rom_secondorder", "dpim.build"),
    ("dpim", None, "residual_slope", "dpim.check"),
    ("continuation", None, "find_hopf", "continuation.find_hopf"),
    ("continuation", None, "continue_periodic", "continuation.continue"),
    ("romdyn", None, "measure_limit_cycle", "romdyn.rom_cycle"),
    ("romdyn", None, "measure_limit_cycle_fom", "romdyn.fom_cycle"),
]
COUNTERS = [
    ("polytensor", "MonomialTable", "index_of", "polytensor.index_of"),
    ("polytensor", "SparseBilinearForm", "apply", "polytensor.bilinear"),
    ("polytensor", "SparseTrilinearForm", "apply", "polytensor.trilinear"),
    ("romdyn", "RealizedReducedSystem", "rhs", "romdyn.rhs"),
    ("romdyn", "RealizedReducedSystem", "jacobian", "romdyn.jacobian"),
    ("romdyn", "RealizedReducedSystem", "dfdmu", "romdyn.dfdmu"),
    ("romdyn", "RealizedReducedSystem", "map_batch", "romdyn.map_batch"),
    ("models", "ZieglerModel", "linear_pencil", "spectral.pencil"),
]
EVALUATORS = ("romdyn.rhs", "romdyn.jacobian", "romdyn.dfdmu")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.missing = []

    def span(self, key, fn):
        def traced(*args, **kwargs):
            rec = {"name": key, "id": len(self.spans),
                   "parent": self.stack[-1]["id"] if self.stack else None,
                   "start": time.perf_counter() - self.t0, "fine": defaultdict(float)}
            self.spans.append(rec)
            self.stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter() - self.t0
                self.stack.pop()
                self.calls[key] += 1
                self.busy[key] += rec["end"] - rec["start"]
        return traced

    def counter(self, key, fn):
        calls, busy, stack, clock = self.calls, self.busy, self.stack, time.perf_counter
        attribute = key in EVALUATORS  # keep the cost per hot call low elsewhere

        def counted(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                calls[key] += 1
                busy[key] += dt
                if attribute:
                    for rec in stack:
                        rec["fine"][key] += dt
        return counted

    def install(self, lib):
        """Wrap the traced entry points of a freshly imported library."""
        for table, wrap in ((SPANS, self.span), (COUNTERS, self.counter)):
            for module, cls, attr, key in table:
                owner = getattr(lib, module)
                if cls:
                    owner = getattr(owner, cls, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                    continue
                setattr(owner, attr, wrap(key, fn))
        # the FOM RHS is a closure made per load: count calls of each closure
        model_cls = getattr(lib.models, "ZieglerModel", None)
        make_rhs = getattr(model_cls, "fom_rhs", None)
        if make_rhs is None:
            self.missing.append("models.ZieglerModel.fom_rhs")
        else:
            model_cls.fom_rhs = lambda model, P: self.counter("models.fom_rhs",
                                                              make_rhs(model, P))

    def metrics(self, counts):
        """Per-layer metrics of one traced pass (see NOTES.md)."""
        c, b = self.calls, self.busy
        out = {
            "romdyn.rhs_calls": c["romdyn.rhs"], "romdyn.rhs_s": b["romdyn.rhs"],
            "romdyn.jacobian_calls": c["romdyn.jacobian"],
            "romdyn.jacobian_s": b["romdyn.jacobian"],
            "romdyn.dfdmu_calls": c["romdyn.dfdmu"], "romdyn.dfdmu_s": b["romdyn.dfdmu"],
            "romdyn.map_batch_calls": c["romdyn.map_batch"],
            "romdyn.map_batch_s": b["romdyn.map_batch"],
            "models.fom_rhs_calls": c["models.fom_rhs"],
            "continuation.find_hopf_s": b["continuation.find_hopf"],
            "dpim.build_s": b["dpim.build"],
            "dpim.check_s": b["dpim.check"],
            "polytensor.index_of_calls": c["polytensor.index_of"],
            "polytensor.index_of_s": b["polytensor.index_of"],
            "polytensor.bilinear_applies": c["polytensor.bilinear"],
            "polytensor.bilinear_s": b["polytensor.bilinear"],
            "polytensor.trilinear_applies": c["polytensor.trilinear"],
            "spectral.sweep_s": b["spectral.sweep"],
            "spectral.master_s": b["spectral.master"],
            "spectral.pencil_solves": c["spectral.pencil"],
        }
        out.update(counts)
        return out

    def extras(self):
        """Layer numbers that only some workloads produce (reported, not emitted)."""
        out = {}
        for key in ("continuation.continue", "romdyn.rom_cycle", "romdyn.fom_cycle",
                    "polytensor.trilinear", "spectral.jordan"):
            if self.calls[key]:
                out[key + "_s"] = self.busy[key]
        cont = [s for s in self.spans if s["name"] == "continuation.continue"]
        if cont:
            cont_s = sum(s["end"] - s["start"] for s in cont)
            eval_s = sum(s["fine"][k] for s in cont for k in EVALUATORS)
            out["continuation.eval_share"] = eval_s / cont_s
        return out

    def fingerprint(self):
        return {f"calls.{k}": v for k, v in sorted(self.calls.items())}

    def dump_spans(self):
        return [{**s, "fine": dict(s["fine"])} for s in self.spans]


# -- per-call timing ----------------------------------------------------------

def per_call_us(calls, rounds=15, min_round_s=0.005):
    """Per-call times in microseconds, one list of rounds per named call.

    calls maps a name to (fn, list of argument tuples).  The calls are timed
    round-robin, so that the functions of one round see the same state of
    a contended host and their ratios within a round are steady.
    """
    loops = {}
    for name, (fn, args_list) in calls.items():
        loops[name] = 1
        while True:
            t = time.perf_counter()
            for _ in range(loops[name]):
                for args in args_list:
                    fn(*args)
            if time.perf_counter() - t >= min_round_s:
                break
            loops[name] *= 2
    out = {name: [] for name in calls}
    for _ in range(rounds):
        for name, (fn, args_list) in calls.items():
            t = time.perf_counter()
            for _ in range(loops[name]):
                for args in args_list:
                    fn(*args)
            out[name].append(1e6 * (time.perf_counter() - t) / (loops[name] * len(args_list)))
    return out


def evaluator_timings(lib, P_H, seed, n_points=32, mu=0.05):
    """Per-call times of the branch ROM's evaluators and of the FOM RHS.

    The ROM is the ziegler2-branch one (d = 4, order 5, expanded at P_H),
    evaluated at mu; states are drawn from the seed.  `lib` must be
    untraced so that no wrapper cost enters the timings.  Each time is the
    median over rounds, and the ROM/FOM ratio the median of per-round ratios.
    """
    from workloads import ZIEGLER, rom_from

    rng = np.random.default_rng(seed + 7919)
    model = lib.models.build_ziegler2(**ZIEGLER)
    rom, _ = rom_from(lib, model, P_H, 4, 5)
    sysr = lib.romdyn.RealizedReducedSystem(rom, mu)
    X = 0.3 * rng.standard_normal((n_points, 2 * sysr.m))
    fom = model.fom_rhs(P_H + mu)
    F = 0.3 * rng.standard_normal((n_points, 2 * model.n))
    # one settle period of measure_limit_cycle maps 65 states at once
    batch = [(0.3 * rng.standard_normal((65, 2 * sysr.m)),) for _ in range(4)]
    rounds = per_call_us({
        "romdyn.rhs_us": (sysr.rhs, [(0.0, x) for x in X]),
        "romdyn.jacobian_us": (sysr.jacobian, [(x,) for x in X]),
        "romdyn.dfdmu_us": (sysr.dfdmu, [(x,) for x in X]),
        "romdyn.map_batch_us": (sysr.map_batch, batch),
        "models.fom_rhs_us": (fom, [(0.0, x) for x in F]),
    })
    out = {name: statistics.median(r) for name, r in rounds.items()}
    out["romdyn.rom_over_fom_rhs"] = statistics.median(
        a / b for a, b in zip(rounds["romdyn.rhs_us"], rounds["models.fom_rhs_us"]))
    return out
