"""The benchmark's workloads over the flutterrom pipeline and their oracles.

Each workload is one pass of model -> spectrum -> ROM -> (branch | cycles |
high-order builds), run against a freshly imported library namespace `lib`
(attributes models, spectral, dpim, polytensor, romdyn, continuation).
Every output is checked against an oracle that does not go through the
code path it checks; a failed check is recorded, never raised.

A pass returns a dict with
  work, work_s   the workload's unit of useful output and the time the
                 program spent producing it (work_per_s = work / work_s),
  rom_err        the largest error of the workload's ROMs against the
                 full model (see NOTES.md for its definition per workload),
  counts         exact counts of work done (the count fingerprint),
  stages         time of named stages on the run's clock, in seconds.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

# build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2): the paper's 2-DOF Ziegler pendulum
# with mass-proportional damping; Hopf point P_H ~ 2.0768 past an exceptional
# point at P_c = 2.0.
ZIEGLER = dict(m1=1.0, m2=1.0, k1=1.0, k2=1.0, L=1.0, xi_m=0.2)
SWEEP_RANGE = (1.5, 3.0)
SWEEP_POINTS = 40
CUBIC_LOAD = 2.6            # expansion load of the parameter-independent cubic model

# oracle tolerances (NOTES.md says where each comes from)
EVENT_TOL = 1e-6            # P_H, P_c and ROM Hopf points against the oracle
AMP_TOL = 0.015             # ROM vs FOM theta2 amplitude, relative
FLOQUET_TOL = 1e-6          # trivial Floquet multiplier against 1
SLOPE_MARGIN = 0.3          # invariance residual slope >= order + 1 - margin
DUAL_TOL = 1e-10            # second- vs first-order engine W, relative
FD_TOL = 1e-6               # evaluator derivatives vs central differences
SLOPE_RADII = np.logspace(-1.0, -0.3, 5)
N_FD_POINTS = 4


@dataclass
class Checks:
    """Oracle bookkeeping: every check counts as attempted."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Stopwatch:
    """Accumulates time per named stage on the given clock."""

    def __init__(self, clock):
        self.clock = clock
        self.stages = {}

    def time(self, name, fn, *args, **kwargs):
        t0 = self.clock()
        out = fn(*args, **kwargs)
        self.stages[name] = self.stages.get(name, 0.0) + self.clock() - t0
        return out


# -- independent oracles ------------------------------------------------------

def ziegler2_matrices(m1, m2, k1, k2, L, xi_m):
    """(M, C, K, Ru) of the 2-DOF Ziegler pendulum, from the textbook form."""
    M = L**2 * np.array([[m1 + m2, m2], [m2, m2]])
    K = np.array([[k1 + k2, -k2], [-k2, k2]])
    Ru = L * np.array([[1.0, -1.0], [0.0, 0.0]])
    return M, 2.0 * xi_m * M, K, Ru


def ziegler2_events(params=ZIEGLER, bracket=SWEEP_RANGE):
    """(P_H, P_c) from the characteristic polynomial, without eigensolves.

    P_H is the root of the third Hurwitz determinant of the quartic
    det(lam^2 M + lam C + K - P Ru); with mass-proportional damping the
    eigenvalues are -xi_m +- sqrt(xi_m^2 - w^2), so the coalescence P_c is
    where det(K - P Ru - s M), a quadratic in s = w^2, has a double root.
    """
    M, C, K, Ru = ziegler2_matrices(**params)
    poly = np.polynomial.polynomial

    def hurwitz3(P):
        E = [[np.array([K[i, j] - P * Ru[i, j], C[i, j], M[i, j]]) for j in range(2)]
             for i in range(2)]
        a0, a1, a2, a3, a4 = poly.polysub(poly.polymul(E[0][0], E[1][1]),
                                          poly.polymul(E[0][1], E[1][0]))
        return a3 * a2 * a1 - a4 * a1**2 - a0 * a3**2

    def discriminant(P):
        Ke = K - P * Ru
        b = -(Ke[0, 0] * M[1, 1] + Ke[1, 1] * M[0, 0] - Ke[0, 1] * M[1, 0] - Ke[1, 0] * M[0, 1])
        return b * b - 4.0 * np.linalg.det(M) * np.linalg.det(Ke)

    return (brentq(hurwitz3, *bracket, xtol=1e-14),
            brentq(discriminant, *bracket, xtol=1e-14))


def ziegler2_fom_rhs(P, x, params=ZIEGLER):
    """First-order equations of motion of the Ziegler pendulum at load P."""
    M, C, K, Ru = ziegler2_matrices(**params)
    th, v = x[:2], x[2:]
    cubic = np.array([params["L"] / 6.0 * P * (th[0] - th[1]) ** 3, 0.0])
    return np.concatenate([v, np.linalg.solve(M, -C @ v - (K - P * Ru) @ th - cubic)])


def cubic_test_model(lib, P_e, kappa=1.0 / 6.0, xi_m=0.2):
    """2-DOF model with a parameter-independent cubic, for both engines.

    Returns (second-order model, matching first-order recast with one
    auxiliary w = (th1 - th2)^2); the same system as the dual-engine test
    of the library's test suite.
    """
    base = lib.models.build_ziegler2(1, 1, 1, 1, 1, xi_m=xi_m)
    n = 2
    entries = []
    for i, j, k in np.ndindex(2, 2, 2):
        sign = (-1) ** ((i == 1) + (j == 1) + (k == 1))
        entries.append((0, i, j, k, sign * kappa))
    H = lib.polytensor.SparseTrilinearForm.from_entries(n, n, entries)
    model = lib.models.PolynomialSecondOrderModel(
        n=n, M=base.M, C=base.C, Kt=base.K - P_e * base.Ru, Rt=np.zeros(n),
        Ru=base.Ru, Gt=None, H=H, p0=P_e)

    D = 5
    B = np.zeros((D, D))
    A = np.zeros((D, D))
    Q2m = np.zeros((D, D))
    B[:2, :2] = np.eye(2)
    A[:2, 2:4] = np.eye(2)
    B[2:4, 2:4] = base.M
    A[2:4, :2] = -base.K
    A[2:4, 2:4] = -base.C
    Q2m[2:4, :2] = base.Ru
    q1 = [(2, 4, 0, -kappa), (2, 4, 1, kappa),
          (4, 0, 0, -1.0), (4, 0, 1, 1.0), (4, 1, 0, 1.0), (4, 1, 1, -1.0)]
    A[4, 4] = 1.0
    dae = lib.models.FirstOrderDAE(
        B, A, lib.polytensor.SparseBilinearForm.from_entries(D, D, D, q1), Q2m,
        q3=np.zeros(D), y0=np.zeros(D), mu0=P_e, displacement_indices=np.arange(2))
    return model, dae


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)


# -- checks shared by every workload ------------------------------------------

def check_sweep(lib, checks, oracle, model):
    """Eigen sweep: P_H, P_c and the EP flag against the oracle."""
    traj = lib.spectral.eigen_sweep(model, SWEEP_RANGE, SWEEP_POINTS)
    ev = traj.events
    checks.expect(ev["P_H"] is not None and abs(ev["P_H"] - oracle["P_H"]) < EVENT_TOL,
                  f"sweep P_H {ev['P_H']} vs oracle {oracle['P_H']:.9f}")
    checks.expect(ev["P_c"] is not None and abs(ev["P_c"] - oracle["P_c"]) < EVENT_TOL,
                  f"sweep P_c {ev['P_c']} vs oracle {oracle['P_c']:.9f}")
    checks.expect(ev["ep"], "sweep did not flag the exceptional point")
    return traj, float(ev["P_H"] if ev["P_H"] is not None else oracle["P_H"])


def check_rom(lib, checks, label, rom, system, fd_points, P_H=None):
    """Oracles on one ROM; returns the invariance residual at the largest radius.

    - find_hopf lands on the true Hopf point (when P_H is given);
    - the invariance residual decays like |z|^(order+1);
    - the realified Jacobian and dfdmu match central differences of the
      realified RHS, and the batched mapping matches the pointwise one.
    """
    mu0 = rom.meta.get("mu0", 0.0)
    if P_H is not None:
        mu_H = lib.continuation.find_hopf(rom)
        checks.expect(abs(mu0 + mu_H - P_H) < EVENT_TOL,
                      f"{label}: ROM Hopf point {mu0 + mu_H:.9f} vs {P_H:.9f}")
    slope, vals = lib.dpim.residual_slope(rom, system, SLOPE_RADII)
    floor = rom.order + 1 - SLOPE_MARGIN
    checks.expect(slope >= floor, f"{label}: invariance residual slope {slope:.3f} < {floor}")

    mu = 0.05
    sysr = lib.romdyn.RealizedReducedSystem(rom, mu)
    X = fd_points[:, :2 * sysr.m]
    eps = 1e-6
    jac_err = mu_err = 0.0
    for x in X:
        J = sysr.jacobian(x)
        Jfd = np.column_stack([(sysr.rhs(0.0, x + eps * e) - sysr.rhs(0.0, x - eps * e)) / (2 * eps)
                               for e in np.eye(len(x))])
        jac_err = max(jac_err, np.abs(J - Jfd).max() / max(1.0, np.abs(J).max()))
        g = sysr.dfdmu(x)
        up = lib.romdyn.RealizedReducedSystem(rom, mu + eps).rhs(0.0, x)
        down = lib.romdyn.RealizedReducedSystem(rom, mu - eps).rhs(0.0, x)
        mu_err = max(mu_err, np.abs(g - (up - down) / (2 * eps)).max() / max(1.0, np.abs(g).max()))
    checks.expect(jac_err < FD_TOL, f"{label}: Jacobian vs central differences {jac_err:.2e}")
    checks.expect(mu_err < FD_TOL, f"{label}: dfdmu vs central differences {mu_err:.2e}")
    Y = sysr.map_batch(X)
    Yref = np.array([sysr.map_to_physical(x) for x in X])
    checks.expect(np.abs(Y - Yref).max() <= 1e-12 * max(1.0, np.abs(Yref).max()),
                  f"{label}: batched mapping differs from the pointwise mapping")
    return float(vals[-1])


def check_fom_rhs(checks, model, P, fd_points):
    """The model's FOM RHS against the benchmark's own equations of motion."""
    rhs = model.fom_rhs(P)
    err = max(np.abs(rhs(0.0, x) - ziegler2_fom_rhs(P, x)).max() for x in fd_points)
    checks.expect(err < 1e-12, f"FOM RHS differs from the equations of motion by {err:.2e}")


def rom_from(lib, model, P, d, order, jordan_pair=None):
    """Recast at P, master spectrum (optionally Jordan-enforced), first-order build."""
    dae = lib.models.recast_to_dae(model, P)
    spec = lib.spectral.solve_master_eigen(dae, d)
    if jordan_pair is not None:
        spec = lib.spectral.enforce_jordan(spec, jordan_pair)
    return lib.dpim.build_rom_firstorder(dae, spec, order), dae


def nonzero_f_rows(rom):
    return int(np.any(rom.f != 0, axis=1).sum())


# -- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    sizes = {}

    def setup(self, lib, seed, size):
        """Models and seeded inputs; runs before each timed pass."""
        rng = np.random.default_rng(seed)
        return {
            "size": self.sizes[size],
            "model": lib.models.build_ziegler2(**ZIEGLER),
            "fd_points": 0.05 * rng.standard_normal((N_FD_POINTS, 4)),
        }


class ZieglerBranch(Workload):
    name = "ziegler2-branch"
    sizes = {
        "full": dict(order=5, mu_max=0.3, max_points=20, fom_mus=(0.1, 0.2)),
        "smoke": dict(order=5, mu_max=0.11, max_points=6, fom_mus=(0.1,)),
    }

    def run_pass(self, lib, inp, checks, oracle):
        size, watch = inp["size"], Stopwatch(inp["clock"])
        model = inp["model"]
        _, P_H = check_sweep(lib, checks, oracle, model)
        rom, dae = rom_from(lib, model, P_H, 4, size["order"])
        check_rom(lib, checks, "d4 ROM", rom, dae, inp["fd_points"], P_H=oracle["P_H"])

        opts = lib.continuation.ContinuationOptions(mu_max=size["mu_max"],
                                                    max_points=size["max_points"])
        diag = watch.time("continuation.continue_s", lib.continuation.continue_periodic,
                          rom, options=opts)
        mus = diag.mu()
        checks.expect(diag.meta.get("truncated") == "",
                      f"branch truncated: {diag.meta.get('truncated')!r}")
        checks.expect(mus.max() >= size["mu_max"],
                      f"branch ends at mu = {mus.max()}, short of mu_max")
        trivial = max(np.abs(pt.floquet - 1.0).min() for pt in diag.points)
        checks.expect(trivial < FLOQUET_TOL, f"trivial Floquet multiplier off by {trivial:.2e}")

        order = np.argsort(mus)
        amp = diag.amplitude(1)[order]
        errs = []
        periods = 0
        for mu in size["fom_mus"]:
            ref = watch.time("romdyn.fom_cycle_s", lib.romdyn.measure_limit_cycle_fom,
                             model, P_H + mu, coord=1)
            periods += ref.transient_periods
            checks.expect(ref.converged and ref.amp(1) > 0, f"FOM cycle at mu = {mu}: {ref.reason}")
            err = rel_err(np.interp(mu, mus[order], amp), ref.amp(1))
            checks.expect(err < AMP_TOL, f"branch amplitude at mu = {mu} off the FOM by {err:.3%}")
            errs.append(err)
        check_fom_rhs(checks, model, P_H + size["fom_mus"][0], inp["fd_points"])

        return {
            "work": len(diag.points),
            "work_s": watch.stages["continuation.continue_s"],
            "rom_err": max(errs),
            "counts": {"continuation.points": len(diag.points), "romdyn.rom_periods": 0,
                       "romdyn.fom_periods": periods, "dpim.monomials": len(rom.table),
                       "dpim.nonzero_f_rows": nonzero_f_rows(rom)},
            "stages": watch.stages,
        }


class ZieglerCyclesEP(Workload):
    name = "ziegler2-cycles-ep"
    sizes = {
        "full": dict(order=5, mus=(0.02, 0.05, 0.1, 0.2)),
        "smoke": dict(order=5, mus=(0.05,)),
    }

    def run_pass(self, lib, inp, checks, oracle):
        size, watch = inp["size"], Stopwatch(inp["clock"])
        model = inp["model"]
        traj, P_H = check_sweep(lib, checks, oracle, model)
        ep = lib.spectral.detect_exceptional_point(traj, model)
        checks.expect(ep is not None and abs(ep[0] - oracle["P_c"]) < EVENT_TOL,
                      f"exceptional point {ep} vs oracle P_c {oracle['P_c']}")
        P_c = float(ep[0]) if ep is not None else oracle["P_c"]

        roms = {}
        for label, P, d, pair in (("one-mode", P_H, 2, None), ("two-mode", P_H, 4, None),
                                  ("jordan", P_c, 4, (0, 2))):
            rom, dae = rom_from(lib, model, P, d, size["order"], pair)
            check_rom(lib, checks, label, rom, dae, inp["fd_points"], P_H=oracle["P_H"])
            roms[label] = (rom, P)

        errs = {label: [] for label in roms}
        rom_periods = fom_periods = 0
        for mu in size["mus"]:
            ref = watch.time("romdyn.fom_cycle_s", lib.romdyn.measure_limit_cycle_fom,
                             model, P_H + mu, coord=1)
            fom_periods += ref.transient_periods
            checks.expect(ref.converged and ref.amp(1) > 0, f"FOM cycle at mu = {mu}: {ref.reason}")
            for label, (rom, P) in roms.items():
                got = watch.time("romdyn.rom_cycle_s", lib.romdyn.measure_limit_cycle,
                                 rom, P_H + mu - P, coord=1)
                rom_periods += got.transient_periods
                errs[label].append(rel_err(got.amp(1), ref.amp(1)))
        for i, mu in enumerate(size["mus"]):
            for label in ("two-mode", "jordan"):
                checks.expect(errs[label][i] < AMP_TOL,
                              f"{label} ROM at mu = {mu} off the FOM by {errs[label][i]:.3%}")
            # one-mode decaying at mu = 0.2 (error 100%) is the expected outcome
            checks.expect(errs["one-mode"][i] > errs["two-mode"][i],
                          f"one-mode ROM not worse than two-mode at mu = {mu}")
        check_fom_rhs(checks, model, P_H + size["mus"][0], inp["fd_points"])

        n_cycles = len(size["mus"]) * (1 + len(roms))
        return {
            "work": n_cycles,
            "work_s": watch.stages["romdyn.fom_cycle_s"] + watch.stages["romdyn.rom_cycle_s"],
            "rom_err": max(errs["two-mode"] + errs["jordan"]),
            "counts": {"continuation.points": 0, "romdyn.rom_periods": rom_periods,
                       "romdyn.fom_periods": fom_periods,
                       "dpim.monomials": sum(len(r.table) for r, _ in roms.values()),
                       "dpim.nonzero_f_rows": sum(nonzero_f_rows(r) for r, _ in roms.values())},
            "stages": watch.stages,
        }


class BuildHighOrder(Workload):
    name = "build-highorder"
    # the first-order build of the cubic model's recast is checked against the
    # last second-order build, at the same order
    sizes = {
        "full": dict(fo_orders=(7, 9, 11), so_orders=(5, 7)),
        "smoke": dict(fo_orders=(5,), so_orders=(3,)),
    }

    def run_pass(self, lib, inp, checks, oracle):
        size, watch = inp["size"], Stopwatch(inp["clock"])
        model = inp["model"]
        _, P_H = check_sweep(lib, checks, oracle, model)
        dae = lib.models.recast_to_dae(model, P_H)
        spec = lib.spectral.solve_master_eigen(dae, 4)
        monomials = nzf = 0
        residuals = []

        def build(stage, builder, system, spectrum, order, hopf=None):
            nonlocal monomials, nzf
            rom = watch.time(f"dpim.build.{stage}_s", builder, system, spectrum, order)
            monomials += len(rom.table)
            nzf += nonzero_f_rows(rom)
            residuals.append(check_rom(lib, checks, stage, rom, system, inp["fd_points"], hopf))
            return rom

        for order in size["fo_orders"]:
            build(f"fo_o{order}", lib.dpim.build_rom_firstorder, dae, spec, order,
                  hopf=oracle["P_H"])

        cubic, cubic_dae = cubic_test_model(lib, CUBIC_LOAD)
        spec2 = lib.spectral.solve_master_eigen(cubic, 4)
        for order in size["so_orders"]:
            rom2 = build(f"so_o{order}", lib.dpim.build_rom_secondorder, cubic, spec2, order)
        spec1 = lib.spectral.solve_master_eigen(cubic_dae, 4)
        rom1 = build(f"fo_cubic_o{rom2.order}", lib.dpim.build_rom_firstorder,
                     cubic_dae, spec1, rom2.order)
        n = rom2.W.shape[1]
        dw = np.abs(rom1.W[:, :n] - rom2.W).max() / np.abs(rom2.W).max()
        df = np.abs(rom1.f - rom2.f).max() / max(np.abs(rom2.f).max(), 1.0)
        checks.expect(dw < DUAL_TOL, f"dual-engine W differs by {dw:.2e}")
        checks.expect(df < DUAL_TOL, f"dual-engine f differs by {df:.2e}")

        build_s = sum(v for k, v in watch.stages.items() if k.startswith("dpim.build."))
        return {
            "work": monomials,
            "work_s": build_s,
            # invariance residual per unit reduced amplitude at the largest radius
            "rom_err": max(residuals) / SLOPE_RADII[-1],
            "counts": {"continuation.points": 0, "romdyn.rom_periods": 0,
                       "romdyn.fom_periods": 0, "dpim.monomials": monomials,
                       "dpim.nonzero_f_rows": nzf},
            "stages": watch.stages,
        }


WORKLOADS = {w.name: w for w in (ZieglerBranch(), BuildHighOrder(), ZieglerCyclesEP())}


def oracle_values():
    P_H, P_c = ziegler2_events()
    return {"P_H": P_H, "P_c": P_c}
