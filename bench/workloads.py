"""The three benchmark workloads.

A workload builds its inputs from the seed, computes its reference values
(outside the timed phase), runs rounds of program operations (the timed
phase) and checks one round's outputs.  Every round runs the same
operations, so a run attempts whole rounds.  `FIRST_CALL` is the lazy
set-up a fresh process pays before its first result; the benchmark times it
in child processes and runs it once before the timed phase.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import time
from dataclasses import dataclass

import numpy as np

import reference as ref
from spans import point_to

# faults kept in the workloads: their operations fail on every run
FAULT_TIER = "adaptive finite-n tier outlier band (kernels._finite_adaptive)"
FAULT_BRANCH = "wrong real Stieltjes root off the support (spectral_curve)"


@dataclass
class Outcome:
    """Check result of one operation; `fault` names the known program fault
    the operation runs into, decided from its inputs before it runs."""

    op: str
    ok: bool
    detail: str = ""
    fault: str | None = None


class Raised:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text})"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return Raised(exc)


def check(op, result, predicate, detail, fault=None):
    """Outcome of `predicate(result)`, or a failed outcome if the op raised."""
    if isinstance(result, Raised):
        return Outcome(op, False, result.text, fault)
    ok = bool(predicate(result))
    return Outcome(op, ok, "" if ok else detail(result), fault)


def timed_calls(fn, sink):
    """Wrap `fn` so each call's latency in ms is appended to `sink`."""
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((time.perf_counter() - start) * 1e3)
    return timed


# ---------------------------------------------------------------------------
# pearcey-fredholm


class PearceyFredholm:
    """Pearcey gap probabilities, the two-time determinant, the Airy gap, the
    PDE surfaces and the CLI lines; the unit operation is one
    gap_probability call."""

    name = "pearcey-fredholm"
    FIRST_CALL = ("from pearceylab.fredholm import IntervalUnion, gap_probability, "
                  "pearcey_kernel_handle; "
                  "gap_probability(pearcey_kernel_handle(0.0), IntervalUnion((-0.5, 0.5)), 8)")
    M = 40
    M_REF = 8
    PDE_STEPS = ((0.05, 48), (0.025, 48), (0.0125, 64))
    CLI = (("gap", "--t", "0", "--E=-1,1", "--m", "40"),
           ("multigap", "--times=-1,1", "--sets=-1,1|-1,1", "--m", "32"),
           ("kernel", "--s", "0", "--t", "0", "--xgrid=-3,3,25", "--ygrid=-3,3,25"),
           ("resolvent", "--t", "0", "--E=-1,1", "--m", "48"))

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.times = [float(t) for t in np.sort(rng.uniform(-1.5, 1.5, 3))]
        self.sets = []
        for _ in self.times:
            c, w = rng.uniform(-1.2, 1.2), rng.uniform(0.3, 0.9)
            d1, d2, g, w2 = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5), \
                rng.uniform(0.3, 0.8), rng.uniform(0.2, 0.6)
            self.sets.append({"base": (c - w, c + w),
                              "wider": (c - w - d1, c + w + d2),
                              "mirror": (-c - w, -c + w),
                              "two": (c - w, c + w, c + w + g, c + w + g + w2)})
        ta, dt = rng.uniform(-1.5, 0.0), rng.uniform(1.0, 2.0)
        self.mt_times = (float(ta), float(ta + dt))
        self.mt_sets = []
        for _ in range(2):
            c, w = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 0.8)
            self.mt_sets.append((c - w, c + w))
        self.airy_s = float(rng.uniform(-2.5, -0.5))
        self.pde_t = float(rng.choice([-0.5, 0.0, 0.5]))
        c, w = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.0)
        self.identity = (float(rng.uniform(-1.0, 1.0)), (c - w, c + w))

    def references(self):
        a, b = self.sets[0]["base"]
        det, nodes, P, Q = ref.pearcey_gap_from_pq(self.times[0], a, b, self.M_REF)
        return {"det": det, "nodes": nodes, "P": P, "Q": Q,
                "airy": ref.airy_gap(self.airy_s)}

    def install_timer(self, sink):
        from pearceylab import fredholm
        point_to(fredholm.gap_probability, timed_calls(fredholm.gap_probability, sink))

    def round(self, refs):
        from pearceylab import cli, fredholm as fh, kernels as kn, pde_lab as pl
        from pearceylab._quad import QuadratureSpec
        out = {}
        for i, (t, sets) in enumerate(zip(self.times, self.sets)):
            handle = fh.pearcey_kernel_handle(t)
            for key, ep in sets.items():
                out[f"gap{i}.{key}"] = attempt(fh.gap_probability, handle,
                                               fh.IntervalUnion(ep), self.M)
        out["pq"] = attempt(kn.pq_tables, self.times[0], refs["nodes"])
        out["pearcey_pq"] = [attempt(kn.pearcey_pq, self.times[0], float(x))
                             for x in refs["nodes"]]
        mt_sets = [fh.IntervalUnion(ep) for ep in self.mt_sets]
        out["multitime"] = attempt(fh.multitime_gap, self.mt_times, mt_sets, 32)
        for j, (t, E) in enumerate(zip(self.mt_times, mt_sets)):
            out[f"marginal{j}"] = attempt(fh.gap_probability, fh.pearcey_kernel_handle(t),
                                          E, self.M)
        out["airy"] = attempt(fh.airy_gap_on_ray, self.airy_s, 48)
        surfaces = []
        for h, m in self.PDE_STEPS:
            s = attempt(pl.q_surface, (self.pde_t - 2 * h, self.pde_t + 2 * h), 0.0, 1.0,
                        h, h, m=m)
            surfaces.append(s)
            out[f"surface{h}"] = s if isinstance(s, Raised) else s.Q
        if not any(isinstance(s, Raised) for s in surfaces):
            out["residuals"] = [pl.pearcey_pde_residual(s).max_abs for s in surfaces]
            out["control"] = [pl.pearcey_pde_residual(s.scaled(1.01)).max_abs
                              for s in surfaces[:2]]
        t, ep = self.identity
        out["identity"] = attempt(fh.endpoint_identity_check, t, fh.IntervalUnion(ep), 64)
        for line in self.CLI:
            runs = []
            for _ in range(2):
                buf, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = cli.dispatch(["--threads", "1", *line])
                runs.append((code, buf.getvalue()))
            out[f"cli.{line[0]}"] = runs
        spec = QuadratureSpec()
        unit = fh.IntervalUnion((-1.0, 1.0))
        out["lib.gap"] = fh.gap_probability(fh.pearcey_kernel_handle(0.0, spec), unit, 40)
        out["lib.multigap"] = fh.multitime_gap((-1.0, 1.0), [unit, unit], 32, spec)
        grid = np.linspace(-3.0, 3.0, 25)
        out["lib.kernel"] = kn.pearcey_kernel_grid(0.0, 0.0, grid, grid, spec)
        out["lib.resolvent"] = fh.resolvent_quantities(0.0, unit, 48, spec)
        return out

    def check(self, out, refs):
        res = []
        for i, sets in enumerate(self.sets):
            vals = {k: out[f"gap{i}.{k}"] for k in sets}
            for key in sets:
                res.append(check(f"gap t={self.times[i]:.3f} {key}", vals[key],
                                 lambda g: 0.0 < g.value <= 1.0 and g.error_estimate <= 1e-6,
                                 lambda g: f"value {g.value!r} err {g.error_estimate!r}"))
            if all(not isinstance(v, Raised) for v in vals.values()):
                base = vals["base"].value
                res.append(Outcome(f"gap t={self.times[i]:.3f} inclusion",
                                   vals["wider"].value <= base + 1e-12
                                   and vals["two"].value <= base + 1e-12,
                                   f"base {base} wider {vals['wider'].value} "
                                   f"two {vals['two'].value}"))
                res.append(Outcome(f"gap t={self.times[i]:.3f} mirror",
                                   abs(vals["mirror"].value - base) <= 1e-10,
                                   f"{vals['mirror'].value} vs {base}"))
        P, Q = refs["P"], refs["Q"]
        res.append(check("pq_tables vs mpmath", out["pq"],
                         lambda r: (np.abs(r[0][:3] - P) <= 1e-9 * (1 + np.abs(P))).all()
                         and (np.abs(r[1] - Q) <= 1e-9 * (1 + np.abs(Q))).all(),
                         lambda r: f"max |dP| {np.abs(r[0][:3] - P).max():.2e} "
                                   f"|dQ| {np.abs(r[1] - Q).max():.2e}"))
        for x, f, p, q in zip(refs["nodes"], out["pearcey_pq"], P.T, Q.T):
            res.append(check(f"pearcey_pq x={x:.4f} vs mpmath", f,
                             lambda f, p=p, q=q: (
                                 np.abs(f.p_values()[:3].real - p) <= 1e-9 * (1 + np.abs(p))).all()
                             and (np.abs(f.q_values().real - q) <= 1e-9 * (1 + np.abs(q))).all(),
                             lambda f, p=p, q=q: f"p {f.p_values()[:3].real} vs {p}, "
                                                 f"q {f.q_values().real} vs {q}"))
        res.append(check("gap vs mpmath Nystrom det", out["gap0.base"],
                         lambda g: abs(g.value - refs["det"]) <= 1e-9,
                         lambda g: f"{g.value!r} vs {refs['det']!r}"))
        margins = [out["marginal0"], out["marginal1"]]
        for j, g in enumerate(margins):
            res.append(check(f"marginal gap {j}", g, lambda g: 0.0 < g.value <= 1.0,
                             lambda g: f"value {g.value!r}"))
        res.append(check("two-time gap", out["multitime"],
                         lambda g: 0.0 < g.value <= 1.0 and all(
                             isinstance(m, Raised) or g.value <= m.value + 1e-12 for m in margins),
                         lambda g: f"{g.value!r} vs marginals "
                                   f"{[getattr(m, 'value', m) for m in margins]}"))
        res.append(check("airy gap vs scipy Nystrom det", out["airy"],
                         lambda g: abs(g.value - refs["airy"]) <= 1e-9 + g.error_estimate,
                         lambda g: f"{g.value!r} vs {refs['airy']!r}"))
        for h, _ in self.PDE_STEPS:
            res.append(check(f"q_surface h={h}", out[f"surface{h}"],
                             lambda Q: np.isfinite(Q).all() and Q.max() <= 1e-12,
                             lambda Q: "log gap not finite or positive"))
        if "residuals" in out:
            r, c = out["residuals"], out["control"]
            f1, f2, fc = r[0] / r[1], r[1] / r[2], c[0] / c[1]
            res.append(Outcome("pde contraction", 3.0 < f1 < 5.0 and 3.0 < f2 < 5.0,
                               f"factors {f1:.3f} {f2:.3f}"))
            res.append(Outcome("pde corrupted control", not 3.0 < fc < 5.0,
                               f"control factor {fc:.3f}"))
        else:
            res += [Outcome(op, False, "a surface raised")
                    for op in ("pde contraction", "pde corrupted control")]
        res.append(check("endpoint identity", out["identity"],
                         lambda v: abs(v[0] + v[1]) <= 1e-5 * abs(v[1])
                         and abs(v[2] - v[1]) <= 1e-5 * abs(v[1]),
                         lambda v: f"lhs {v[0]!r} rhs {v[1]!r} du {v[2]!r}"))
        res.extend(self._check_cli(out))
        return res

    def _check_cli(self, out):
        lib = {"gap": {"value": out["lib.gap"].value, "log_value": out["lib.gap"].log_value,
                       "error_estimate": out["lib.gap"].error_estimate},
               "multigap": {"value": out["lib.multigap"].value,
                            "log_value": out["lib.multigap"].log_value,
                            "error_estimate": out["lib.multigap"].error_estimate}}
        rd = out["lib.resolvent"]
        lib["resolvent"] = {"u": rd.u, "condition": rd.condition}
        for k in range(2):
            lib["resolvent"][f"p_hat_a{k + 1}"] = rd.p_hat_end[k]
            lib["resolvent"][f"q_hat_a{k + 1}"] = rd.q_hat_end[k]
        res = []
        for line in self.CLI:
            cmd = line[0]
            (c1, t1), (c2, t2) = out[f"cli.{cmd}"]
            lines = t1.splitlines()
            problems = []
            if c1 != 0 or c2 != 0:
                problems.append(f"exit codes {c1}, {c2}")
            if t1 != t2:
                problems.append("output differs between two runs")
            if not lines or not lines[0].startswith("# pearceylab="):
                problems.append("no manifest line")
            if cmd == "kernel":
                rows = [r.split(",") for r in lines[3:]]
                got = [r[2] for r in rows]
                want = [f"{v:.17g}" for v in out["lib.kernel"].ravel()]
                if got != want:
                    problems.append("kernel values differ from pearcey_kernel_grid")
            elif lines:
                kv = dict(r.split("=", 1) for r in lines[1:])
                for key, val in lib[cmd].items():
                    if kv.get(key) != f"{val:.17g}":
                        problems.append(f"{key}={kv.get(key)} but library gives {val:.17g}")
            res.append(Outcome(f"cli {cmd}", not problems, "; ".join(problems)))
        return res


# ---------------------------------------------------------------------------
# finite-n-spectral


SYMMETRIC = ((-1.0, 1.0), (0.5, 0.5))
ASYMMETRIC = ((0.0, 1.0), (8.0 / 9.0, 1.0 / 9.0))


class FiniteNSpectral:
    """Finite-n diagonal profiles, the convergence study, the cusp-vs-adaptive
    tier agreement, and the Stieltjes branch swept and pointwise; the unit
    operation is one finite-n diagonal point."""

    name = "finite-n-spectral"
    FIRST_CALL = ("from pearceylab.kernels import FiniteKernelParams, finite_n_kernel; "
                  "finite_n_kernel(FiniteKernelParams(n=8, a=1.0, b=-1.0, p=0.5, "
                  "t_k=1/3, t_l=1/3), 0.0, 0.0)")
    # (label, n, a, b, p, t, lambda grid, fault); the symmetric grid holds
    # 1.94132, inside the adaptive tier's outlier band
    PROFILES = (("symmetric n=8", 8, 1.0, -1.0, 0.5, 1.0 / 3.0,
                 1.94132 + 0.2 * np.arange(-34, 16), FAULT_TIER),
                ("asymmetric n=9", 9, 1.0, 0.0, 1.0 / 9.0, 0.5,
                 1.5 / 9.0 + 0.2 * np.arange(-25, 26), None))
    N_LIST = (64, 256, 1024, 4096)
    TIER_Z = (-0.3, -0.25, -0.2, -0.15, -0.1, -0.05, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    # (label, targets/fractions, time, sweep grid, fixed gap points)
    CURVES = (("symmetric t=0.2", SYMMETRIC, 0.2, np.linspace(-3.5, 3.5, 141), ()),
              ("symmetric t=0.5", SYMMETRIC, 0.5, np.linspace(-3.5, 3.5, 141),
               (-0.1, 0.0, 0.1)),
              ("asymmetric t=0.4", ASYMMETRIC, 0.4, np.linspace(-3.0, 4.0, 141), ()),
              ("asymmetric t=0.7", ASYMMETRIC, 0.7, np.linspace(-3.0, 4.0, 141),
               (1.85, 1.89, 1.95)))

    def __init__(self, seed):
        self.rng = np.random.default_rng([seed, 2])
        self.tier_z = [float(z) for z in self.rng.choice(self.TIER_Z, 3, replace=False)]

    def references(self):
        refs = {"moments": [ref.diagonal_moments(n, a, b, p, t)
                            for _, n, a, b, p, t, _, _ in self.PROFILES],
                "curves": []}
        for _, (targets, fractions), t, grid, gap in self.CURVES:
            R = ref.SpectralReference(targets, fractions, t)
            # seeded points stay 0.05 clear of the gap and of every support
            # edge, so which points meet the branch fault does not depend on
            # the seed
            edges = [e for iv in R.support for e in iv]
            pts = list(gap)
            while len(pts) < len(gap) + 12:
                z = float(self.rng.uniform(grid[0], grid[-1]))
                if not R.in_gap(z) and min(abs(z - e) for e in edges) >= 0.05:
                    pts.append(z)
            refs["curves"].append({"ref": R, "sweep": R.branch(grid),
                                   "sweep_density": R.density(grid),
                                   "points": pts, "branch": R.branch(pts)})
        return refs

    def install_timer(self, sink):
        self.sink = sink

    def round(self, refs):
        from pearceylab import kernels as kn, scaling as sc, spectral_curve as sp
        out = {}
        for label, n, a, b, p, t, lams, _ in self.PROFILES:
            vals = []
            for lam in lams:
                start = time.perf_counter()
                vals.append(attempt(kn.finite_n_diagonal, n, a, b, p, t, [lam]))
                self.sink.append((time.perf_counter() - start) * 1e3)
            out[label] = vals
        out["converge q=2"] = attempt(sc.convergence_study, 1.0, 0.0, 1.0 / 9.0, self.N_LIST)
        out["converge symmetric"] = attempt(sc.convergence_study, 1.0, -1.0, 0.5, self.N_LIST)
        params = kn.FiniteKernelParams(n=50, a=1.0, b=-1.0, p=0.5, t_k=1.0 / 3.0,
                                       t_l=1.0 / 3.0)
        c = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0)
        for z in self.tier_z:
            lam = math.sqrt(50) * c * z
            out[f"tier z={z}"] = (
                attempt(kn.finite_n_kernel_scaled, params, lam, lam, contours="cusp"),
                attempt(kn.finite_n_kernel_scaled, params, lam, lam, contours="adaptive"))
        for (label, (targets, fractions), t, grid, _), curve in zip(self.CURVES,
                                                                     refs["curves"]):
            cfg = sp.TargetConfig(targets=targets, fractions=fractions, time=t)
            out[f"sweep {label}"] = attempt(sp.sweep_density, cfg, grid)
            out[f"solve {label}"] = [attempt(sp.solve_stieltjes, cfg, z)
                                     for z in curve["points"]]
        return out

    def check(self, out, refs):
        res = []
        for (label, n, a, b, p, t, lams, fault), moments in zip(self.PROFILES,
                                                                 refs["moments"]):
            res.append(self._check_profile(label, n, lams, out[label], moments, fault))
        for label, window in (("converge q=2", (-0.35, -0.15)),
                              ("converge symmetric", (-math.inf, -0.15))):
            res.append(check(label, out[label],
                             lambda st, w=window: w[0] < st.slope < w[1] and all(
                                 r2.max_abs_error < r1.max_abs_error
                                 for r1, r2 in zip(st.rows[-3:], st.rows[-2:])),
                             lambda st: f"slope {st.slope:.4f} errors "
                                        f"{[r.max_abs_error for r in st.rows]}"))
        for z in self.tier_z:
            pair = out[f"tier z={z}"]
            raised = [v for v in pair if isinstance(v, Raised)]
            if raised:
                res.append(Outcome(f"tier agreement z={z}", False, raised[0].text))
                continue
            u, v = ((val * np.exp(ls)).real for val, ls in pair)
            res.append(Outcome(f"tier agreement z={z}", abs(u - v) < 5e-5 * abs(u),
                               f"cusp {u!r} adaptive {v!r}"))
        for (label, *_), curve in zip(self.CURVES, refs["curves"]):
            res.extend(self._check_curve(label, curve, out))
        return res

    def _check_profile(self, label, n, lams, vals, moments, fault):
        bad = [v for v in vals if isinstance(v, Raised)]
        if bad:
            return Outcome(f"profile {label}", False, bad[0].text, fault)
        prof = np.array([v[0] for v in vals])
        h = lams[1] - lams[0]
        got = [h * np.sum(prof * lams**k) for k in range(3)]     # trapezoidal sums
        sigma = math.sqrt(moments[2] / n)       # root mean square position
        errs = [abs(g - m) / (n * sigma**k) for k, (g, m) in enumerate(zip(got, moments))]
        ok = max(errs) <= 1e-4 and (prof > -1e-9).all()
        i = int(np.argmin(np.abs(lams - 1.94132)))
        detail = (f"moment errors {[f'{e:.2e}' for e in errs]}; value at {lams[i]:.5f}: "
                  f"{prof[i]:.4f}, neighbours {prof[max(i - 1, 0)]:.4f} "
                  f"{prof[min(i + 1, len(prof) - 1)]:.4f}")
        return Outcome(f"profile {label}", ok, detail, fault)

    def _check_curve(self, label, curve, out):
        R = curve["ref"]
        right = R.support[-1][1]
        grid = next(c[3] for c in self.CURVES if c[0] == label)
        sweep = out[f"sweep {label}"]
        if isinstance(sweep, Raised):
            return [Outcome(f"sweep {label}", False, sweep.text)]
        symmetric = R.bt[0] == -R.bt[1] and R.eps[0] == R.eps[1]
        res = []
        for k, (z, s) in enumerate(zip(grid, sweep)):
            # the continuation keeps a wrong real root in the gap and, once it
            # has crossed the support, right of it
            fault = FAULT_BRANCH if R.in_gap(z) or z > right else None
            want, dens = curve["sweep"][k], curve["sweep_density"][k]
            ok = (abs(s.g - want) <= 1e-8 * (1 + abs(want))
                  and abs(s.density - dens) <= 1e-8 * (1 + dens))
            if ok and symmetric and fault is None and not (R.in_gap(-z) or -z > right):
                # odd symmetry g(-z) = -conj(g(z))
                ok = abs(sweep[len(grid) - 1 - k].g + np.conj(s.g)) <= 1e-8 * (1 + abs(s.g))
            res.append(Outcome(f"sweep {label} z={z:.3f}", ok,
                               f"g {s.g!r} reference {want!r}", fault))
        for z, got, want in zip(curve["points"], out[f"solve {label}"], curve["branch"]):
            fault = FAULT_BRANCH if R.in_gap(z) else None
            res.append(check(f"solve {label} z={z:.4f}", got,
                             lambda s, w=want: abs(s.g - w) <= 1e-8 * (1 + abs(w)),
                             lambda s, w=want: f"g {s.g!r} reference {w!r}", fault))
        return res


# ---------------------------------------------------------------------------
# bridge-mc


class BridgeMC:
    """Matrix spectra against the equilibrium density and bridge bundles for
    the 3/2 cusp law; the unit operation is one sample_spectrum draw."""

    name = "bridge-mc"
    FIRST_CALL = ("from pearceylab.ensemble_mc import sample_spectrum; "
                  "from pearceylab.spectral_curve import TargetConfig; "
                  "sample_spectrum(50, TargetConfig((-1.0, 1.0), (0.5, 0.5), 0.2), 0)")
    N_SPECTRA, DRAWS, SPECTRA_TIMES = 200, 60, (0.2, 0.6)
    N_BUNDLE, STEPS, BUNDLES, T_MAX = 400, 60, 10, 0.97
    CHUNKS = 5
    # the 3/2 law fit: the window starts past the Pearcey zone (t - t0 of
    # order n^-1/2 = 0.05), and the cloud quartile, unlike an extreme quantile,
    # is resolved by 10 bundles (slope 1.503 +- 0.034; cusp_fit_study.py)
    FIT = {"t_lo_off": 0.08, "t_hi_off": 0.30, "quantile": 0.25}
    N_MARGINAL, MARGINAL_STEPS, MARGINAL_DRAWS = 100, 20, 60

    def __init__(self, seed):
        self.seed = int(seed)

    def references(self):
        refs = {}
        for t in self.SPECTRA_TIMES:
            R = ref.SpectralReference(*SYMMETRIC, t)
            lo, hi = R.support[0][0], R.support[-1][1]
            refs[t] = {"cdf": R.cdf_table(lo, hi), "bt": R.bt}
        return refs

    def install_timer(self, sink):
        from pearceylab import ensemble_mc
        fn = ensemble_mc.sample_spectrum
        timed = timed_calls(fn, sink)

        @functools.wraps(fn)
        def draw(n, *args, **kwargs):
            # the unit operation is a draw at the density-comparison size
            return (timed if n == self.N_SPECTRA else fn)(n, *args, **kwargs)
        point_to(fn, draw)

    def round(self, refs):
        from pearceylab import ensemble_mc as mc, spectral_curve as sp
        out = {}
        cfgs = {t: sp.TargetConfig(targets=SYMMETRIC[0], fractions=SYMMETRIC[1], time=t)
                for t in self.SPECTRA_TIMES}
        cfg = sp.TargetConfig(targets=ASYMMETRIC[0], fractions=ASYMMETRIC[1], time=0.5)
        spectra = {t: [] for t in self.SPECTRA_TIMES}
        bundles = []
        # spectra and bundles alternate in chunks, so that the timed draws
        # sample the whole round: the machine's speed drifts over seconds
        for k in range(self.CHUNKS):
            chunk_seed = self.seed * self.CHUNKS + k
            for t in self.SPECTRA_TIMES:
                spectra[t] += mc.sample_spectra(self.N_SPECTRA, cfgs[t], chunk_seed,
                                                self.DRAWS // self.CHUNKS)
            bundles += mc.sample_bundles(self.N_BUNDLE, cfg, self.STEPS, chunk_seed,
                                         self.BUNDLES // self.CHUNKS, t_max=self.T_MAX)
        for t, samples in spectra.items():
            pooled = np.concatenate([s.eigenvalues for s in samples])
            grid = mc.predicted_density_fn(cfgs[t], pooled.min() - 0.4, pooled.max() + 0.4)
            out[f"spectra t={t}"] = (np.stack([s.eigenvalues for s in samples]),
                                     mc.density_compare(samples, grid))
        p = ASYMMETRIC[1][1]
        out["cusp exponent"] = mc.fit_cusp_exponent(bundles, 1.0, 0.0, p, self.N_BUNDLE,
                                                    **self.FIT)[0]
        out["endpoint fractions"] = np.array([mc.endpoint_fractions(b, cfg, self.N_BUNDLE)
                                              for b in bundles])
        out["bundle paths"] = np.stack([b.paths for b in bundles])
        cfg = sp.TargetConfig(targets=SYMMETRIC[0], fractions=SYMMETRIC[1], time=0.2)
        n = self.N_MARGINAL
        paths = [mc.sample_bridge_paths(n, cfg, self.MARGINAL_STEPS, self.seed, index=i,
                                        t_max=0.95) for i in range(self.MARGINAL_DRAWS)]
        j = int(np.argmin(np.abs(paths[0].times - 0.3)))
        t_j = float(paths[0].times[j])
        cfg_t = sp.TargetConfig(targets=SYMMETRIC[0], fractions=SYMMETRIC[1], time=t_j)
        scale = math.sqrt(n) * math.sqrt(t_j * (1 - t_j) / 2)
        out["marginal paths"] = np.sort(np.concatenate([b.paths[:, j] for b in paths]))
        out["marginal spectra"] = np.sort(np.concatenate(
            [mc.sample_spectrum(n, cfg_t, self.seed + 1, index=i).eigenvalues * scale
             for i in range(self.MARGINAL_DRAWS)]))
        return out

    def check(self, out, refs):
        res = []
        for t in self.SPECTRA_TIMES:
            eig, ks = out[f"spectra t={t}"]
            zg, cdf = refs[t]["cdf"]
            ks_ref = ref.ks_distance(np.sort(eig.ravel()), zg, cdf)
            res.append(Outcome(f"density KS t={t}", ks < 0.05 and ks_ref < 0.05
                               and abs(ks - ks_ref) <= 0.01,
                               f"KS {ks:.4f}, against the reference density {ks_ref:.4f}"))
            half = self.N_SPECTRA // 2
            exact = ref.exact_second_moment((half, half), refs[t]["bt"])
            tr2 = (eig**2).sum(axis=1)
            tol = 5.0 * tr2.std(ddof=1) / math.sqrt(len(tr2))
            res.append(Outcome(f"second moment t={t}", abs(tr2.mean() - exact) <= tol,
                               f"mean Tr M^2 {tr2.mean():.4f}, exact {exact:.4f}, "
                               f"tolerance {tol:.4f}"))
        slope = out["cusp exponent"]
        res.append(Outcome("cusp exponent", abs(slope - 1.5) < 0.2, f"slope {slope:.4f}"))
        n1 = int(round(ASYMMETRIC[1][1] * self.N_BUNDLE))
        want = np.array([self.N_BUNDLE - n1, n1]) / self.N_BUNDLE
        fr = out["endpoint fractions"]
        res.append(Outcome("endpoint fractions", bool(np.all(np.abs(fr - want) < 1e-12)),
                           f"fractions {fr.tolist()} want {want.tolist()}"))
        paths = out["bundle paths"]
        res.append(Outcome("paths ordered", bool((np.diff(paths, axis=1) > 0).all()),
                           "paths cross"))
        cp, cs = out["marginal paths"], out["marginal spectra"]
        grid = np.linspace(min(cp[0], cs[0]), max(cp[-1], cs[-1]), 801)
        ks = float(np.abs(np.searchsorted(cp, grid) / len(cp)
                          - np.searchsorted(cs, grid) / len(cs)).max())
        res.append(Outcome("path marginal vs spectrum", ks < 0.05, f"two-sample KS {ks:.4f}"))
        return res


WORKLOADS = {w.name: w for w in (PearceyFredholm, FiniteNSpectral, BridgeMC)}
