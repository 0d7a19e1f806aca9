"""Command-line front end.

This module writes every output line; the layers return result objects and
format nothing.  Every output begins with one manifest comment line recording
the tool version, the subcommand, its full flag set, and the seed, so
identical manifests reproduce identical files for deterministic subcommands
(wall time is reported on stderr, never in the output).  Scalar results print
as `key=value` lines and tables as CSV (csv_lines: a header, one row per
line, then `# key=value` comment lines).  Floats print with 17 significant
digits and integers as they are; interval unions parse as `y1,y2;y3,y4`.
Quadrature resolution is QuadratureSpec()'s default.  Exit codes: 2 for
usage errors, which argparse and the library's own input checks (ValueError)
decide, and 1 for numerical failures (ArithmeticError, QuadratureError,
LinAlgError).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import lru_cache

import numpy as np

from . import __version__
from ._quad import QuadratureError, QuadratureSpec

__all__ = ["csv_lines", "dispatch", "main"]


# handlers reach a layer as `_pkg.<layer>`: the package imports it on first
# use, so a subcommand compiles only the layers it calls into, and each call
# reads the module's current attribute, so a function replaced on the module
# is the one called
_pkg = sys.modules[__package__]


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _row(values):
    return ",".join(map(_fmt, values))


def _kv_block(pairs):
    return [f"{k}={_fmt(v)}" for k, v in pairs]


def _comment(pairs):
    return "# " + " ".join(_kv_block(pairs))


def csv_lines(header, rows, *comments):
    """A CSV table as lines: `header`, one comma-separated line per row of
    `rows` (floats at 17 significant digits, integers as they are), then the
    `comments` lines.  Rows built from Python lists (ndarray.tolist()) format
    faster than rows that index an array for every entry."""
    return [header, *map(_row, rows), *comments]


def _grid_rows(xs, ys, values):
    """Rows (x, y, values[i, j]) over xs x ys, x outer."""
    return zip(np.repeat(xs, len(ys)).tolist(), np.tile(ys, len(xs)).tolist(),
               values.ravel().tolist())


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _parse_interval_union(text):
    eps = []
    for part in text.split(";"):
        eps.extend(float(v) for v in part.split(","))
    return _pkg.fredholm.IntervalUnion(tuple(eps))


def _thread_count(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"thread count must be >= 1, got {text}")
    return v


def _grid(lo, hi, num):
    """num evenly spaced points from lo to hi; fewer than 1 is a usage error."""
    if num < 1:
        raise ValueError(f"a grid needs at least 1 point, got {num}")
    return np.linspace(lo, hi, num)


def _parse_grid(text):
    lo, hi, num = text.split(",")
    return _grid(float(lo), float(hi), int(num))


def _config_from(args):
    return _pkg.spectral_curve.TargetConfig(targets=_parse_floats(args.targets),
                                            fractions=_parse_floats(args.fractions),
                                            time=getattr(args, "t", 0.5))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a list of output lines


def _cmd_cusp(args):
    c = _pkg.spectral_curve.find_cusp(args.a, args.b, args.p)
    fields = ["q", "r", "p", "t0", "x0", "z0", "u0", "g0", "c0", "mu", "bigA",
              "alpha", "beta"]
    return _kv_block((f, getattr(c, f)) for f in fields)


def _cmd_density(args):
    cfg = _config_from(args)
    zg = _grid(args.zmin, args.zmax, args.num)
    samples = _pkg.spectral_curve.sweep_density(cfg, zg)
    return csv_lines("z,re_g,im_g,density",
                     ((d.z, d.g.real, d.g.imag, d.density) for d in samples))


def _cmd_support(args):
    s = _pkg.spectral_curve.support_endpoints(args.alpha, args.beta, args.p)
    return _kv_block([("endpoints", _row(s.endpoints)),
                      *((f"interval{i}", _row(ab)) for i, ab in enumerate(s.intervals))])


def _cmd_track(args):
    cfg = _pkg.spectral_curve.TargetConfig(targets=_parse_floats(args.targets),
                                           fractions=_parse_floats(args.fractions), time=0.5)
    events = _pkg.spectral_curve.track_merges(cfg, args.tmin, args.tmax)
    t_c = _pkg.spectral_curve.time_from_rescaled
    return csv_lines("T_c,z_c,t_c,left_index,right_index",
                     ((e.T_c, e.z_c, t_c(e.T_c), e.left_index, e.right_index)
                      for e in events))


def _cmd_kernel(args):
    spec = QuadratureSpec()
    xs, ys = _parse_grid(args.xgrid), _parse_grid(args.ygrid)
    if args.form == "double":
        vals = _pkg.kernels.pearcey_kernel_grid(args.s, args.t, xs, ys, spec)
    elif args.s != args.t:
        raise ValueError("kernel --form pq requires --s equal to --t")
    else:
        vals = _pkg.kernels.pearcey_kernel_matrix(args.t, xs, ys, spec)
    grid = _comment([("s", args.s), ("t", args.t), ("L", spec.truncation_radius),
                     ("panels", spec.panels), ("nodes", spec.nodes_per_panel)])
    return [grid, *csv_lines("x,y,value", _grid_rows(xs, ys, vals))]


def _cmd_gap(args):
    E = _parse_interval_union(args.E)
    handle = _pkg.fredholm.pearcey_kernel_handle(args.t)
    res = _pkg.fredholm.gap_probability(handle, E, args.m)
    return _kv_block([("value", res.value), ("log_value", res.log_value),
                      ("error_estimate", res.error_estimate)])


def _cmd_multigap(args):
    times = _parse_floats(args.times)
    sets = [_parse_interval_union(s) for s in args.sets.split("|")]
    res = _pkg.fredholm.multitime_gap(times, sets, args.m)
    return _kv_block([("value", res.value), ("log_value", res.log_value),
                      ("error_estimate", res.error_estimate)])


def _cmd_resolvent(args):
    E = _parse_interval_union(args.E)
    rd = _pkg.fredholm.resolvent_quantities(args.t, E, args.m)
    lines = _kv_block([("u", rd.u), ("condition", rd.condition)])
    for k, a in enumerate(E.endpoints):
        lines.append(f"p_hat_a{k+1}={rd.p_hat_end[k]:.17g}")
        lines.append(f"q_hat_a{k+1}={rd.q_hat_end[k]:.17g}")
    return lines


def _cmd_pde_residual(args):
    y1, y2 = _parse_floats(args.E)
    center, half = 0.5 * (y1 + y2), 0.5 * (y2 - y1)
    h = args.h
    surf = _pkg.pde_lab.q_surface((args.t0 - 2 * h, args.t0 + 2 * h), center, half, h, h,
                                  m=args.m)
    rep = _pkg.pde_lab.pearcey_pde_residual(surf)
    return csv_lines("t,y1,y2,residual",
                     ((t, rep.y1, rep.y2, r)
                      for t, r in zip(rep.t_values.tolist(), rep.residuals.tolist())),
                     _comment([("max_abs", rep.max_abs), ("h_t", rep.h_t), ("h_y", rep.h_y)]))


def _cmd_lemma_checks(args):
    E = _parse_interval_union(args.E)
    lhs, rhs, du = _pkg.fredholm.endpoint_identity_check(args.t, E, args.m)
    lines = _kv_block([("d2E_log_gap", lhs), ("sum_phat_qhat", rhs), ("dE_u", du),
                       # the identity holds as lhs = -rhs
                       ("rel_err_magnitude", abs(lhs + rhs) / abs(rhs))])
    rows, tgt1, tgt2 = _pkg.pde_lab.small_interval_checks(args.t, args.x,
                                                          (1e-2, 5e-3, 2.5e-3), args.m)
    return [*lines, *csv_lines("h,dEu_over_h,du_dt_over_h", rows),
            *_kv_block([("target_pq_prime", tgt1), ("target_heat", tgt2)])]


def _cmd_wronskian(args):
    val = _pkg.pde_lab.wronskian_coefficient(args.t, args.x)
    return _kv_block([("value", val)])


def _cmd_scaling_solve(args):
    derivs = _pkg.scaling.two_target_action_derivatives(args.a, args.b, args.p)
    co = _pkg.scaling.solve_scaling(derivs, args.tau)
    res = _pkg.scaling.scaling_conditions_residuals(co, derivs, args.tau)
    crit = _pkg.spectral_curve.find_cusp(args.a, args.b, args.p)
    return _kv_block([
        ("alpha_y", co.alpha_y), ("beta_x", co.beta_x), ("alpha_t", co.alpha_t),
        ("alpha_x", co.alpha_x), ("expect_alpha_y", 1.0 / crit.mu),
        ("expect_beta_x", crit.c0 * crit.mu),
        ("expect_alpha_t", 2.0 * crit.c0**2 * crit.mu**2),
        ("cond1", res[0]), ("cond2", res[1]), ("cond3", res[2]), ("cond4", res[3]),
    ])


def _cmd_exponents(args):
    e = _pkg.scaling.critical_exponents(args.l)
    return _kv_block([("l", e.l), ("gamma_y", e.gamma_y), ("gamma_x", e.gamma_x),
                      ("gamma_t", e.gamma_t)])


def _cmd_descent_check(args):
    u, v = _pkg.kernels.build_contours(args.q, QuadratureSpec().truncation_radius)
    rep = _pkg.scaling.contour_descent_check(args.q, v, args.samples, u_contour=u)
    lines = _kv_block([("passed", rep.passed), ("worst", rep.worst),
                       ("checked_points", rep.checked_points)])
    if not rep.passed:
        raise ArithmeticError(f"descent check failed: worst rise {rep.worst:.3e}")
    return lines


def _cmd_converge(args):
    n_list = [int(v) for v in args.n.split(",")]
    study = _pkg.scaling.convergence_study(args.a, args.b, args.p, n_list,
                                           _parse_floats(args.taus or "0"))
    return csv_lines("n,max_abs_error", ((r.n, r.max_abs_error) for r in study.rows),
                     _comment([("fitted_slope", study.slope)]))


def _cmd_sample_spectrum(args):
    cfg = _config_from(args)
    samples = _pkg.ensemble_mc.sample_spectra(args.n, cfg, args.seed, args.count,
                                              threads=args.threads)
    return csv_lines("sample_index,eigenvalue_index,value",
                     ((si, ei, v) for si, s in enumerate(samples)
                      for ei, v in enumerate(s.eigenvalues.tolist())))


def _cmd_sample_paths(args):
    cfg = _config_from(args)
    bundle = _pkg.ensemble_mc.sample_bridge_paths(args.n, cfg, args.steps, args.seed)
    return csv_lines("time,path_index,position",
                     _grid_rows(bundle.times, np.arange(len(bundle.paths)), bundle.paths.T))


def _cmd_compare_density(args):
    cfg = _config_from(args)
    samples = _pkg.ensemble_mc.sample_spectra(args.n, cfg, args.seed, args.count,
                                              threads=args.threads)
    pooled = np.concatenate([s.eigenvalues for s in samples])
    grid = _pkg.ensemble_mc.predicted_density_fn(cfg, pooled.min() - 0.5,
                                                 pooled.max() + 0.5)
    ks = _pkg.ensemble_mc.density_compare(samples, grid)
    return _kv_block([("ks", ks), ("n", args.n), ("count", args.count)])


_HANDLERS = {
    "cusp": _cmd_cusp, "density": _cmd_density, "support": _cmd_support,
    "track": _cmd_track, "kernel": _cmd_kernel, "gap": _cmd_gap,
    "multigap": _cmd_multigap, "resolvent": _cmd_resolvent,
    "pde-residual": _cmd_pde_residual, "lemma-checks": _cmd_lemma_checks,
    "wronskian": _cmd_wronskian, "scaling-solve": _cmd_scaling_solve,
    "exponents": _cmd_exponents, "descent-check": _cmd_descent_check,
    "converge": _cmd_converge, "sample-spectrum": _cmd_sample_spectrum,
    "sample-paths": _cmd_sample_paths, "compare-density": _cmd_compare_density,
}


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    ap = argparse.ArgumentParser(prog="pearceylab")
    ap.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1,
                    help="cap worker parallelism of sample-spectrum and compare-density "
                         "(results are thread-count independent)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def new(name):
        p = sub.add_parser(name)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = new("cusp")
    for f in ("a", "b", "p"):
        p.add_argument(f"--{f}", type=float, required=True)
    p = new("density")
    p.add_argument("--targets", required=True)
    p.add_argument("--fractions", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--zmin", type=float, required=True)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--num", type=int, default=201)
    p = new("support")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p = new("track")
    p.add_argument("--targets", required=True)
    p.add_argument("--fractions", required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p = new("kernel")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--xgrid", required=True, help="lo,hi,num")
    p.add_argument("--ygrid", required=True, help="lo,hi,num")
    p.add_argument("--form", choices=("double", "pq"), default="double")
    p = new("gap")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--E", required=True)
    p.add_argument("--m", type=int, default=40)
    p = new("multigap")
    p.add_argument("--times", required=True)
    p.add_argument("--sets", required=True, help="interval unions separated by |")
    p.add_argument("--m", type=int, default=32)
    p = new("resolvent")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--E", required=True)
    p.add_argument("--m", type=int, default=48)
    p = new("pde-residual")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--E", required=True, help="y1,y2 (one interval)")
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--m", type=int, default=48)
    p = new("lemma-checks")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--E", required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--m", type=int, default=48)
    p = new("wronskian")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p = new("scaling-solve")
    for f in ("a", "b", "p"):
        p.add_argument(f"--{f}", type=float, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p = new("exponents")
    p.add_argument("--l", type=int, required=True)
    p = new("descent-check")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p = new("converge")
    for f in ("a", "b", "p"):
        p.add_argument(f"--{f}", type=float, required=True)
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.add_argument("--taus", default="")
    p = new("sample-spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--fractions", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p = new("sample-paths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--fractions", required=True)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p = new("compare-density")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--fractions", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    return ap


def dispatch(argv):
    """Run one subcommand; returns the exit code (0 ok, 1 numerical, 2 usage)."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    started = time.time()
    flags = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                     if k not in ("out", "cmd", "threads") and v is not None)
    try:
        lines = _HANDLERS[args.cmd](args)
    except (ArithmeticError, QuadratureError, np.linalg.LinAlgError) as exc:
        print(f"pearceylab {args.cmd}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:   # the library's input checks
        print(f"pearceylab {args.cmd}: usage error: {exc}", file=sys.stderr)
        return 2
    seed = getattr(args, "seed", None)
    manifest = (f"# pearceylab={__version__} cmd={args.cmd} "
                f"seed={'none' if seed is None else seed} flags=[{flags}]")
    text = "\n".join([manifest, *lines]) + "\n"
    if args.out:
        with open(args.out, "w") as fh_:
            fh_.write(text)
    else:
        sys.stdout.write(text)
    print(f"pearceylab {args.cmd}: wall_time={time.time() - started:.3f}s", file=sys.stderr)
    return 0


def main(argv=None):
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
