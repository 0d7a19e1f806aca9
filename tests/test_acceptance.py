"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here, not calibrated elsewhere.
"""

import math

import numpy as np
import pytest

from conftest import random_abp
from pearceylab._quad import QuadratureSpec
from pearceylab.ensemble_mc import (density_compare, endpoint_fractions,
                                    fit_cusp_exponent, predicted_density_fn,
                                    sample_bridge_paths, sample_bundles,
                                    sample_spectra, sample_spectrum)
from pearceylab.fredholm import (IntervalUnion, airy_gap_on_ray,
                                 endpoint_identity_check, gap_probability,
                                 pearcey_kernel_handle)
from pearceylab.kernels import (build_contours, pearcey_kernel_grid,
                                pearcey_kernel_matrix, pearcey_pq, pq_tables)
from pearceylab.pde_lab import (pearcey_pde_residual, q_surface,
                                wronskian_coefficient)
from pearceylab.scaling import (action_F, contour_descent_check,
                                convergence_study, critical_exponents,
                                remainder_bound_check, scaling_conditions_residuals,
                                solve_scaling, two_target_action_derivatives)
from pearceylab.spectral_curve import TargetConfig, discriminant_quartic, find_cusp

SPEC = QuadratureSpec()


def report(num, ok, text):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_cusp_constants():
    c = find_cusp(1.0, -1.0, 0.5)
    ok = (abs(c.t0 - 1 / 3) < 1e-12 and abs(c.x0) < 1e-12
          and abs(c.c0 - 1 / 3) < 1e-12 and abs(c.mu - 1.0) < 1e-12
          and abs(c.bigA) < 1e-12)
    c2 = find_cusp(1.0, 0.0, 1.0 / 9.0)
    expect = dict(q=2.0, r=math.sqrt(3), t0=0.6, x0=0.6, c0=math.sqrt(3) / 5,
                  mu=1.5 ** 0.25, u0=2 / math.sqrt(3), z0=math.sqrt(3),
                  bigA=math.sqrt(2) / 10)
    for k, v in expect.items():
        ok = ok and abs(getattr(c2, k) - v) < 1e-12
    # brute-force double-root search over t: coarse discriminant-sign
    # bisection, then the simple-zero discriminant factor to 1e-8
    a, b, p = 1.0, 0.0, 1.0 / 9.0

    def inner_factor(t):
        rho = (a - b) ** 2 * 2 * t / (1 - t)
        return (rho - 1) ** 3 - 27 * p * (1 - p) * rho

    lo, hi = 0.3, 0.9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inner_factor(mid) < 0:
            lo = mid
        else:
            hi = mid
    ok = ok and abs(hi - c2.t0) < 1e-8
    report(1, ok, f"cusp constants exact; brute-force t0 at {hi:.12f}")


def test_criterion_02_derivative_vanishing(rng):
    worst = 0.0
    for _ in range(20):
        a, b, p = random_abp(rng)
        crit = find_cusp(a, b, p)
        F = action_F(crit.u0, crit, order=4)
        target = -(crit.q**2 - crit.q + 1) / (4 * crit.q)
        worst = max(worst, abs(F[1]), abs(F[2]), abs(F[3]),
                    abs(F[4].real / 24 - target))
    report(2, worst < 1e-10, f"F', F'', F''' vanish and F''''/4! matches (worst {worst:.2e})")


def test_criterion_03_kernel_cross_representation():
    xs = np.linspace(-3.0, 3.0, 5)
    worst_rep = 0.0
    for t in (-2.0, 0.0, 2.0):
        Kd = pearcey_kernel_grid(t, t, xs, xs, SPEC)
        Kq = pearcey_kernel_matrix(t, xs, xs, SPEC)
        worst_rep = max(worst_rep, float(np.abs(Kd - Kq).max() / (1 + np.abs(Kd).max())))
    # ODE / heat / kernel-PDE residuals grid-wide
    worst_ode = worst_heat = worst_pde = 0.0
    h = 1e-3
    for t in (-2.0, 0.0, 2.0):
        for x in xs:
            f = pearcey_pq(t, float(x), SPEC)
            rp, rq = f.ode_residuals()
            scale = max(1.0, abs(f.p), abs(f.q))
            worst_ode = max(worst_ode, rp / scale, rq / scale)
            fp = pearcey_pq(t + h, float(x), SPEC)
            fm = pearcey_pq(t - h, float(x), SPEC)
            worst_heat = max(worst_heat,
                             abs((fp.p - fm.p).real / (2 * h) + 0.5 * f.d2p.real),
                             abs((fp.q - fm.q).real / (2 * h) - 0.5 * f.d2q.real))
        for (x, y) in ((-2.0, 1.0), (0.5, 0.5), (2.5, -1.5)):
            dK = (pearcey_kernel_matrix(t + h, [x], [y], SPEC)[0, 0]
                  - pearcey_kernel_matrix(t - h, [x], [y], SPEC)[0, 0]) / (2 * h)
            fx = pearcey_pq(t, x, SPEC)
            fy = pearcey_pq(t, y, SPEC)
            rhs = 0.5 * (-fx.dp.real * fy.q.real + fx.p.real * fy.dq.real)
            worst_pde = max(worst_pde, abs(dK - rhs))
    ok = worst_rep < 1e-8 and worst_ode < 1e-6 and worst_heat < 1e-6 and worst_pde < 1e-6
    report(3, ok, f"representations agree ({worst_rep:.1e}); ODE {worst_ode:.1e}, "
                  f"heat {worst_heat:.1e}, kernel-PDE {worst_pde:.1e}")


def test_criterion_04_descent_and_remainder(rng):
    ok = True
    for q in (0.5, 1.0, 2.0, 5.0):
        u, v = build_contours(q, SPEC.truncation_radius)
        rep = contour_descent_check(q, v, samples=200, u_contour=u)
        ok = ok and rep.passed
    count = 0
    while count < 50:
        q = rng.uniform(0.3, 3.0)
        n = int(rng.integers(10**4, 10**7))
        r = math.sqrt(q * q - q + 1)
        dmax = min(n ** (1 / 20.0), min(1.0, q) / (2 * r) * n**0.25)
        delta = rng.uniform(0.0, 0.999 * dmax)
        lhs, rhs, good = remainder_bound_check(q, delta, n)
        ok = ok and good
        count += 1
    report(4, ok, "descent passes for q in {1/2,1,2,5}; remainder bound holds "
                  "for 50 random (q, delta, n)")


def test_criterion_05_universality_rate():
    """The q=2 case must fit the stated [-0.35, -0.15] slope window.  For the
    symmetric case the centered action is even, every odd Taylor order
    vanishes, and the true rate is n^(-1/2); the stated window cannot contain
    it (see the decisions ledger), so the symmetric gate is: errors decrease
    and the slope is at least as fast as the proven O(n^(-1/4)) bound."""
    n_list = [64, 256, 1024, 4096]
    st_q2 = convergence_study(1.0, 0.0, 1.0 / 9.0, n_list, spec=SPEC)
    errs_q2 = [r.max_abs_error for r in st_q2.rows]
    ok_q2 = (-0.35 < st_q2.slope < -0.15) and all(
        e2 < e1 for e1, e2 in zip(errs_q2[-3:], errs_q2[-2:]))
    st_sym = convergence_study(1.0, -1.0, 0.5, n_list, spec=SPEC)
    errs_sym = [r.max_abs_error for r in st_sym.rows]
    ok_sym = st_sym.slope < -0.15 and all(
        e2 < e1 for e1, e2 in zip(errs_sym[-3:], errs_sym[-2:]))
    report(5, ok_q2 and ok_sym,
           f"q=2 slope {st_q2.slope:.3f} in [-0.35,-0.15], errors {errs_q2}; "
           f"symmetric slope {st_sym.slope:.3f} (provably ~ -1/2, see ledger), "
           f"errors {errs_sym}")


def test_criterion_06_scaling_solver(rng):
    worst = 0.0
    for _ in range(20):
        a, b, p = random_abp(rng)
        crit = find_cusp(a, b, p)
        co = solve_scaling(two_target_action_derivatives(a, b, p), tau=1.0)
        worst = max(worst,
                    abs(co.alpha_y - 1 / crit.mu),
                    abs(co.beta_x - crit.c0 * crit.mu),
                    abs(co.alpha_t - 2 * crit.c0**2 * crit.mu**2))
    from fractions import Fraction
    e1, e2 = critical_exponents(1), critical_exponents(2)
    exact = ((e1.gamma_y, e1.gamma_x, e1.gamma_t)
             == (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))
             and (e2.gamma_y, e2.gamma_x, e2.gamma_t)
             == (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)))
    report(6, worst < 1e-8 and exact,
           f"solve_scaling reproduces (1/mu, c0 mu, 2 c0^2 mu^2) (worst {worst:.2e}); "
           "exponents exact for l=1,2")


def test_criterion_07_resolvent_identity():
    """Endpoint resolvent identity anchors; in this package's orientation the summed
    form carries an overall minus against d^2_E log-gap (ledgered), and
    dE u = +sum; both sides at 1e-5 relative accuracy."""
    worst = 0.0
    for (t, E) in ((0.0, IntervalUnion((-1.0, 1.0))), (1.0, IntervalUnion((0.0, 2.0)))):
        lhs, rhs, du = endpoint_identity_check(t, E, m=64, spec=SPEC)
        worst = max(worst, abs(lhs + rhs) / abs(rhs), abs(du - rhs) / abs(rhs))
    report(7, worst < 1e-5, f"endpoint resolvent identity rel err {worst:.2e}")


def test_criterion_08_pde_residual_contraction():
    ok = True
    details = []
    for tc in (-0.5, 0.0, 0.5):
        res = []
        for h, m in ((0.05, 48), (0.025, 48), (0.0125, 64)):
            s = q_surface((tc - 2 * h, tc + 2 * h), 0.0, 1.0, h, h, m=m, spec=SPEC)
            res.append(pearcey_pde_residual(s).max_abs)
        f1, f2 = res[0] / res[1], res[1] / res[2]
        ok = ok and 3.0 < f1 < 5.0 and 3.0 < f2 < 5.0
        details.append(f"t={tc}: factors {f1:.2f}, {f2:.2f}")
    # negative control fails contraction
    bad = []
    for h in (0.05, 0.025):
        s = q_surface((-2 * h, 2 * h), 0.0, 1.0, h, h, m=48, spec=SPEC)
        bad.append(pearcey_pde_residual(s.scaled(1.01)).max_abs)
    control = bad[0] / bad[1]
    ok = ok and not (3.0 < control < 5.0)
    report(8, ok, "; ".join(details) + f"; corrupted-surface factor {control:.2f}")


def test_criterion_09_wronskian_nonvanishing():
    val = wronskian_coefficient(0.0, 0.0, spec=SPEC)
    report(9, abs(val) > 1e-6, f"|2pq(pq)'' - 3(p'q')'(p'q''-p''q')| = {abs(val):.6f}")


@pytest.mark.slow
def test_criterion_10_monte_carlo():
    ok = True
    details = []
    # KS against the spectral curve at two non-critical times
    for t in (0.2, 0.6):
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=t)
        samples = sample_spectra(200, cfg, 11, 200)
        pooled = np.concatenate([s.eigenvalues for s in samples])
        ks = density_compare(samples, predicted_density_fn(cfg, pooled.min() - 0.4,
                                                           pooled.max() + 0.4))
        ok = ok and ks < 0.05
        details.append(f"KS(t={t})={ks:.4f}")
    # path-marginal KS
    cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.2)
    n, steps, draws = 100, 20, 60
    b0 = sample_bridge_paths(n, cfg, steps, 3, t_max=0.95)
    j = int(np.argmin(np.abs(b0.times - 0.3)))
    t_j = float(b0.times[j])
    cfg_t = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=t_j)
    c = math.sqrt(t_j * (1 - t_j) / 2)
    cloud_p = np.sort(np.concatenate(
        [sample_bridge_paths(n, cfg, steps, 3, index=i, t_max=0.95).paths[:, j]
         for i in range(draws)]))
    cloud_s = np.sort(np.concatenate(
        [sample_spectrum(n, cfg_t, 77, index=i).eigenvalues * math.sqrt(n) * c
         for i in range(draws)]))
    grid = np.linspace(min(cloud_p[0], cloud_s[0]), max(cloud_p[-1], cloud_s[-1]), 801)
    ks_marg = float(np.abs(np.searchsorted(cloud_p, grid) / len(cloud_p)
                           - np.searchsorted(cloud_s, grid) / len(cloud_s)).max())
    ok = ok and ks_marg < 0.05
    details.append(f"marginal KS={ks_marg:.4f}")
    # endpoint fraction
    p = 1.0 / 9.0
    cfgq = TargetConfig(targets=(0.0, 1.0), fractions=(1 - p, p), time=0.5)
    bq = sample_bridge_paths(81, cfgq, 25, 5, t_max=0.97)
    fr = endpoint_fractions(bq, cfgq, 81)
    ok_fr = abs(fr[1] - p) <= 3 * 2 / math.sqrt(81)
    ok = ok and ok_fr
    details.append(f"upper-target fraction {fr[1]:.4f} (p={p:.4f})")
    # cusp-shape exponent on the b = 0 regime: the window starts past the
    # Pearcey zone (t - t0 of order n^-1/2 = 0.05), where the 3/2 law holds,
    # and 28 bundles resolve the cloud quartile; an extreme quantile nearer
    # t0 is not resolved, and its fit scatters with the seed
    a, b_, n4 = 1.0, 0.0, 400
    cfg4 = TargetConfig(targets=(b_, a), fractions=(1 - p, p), time=0.5)
    bundles = sample_bundles(n4, cfg4, 60, 42, 28, t_max=0.97)
    slope, _, _ = fit_cusp_exponent(bundles, a, b_, p, n4,
                                    t_lo_off=0.08, t_hi_off=0.30, quantile=0.25)
    ok = ok and abs(slope - 1.5) < 0.2
    details.append(f"cusp exponent {slope:.3f}")
    report(10, ok, "; ".join(details))


def test_criterion_11_soft_airy_limit():
    """Informational (non-gating in substance, asserted only for the monotone
    trend): the Pearcey gap in the Airy-rescaled window along the cusp moves
    monotonically toward the Airy-kernel determinant; no rate asserted."""
    s_lo = -1.5
    airy = airy_gap_on_ray(s_lo, 48).value
    gaps = []
    for t in (4.0, 6.0, 8.0):
        edge = 2.0 * (t / 3.0) ** 1.5
        sig = (3.0 * t) ** (1.0 / 6.0)
        E = IntervalUnion((0.0, edge - sig * s_lo))
        gaps.append(gap_probability(pearcey_kernel_handle(t, SPEC), E, 56).value)
    diffs = [abs(g - airy) for g in gaps]
    ok = diffs[0] > diffs[1] > diffs[2]
    report(11, ok, f"Pearcey-to-Airy distances at t=4,6,8: "
                   f"{diffs[0]:.2e} > {diffs[1]:.2e} > {diffs[2]:.2e} "
                   f"toward det(I-A) = {airy:.6f} [soft check]")
