import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_abp
from pearceylab._quad import QuadratureSpec
from pearceylab.fredholm import IntervalUnion, NystromGrid
from pearceylab.kernels import (ContourPath, FiniteKernelParams, build_contours,
                                centered_action, finite_n_kernel)
from pearceylab.scaling import (ActionDerivatives, DegenerateActionError,
                                action_F, contour_descent_check,
                                convergence_csv_lines, convergence_study,
                                conjugation_factor, critical_exponents,
                                inverse_rescale_map, log_conjugation_factor,
                                remainder_bound_check, rescale_map,
                                scaling_conditions_residuals, solve_scaling,
                                two_target_action_derivatives)
from pearceylab.spectral_curve import find_cusp


class TestActionF:
    def test_symmetric_derivatives_vanish(self):
        crit = find_cusp(1.0, -1.0, 0.5)
        F = action_F(crit.u0, crit, order=4)
        assert abs(F[1]) < 1e-12 and abs(F[2]) < 1e-12 and abs(F[3]) < 1e-12
        assert F[4].real / 24.0 == pytest.approx(-0.25, abs=1e-12)

    def test_q2_fourth_derivative(self):
        crit = find_cusp(1.0, 0.0, 1.0 / 9.0)
        F = action_F(crit.u0, crit, order=4)
        assert F[4].real / 24.0 == pytest.approx(-3.0 / 8.0, abs=1e-12)
        # independent 5-point finite differences of F
        h = 5e-3
        vals = [action_F(crit.u0 + k * h, crit, order=0)[0].real
                for k in (-2, -1, 0, 1, 2)]
        fd4 = (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]) / h**4
        assert fd4 / 24.0 == pytest.approx(-3.0 / 8.0, abs=1e-4)

    def test_g_third_derivative_is_six(self, rng):
        # G = (u-alpha)(u-beta) F' is a monic cubic, so G''' = 6 identically;
        # recover it from F-derivatives via the product rule at u0
        for _ in range(5):
            a, b, p = random_abp(rng)
            crit = find_cusp(a, b, p)
            u = crit.u0
            F = action_F(u, crit, order=4)
            D = (u - crit.alpha) * (u - crit.beta)
            D1 = 2 * u - crit.alpha - crit.beta
            G3 = D * F[4] + 3 * D1 * F[3] + 6 * F[2]  # (D F')''' with D''=2
            assert G3.real == pytest.approx(6.0, abs=1e-9)

    def test_centered_action_matches(self, rng):
        for _ in range(5):
            a, b, p = random_abp(rng)
            crit = find_cusp(a, b, p)
            w = 0.3 + 0.2j
            direct = action_F(crit.u0 + w, crit, order=0)[0] \
                - action_F(crit.u0, crit, order=0)[0]
            assert complex(centered_action(w, crit.q)) == pytest.approx(direct, abs=1e-10)

    def test_singular_at_targets(self):
        crit = find_cusp(1.0, -1.0, 0.5)
        with pytest.raises(ZeroDivisionError):
            action_F(crit.alpha, crit)


class TestExponents:
    def test_table(self):
        e1 = critical_exponents(1)
        assert (e1.gamma_y, e1.gamma_x, e1.gamma_t) == (
            Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))
        e2 = critical_exponents(2)
        assert (e2.gamma_y, e2.gamma_x, e2.gamma_t) == (
            Fraction(1, 4), Fraction(3, 4), Fraction(1, 2))
        e3 = critical_exponents(3)
        assert (e3.gamma_y, e3.gamma_x, e3.gamma_t) == (
            Fraction(1, 5), Fraction(4, 5), Fraction(3, 5))

    def test_exact_rational_identities(self):
        for l in range(1, 11):
            e = critical_exponents(l)
            assert e.gamma_x == 1 - e.gamma_y
            assert e.gamma_t == 1 - 2 * e.gamma_y
            assert e.gamma_y == Fraction(1, l + 2)


class TestSolveScaling:
    def test_reproduces_critical_constants(self, rng):
        for _ in range(20):
            a, b, p = random_abp(rng)
            crit = find_cusp(a, b, p)
            derivs = two_target_action_derivatives(a, b, p)
            co = solve_scaling(derivs, tau=1.0)
            assert co.alpha_y == pytest.approx(1.0 / crit.mu, abs=1e-8)
            assert co.beta_x == pytest.approx(crit.c0 * crit.mu, abs=1e-8)
            assert co.alpha_t == pytest.approx(2 * crit.c0**2 * crit.mu**2, abs=1e-8)
            res = scaling_conditions_residuals(co, derivs, 1.0)
            assert max(abs(r) for r in res) < 1e-10

    def test_alpha_x_is_drift(self, rng):
        # alpha_x(tau) = c0 A tau reproduces the x-drift of the scaling window
        for _ in range(10):
            a, b, p = random_abp(rng)
            crit = find_cusp(a, b, p)
            derivs = two_target_action_derivatives(a, b, p)
            for tau in (0.0, 1.0, -0.7):
                co = solve_scaling(derivs, tau=tau)
                assert co.alpha_x == pytest.approx(crit.c0 * crit.bigA * tau, abs=1e-8)

    def test_quartic_toy(self):
        derivs = ActionDerivatives(x_c=0, y_c=0, t_c=0, S_y=0, S_yy=0, S_yyy=0,
                                   S_yyyy=6.0, S_xy=-1.0, S_ty=0.0, S_xyy=0.0,
                                   S_tyy=0.0)
        co = solve_scaling(derivs, tau=0.0)
        assert abs(co.alpha_y) == pytest.approx(1.0, abs=1e-14)
        assert co.beta_x == pytest.approx(1.0, abs=1e-14)
        assert math.isnan(co.alpha_t) and co.alpha_x == 0.0
        with pytest.raises(DegenerateActionError):
            solve_scaling(derivs, tau=1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        # a NaN or infinite tau gave NaN coefficients and residuals
        derivs = two_target_action_derivatives(1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="tau must be finite"):
            solve_scaling(derivs, tau=tau)

    def test_degenerate_sxy(self):
        derivs = ActionDerivatives(x_c=0, y_c=0, t_c=0, S_y=0, S_yy=0, S_yyy=0,
                                   S_yyyy=-6.0, S_xy=0.0, S_ty=1.0, S_xyy=0.0,
                                   S_tyy=1.0)
        with pytest.raises(DegenerateActionError):
            solve_scaling(derivs, tau=1.0)

    def test_criticality_pattern(self, rng):
        a, b, p = random_abp(rng)
        derivs = two_target_action_derivatives(a, b, p)
        scale = abs(derivs.S_yyyy)
        assert abs(derivs.S_y) < 1e-10 * scale
        assert abs(derivs.S_yy) < 1e-10 * scale
        assert abs(derivs.S_yyy) < 1e-9 * scale
        assert derivs.S_yyyy < 0
        assert derivs.criticality_order() == 2

    def test_derivatives_against_finite_differences(self):
        a, b, p = 1.0, 0.0, 1.0 / 9.0
        derivs = two_target_action_derivatives(a, b, p)
        crit = find_cusp(a, b, p)

        import cmath

        def S(x, u, t):
            # u sits between the scaled targets, so the logs are complex;
            # their constant imaginary parts drop out of the differences
            c = math.sqrt(t * (1 - t) / 2)
            phi = math.sqrt(2 * t / (1 - t))
            return (u * u / 2 - x * u / c + p * cmath.log(complex(u - a * phi))
                    + (1 - p) * cmath.log(complex(u - b * phi))).real

        h = 1e-3  # third-order stencils are roundoff-limited below this
        x0, u0, t0 = crit.x0, crit.u0, crit.t0
        S_ty_fd = (S(x0, u0 + h, t0 + h) - S(x0, u0 - h, t0 + h)
                   - S(x0, u0 + h, t0 - h) + S(x0, u0 - h, t0 - h)) / (4 * h * h)
        assert derivs.S_ty == pytest.approx(S_ty_fd, rel=1e-4)
        S_xy_fd = (S(x0 + h, u0 + h, t0) - S(x0 - h, u0 + h, t0)
                   - S(x0 + h, u0 - h, t0) + S(x0 - h, u0 - h, t0)) / (4 * h * h)
        assert derivs.S_xy == pytest.approx(S_xy_fd, rel=1e-6)
        S_tyy_fd = (S(x0, u0 + h, t0 + h) - 2 * S(x0, u0, t0 + h) + S(x0, u0 - h, t0 + h)
                    - S(x0, u0 + h, t0 - h) + 2 * S(x0, u0, t0 - h)
                    - S(x0, u0 - h, t0 - h)) / (2 * h**3)
        assert derivs.S_tyy == pytest.approx(S_tyy_fd, rel=1e-3)


class TestRescaleConjugation:
    def test_cusp_point(self, rng):
        a, b, p = random_abp(rng)
        crit = find_cusp(a, b, p)
        t, x = rescale_map(crit, 100, 0.0, 0.0)
        assert t == crit.t0
        assert x == pytest.approx(crit.x0 * 10.0, abs=1e-13)

    def test_symmetric_values(self):
        crit = find_cusp(1.0, -1.0, 0.5)
        t, x = rescale_map(crit, 100, 1.0, 0.0)
        assert t == pytest.approx(1.0 / 3.0 + (1.0 / 9.0) * 2.0 / 10.0, abs=1e-14)
        assert x == pytest.approx(0.0, abs=1e-14)

    def test_inverse_roundtrip(self, rng):
        a, b, p = random_abp(rng)
        crit = find_cusp(a, b, p)
        for (tau, xi) in ((0.3, -1.2), (-0.5, 2.0)):
            t, x = rescale_map(crit, 256, tau, xi)
            tau2, xi2 = inverse_rescale_map(crit, 256, t, x)
            assert tau2 == pytest.approx(tau, abs=1e-12)
            assert xi2 == pytest.approx(xi, abs=1e-12)

    def test_conjugation_trivial_cases(self):
        sym = find_cusp(1.0, -1.0, 0.5)
        assert conjugation_factor(sym, 64, 0.7, 1.3) == 1.0
        q2 = find_cusp(1.0, 0.0, 1.0 / 9.0)
        assert conjugation_factor(q2, 64, 0.0, 0.0) == 1.0

    def test_conjugation_invariance_of_determinant(self, spec):
        # D K D^{-1} leaves the Nystrom determinant unchanged
        params = FiniteKernelParams(n=64, a=1.0, b=0.0, p=1.0 / 9.0,
                                    t_k=0.6, t_l=0.6)
        crit = params.critical()
        t0n, xc = rescale_map(crit, 64, 0.0, 0.0)
        E = IntervalUnion((xc - 0.1, xc + 0.1))
        g = NystromGrid.build(E, 10)
        K = np.empty((10, 10))
        for i, x in enumerate(g.nodes):
            for j, y in enumerate(g.nodes):
                K[i, j] = finite_n_kernel(params, float(x), float(y), spec, "cusp")
        xi = np.array([inverse_rescale_map(crit, 64, 0.6, float(x))[1] for x in g.nodes])
        D = np.exp([log_conjugation_factor(crit, 64, 0.0, v) for v in xi])
        sw = np.sqrt(g.weights)
        M = sw[:, None] * K * sw[None, :]
        Mc = sw[:, None] * (D[:, None] * K / D[None, :]) * sw[None, :]
        d1 = np.linalg.det(np.eye(10) - M)
        d2 = np.linalg.det(np.eye(10) - Mc)
        assert d1 == pytest.approx(d2, rel=1e-9)


class TestRemainderBound:
    def test_stated_cases(self):
        lhs, rhs, ok = remainder_bound_check(1.0, 1.0, 10**4)
        assert ok and lhs <= rhs
        lhs, rhs, ok = remainder_bound_check(3.0, 2.0, 10**6)
        assert ok
        lhs, rhs, ok = remainder_bound_check(2.0, 0.0, 100)
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_remainder_above_rounding(self):
        # n |remainder| is 4.1586255456861351e-19 here (mpmath, 50 digits);
        # the quartic term subtracted from the centered action left 4.2e-10
        # of rounding, which failed the bound 5.8e-15
        lhs, rhs, ok = remainder_bound_check(0.8617450890313958, 0.000934677062511194, 7771524)
        assert ok and lhs == pytest.approx(4.1586255456861351e-19, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            remainder_bound_check(1.0, 3.0, 16)  # delta > n^(1/20)
        with pytest.raises(ValueError):
            remainder_bound_check(0.05, 1.0, 20)  # delta/n^(1/4) too large

    def test_random_domain(self, rng):
        count = 0
        while count < 50:
            q = rng.uniform(0.3, 3.0)
            n = int(rng.integers(10**4, 10**7))
            r = math.sqrt(q * q - q + 1)
            dmax = min(n ** (1 / 20.0), min(1, q) / (2 * r) * n**0.25)
            delta = rng.uniform(0.0, dmax * 0.999)
            lhs, rhs, ok = remainder_bound_check(q, delta, n)
            assert ok
            count += 1


class TestDescentCheck:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 5.0])
    def test_valid_contours_pass(self, q, spec):
        u, v = build_contours(q, spec.truncation_radius)
        rep = contour_descent_check(q, v, samples=200, u_contour=u)
        assert rep.passed, rep.details

    def test_bad_contour_fails(self, spec):
        # a wedge of horizontal lines at the wrong height violates descent
        bad = ContourPath(nodes=(6 + 0.05j, 0.05j, 6 + 0.0499j),
                          label="v-loop-q=1", center=0.0)
        rep = contour_descent_check(1.0, bad, samples=100)
        assert not rep.passed

    def test_truncated_segments_fail_for_wrong_side(self, spec):
        # for q > 1 the horizontal continuations must run outward to the
        # right; a left-running pair at the same height is not descent
        q = 2.0
        s = 2.0 / math.sqrt(3)
        bad = ContourPath(nodes=(s * (1 + 1j), s * (1 + 1j) - 4.0),
                          label="v-loop-q>1", center=0.0)
        rep = contour_descent_check(q, bad, samples=150)
        assert not rep.passed

    @pytest.mark.parametrize("samples", range(8))
    def test_fewer_than_two_samples_rejected(self, samples, spec):
        # below 8 points per segment a rising contour can pass (the two bad
        # contours below do at 2 to 6 and 2 to 3), so those counts are refused
        u, v = build_contours(2.0, spec.truncation_radius)
        with pytest.raises(ValueError, match="samples must be >= 8"):
            contour_descent_check(2.0, v, samples=samples, u_contour=u)

    def test_bad_contours_fail_at_every_accepted_count(self):
        wedge = ContourPath(nodes=(6 + 0.05j, 0.05j, 6 + 0.0499j),
                            label="v-loop-q=1", center=0.0)
        s = 2.0 / math.sqrt(3)
        left = ContourPath(nodes=(s * (1 + 1j), s * (1 + 1j) - 4.0),
                           label="v-loop-q>1", center=0.0)
        for samples in range(8, 65):
            assert not contour_descent_check(1.0, wedge, samples=samples).passed, samples
            assert not contour_descent_check(2.0, left, samples=samples).passed, samples


class TestConvergence:
    def test_two_rows_decrease(self, spec):
        study = convergence_study(1.0, -1.0, 0.5, [64, 256], spec=spec)
        errs = [r.max_abs_error for r in study.rows]
        assert errs[1] < errs[0]

    def test_csv_format(self, spec):
        study = convergence_study(1.0, -1.0, 0.5, [64, 256], spec=spec)
        lines = convergence_csv_lines(study)
        assert lines[0] == "n,max_abs_error"
        assert lines[-1].startswith("# fitted_slope=")

    def test_nlist_validation(self, spec):
        with pytest.raises(ValueError):
            convergence_study(1.0, -1.0, 0.5, [256, 64], spec=spec)
        with pytest.raises(ValueError):
            convergence_study(1.0, -1.0, 0.5, [8, 64], spec=spec)
