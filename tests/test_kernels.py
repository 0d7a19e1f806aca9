import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special

from pearceylab import kernels
from pearceylab._quad import QuadratureError, QuadratureSpec
from pearceylab.kernels import (ContourPath, FiniteKernelParams, airy_ai,
                                airy_ai_prime, airy_kernel, build_contours,
                                finite_n_diagonal, finite_n_kernel,
                                finite_n_kernel_grid, finite_n_kernel_scaled,
                                kernel_grid_csv_lines, pearcey_contours,
                                pearcey_kernel, pearcey_kernel_grid,
                                pearcey_kernel_matrix, pearcey_kernel_pq_form,
                                pearcey_pq, pq_tables)


class TestPearceyPQ:
    def test_parity_values_at_origin(self, spec):
        f = pearcey_pq(0.0, 0.0, spec)
        # q is even at t=0, p odd: q'(0) = 0, p(0) = 0
        assert abs(f.dq) < 1e-12
        assert abs(f.p) < 1e-12
        # p'(0) = -1/sqrt(pi) and p''(0) = 0 in the X-contour convention
        assert f.dp.real == pytest.approx(-1.0 / math.sqrt(math.pi), abs=1e-12)
        assert abs(f.d2p) < 1e-12

    def test_q0_real_line_oracle(self, spec):
        f = pearcey_pq(0.0, 0.0, spec)
        oracle = -si.quad(lambda v: math.exp(-v**4 / 4), -np.inf, np.inf)[0] / (2 * math.pi)
        assert f.q.real == pytest.approx(oracle, abs=1e-10)

    def test_ode_residuals_grid(self, spec):
        for t in (-2.0, 0.0, 2.0):
            for x in (-3.0, 0.5, 3.0):
                f = pearcey_pq(t, x, spec)
                rp, rq = f.ode_residuals()
                scale = max(1.0, abs(f.p), abs(f.q))
                assert rp < 1e-8 * scale and rq < 1e-8 * scale

    def test_heat_equations(self, spec):
        t, x, h = 1.0, 0.5, 1e-3
        fp = pearcey_pq(t + h, x, spec)
        fm = pearcey_pq(t - h, x, spec)
        f0 = pearcey_pq(t, x, spec)
        dp_dt = (fp.p - fm.p).real / (2 * h)
        dq_dt = (fp.q - fm.q).real / (2 * h)
        assert abs(dp_dt + 0.5 * f0.d2p.real) < 1e-6
        assert abs(dq_dt - 0.5 * f0.d2q.real) < 1e-6

    def test_imaginary_parts_small(self, spec):
        f = pearcey_pq(1.5, -2.5, spec)
        vals = [f.p, f.dp, f.d2p, f.d3p, f.q, f.dq, f.d2q, f.d3q]
        scale = max(1.0, *(abs(v) for v in vals))
        assert max(abs(v.imag) for v in vals) < 1e-10 * scale

    def test_envelope_enforced(self, spec):
        with pytest.raises(ValueError):
            pearcey_pq(60.0, 0.0, spec)
        with pytest.raises(ValueError):
            pq_tables(0.0, [200.0], spec)

    def test_tables_match_pointwise(self, spec):
        xs = np.array([-1.0, 0.3, 2.0])
        P, Q = pq_tables(0.7, xs, spec)
        for i, x in enumerate(xs):
            f = pearcey_pq(0.7, float(x), spec)
            assert P[0][i] == pytest.approx(f.p.real, abs=1e-10)
            assert Q[2][i] == pytest.approx(f.d2q.real, abs=1e-10)
        P, Q = pq_tables(0.0, [40.0], spec)
        f = pearcey_pq(0.0, 40.0, spec)
        assert (P[:, 0] == f.p_values()).all() and (Q[:, 0] == f.q_values()).all()


class TestPearceyKernel:
    def test_representation_equivalence(self, spec):
        for t in (-2.0, 0.0, 2.0):
            for x, y in ((0.0, 0.0), (1.0, -1.0), (2.0, 0.5), (-3.0, 3.0)):
                kd = pearcey_kernel(t, t, x, y, spec)
                kq = pearcey_kernel_pq_form(t, x, y, spec)
                assert abs(kd - kq) < 1e-8 * (1 + abs(kd))

    def test_diagonal_positive_finite(self, spec):
        v = pearcey_kernel_pq_form(0.0, 0.0, 0.0, spec)
        assert np.isfinite(v) and v > 0
        # off-diagonal extrapolation agrees with the analytic limit
        eps = 1e-4
        v_off = pearcey_kernel_pq_form(0.0, 0.0, eps, spec)
        assert abs(v - v_off) < 1e-3

    def test_sign_flip_symmetry(self, spec):
        for t in (0.0, 2.0):
            a = pearcey_kernel(t, t, 0.0, 1.0, spec)
            b = pearcey_kernel(t, t, 0.0, -1.0, spec)
            assert abs(a - b) < 1e-9 * (1 + abs(a))

    def test_gaussian_correction_term(self, spec):
        # s = -1 < t = 1 at x = y = 0: correction is -1/sqrt(4 pi)
        full = pearcey_kernel(-1.0, 1.0, 0.0, 0.0, spec)
        sym_parts = pearcey_kernel(1.0, -1.0, 0.0, 0.0, spec)  # s>t: no correction
        corr = -1.0 / math.sqrt(4 * math.pi)
        # the double-integral part is smooth across the time order; check the
        # jump against the closed form by evaluating both orders
        grid = pearcey_kernel_grid(-1.0, 1.0, [0.0], [0.0], spec)[0, 0]
        assert full == pytest.approx(grid, abs=1e-12)
        no_corr = grid - corr  # remove it back
        assert abs((full - corr) - no_corr) < 1e-12

    def test_time_order_jump_matches_gaussian(self, spec):
        # at x = y the double-integral part is continuous across the time
        # order while the Gaussian term jumps by 1/sqrt(4 pi eps)
        t, eps, x = 0.5, 5e-3, 0.2
        k_plus = pearcey_kernel(t - eps, t + eps, x, x, spec)   # s < t: corrected
        k_minus = pearcey_kernel(t + eps, t - eps, x, x, spec)  # s > t: bare
        gauss = 1.0 / math.sqrt(4 * math.pi * eps)
        assert k_minus - k_plus == pytest.approx(gauss, rel=0.02)

    def test_kernel_time_pde(self, spec):
        for (t, x, y) in ((0.0, 1.0, -0.5), (1.0, 0.3, 0.9)):
            h = 1e-3
            dK = (pearcey_kernel(t + h, t + h, x, y, spec)
                  - pearcey_kernel(t - h, t - h, x, y, spec)) / (2 * h)
            fx = pearcey_pq(t, x, spec)
            fy = pearcey_pq(t, y, spec)
            rhs = 0.5 * (-fx.dp.real * fy.q.real + fx.p.real * fy.dq.real)
            assert abs(dK - rhs) < 1e-6

    def test_contour_invariance(self, spec):
        ref = pearcey_kernel(0.0, 0.0, 1.0, -1.0, spec)
        wide = pearcey_kernel(0.0, 0.0, 1.0, -1.0, spec.widened(2.0))
        fine = pearcey_kernel(0.0, 0.0, 1.0, -1.0, spec.refined())
        assert abs(ref - wide) < 1e-10
        assert abs(ref - fine) < 1e-9

    def test_matrix_matches_pointwise(self, spec):
        xs = np.array([-0.5, 0.5])
        K = pearcey_kernel_matrix(1.0, xs, xs, spec)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert K[i, j] == pytest.approx(
                    pearcey_kernel_pq_form(1.0, float(x), float(y), spec), abs=1e-10)

    def test_csv_dump_format(self, spec):
        xs = np.array([0.0, 1.0])
        vals = pearcey_kernel_grid(0.0, 0.0, xs, xs, spec)
        lines = kernel_grid_csv_lines(0.0, 0.0, xs, xs, vals, spec)
        assert lines[0].startswith("# s=0 t=0 L=6 panels=8 nodes=32")
        assert lines[1] == "x,y,value"
        assert len(lines) == 2 + 4


class TestAiry:
    def test_values_against_gamma_forms(self):
        ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        assert airy_ai(0.0) == pytest.approx(ai0, abs=1e-12)
        assert airy_ai_prime(0.0) == pytest.approx(aip0, abs=1e-12)

    def test_against_scipy(self):
        for x in (-3.0, -1.0, 0.5, 2.0, 5.0):
            ai, aip, _, _ = scipy.special.airy(x)
            assert airy_ai(x) == pytest.approx(ai, abs=1e-10)
            assert airy_ai_prime(x) == pytest.approx(aip, abs=1e-10)

    def test_kernel_diagonal_and_symmetry(self):
        v = airy_kernel(0.0, 0.0)
        aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        assert v == pytest.approx(aip0 * aip0, abs=1e-12)
        assert airy_kernel(0.3, -0.7) == pytest.approx(airy_kernel(-0.7, 0.3), abs=1e-14)
        assert airy_kernel(5.0, 5.0) < 1e-6


class TestContours:
    def test_q1_pure_diagonals(self, spec):
        _, v = build_contours(1.0, spec)
        for branch in v.branches():
            assert len(branch) == 3  # no horizontal continuations

    def test_q2_corner_parameter(self, spec):
        _, v = build_contours(2.0, spec)
        right = list(v.branches())[0]
        s = 2.0 / (math.sqrt(3) * 1.0)
        # first diagonal corner sits at center + s(1+i) up to truncation
        corners = [z for z in right if abs(z.imag - s) < 1e-12]
        assert corners, right
        assert any(abs(z - (s + 1j * s)) < 1e-12 for z in right)

    def test_duality_q_half(self, spec):
        # s(q) = q/(r|q-1|) takes the same value at q=2 and q=1/2
        def s_of(q):
            r = math.sqrt(q * q - q + 1)
            return q / (r * abs(q - 1))
        assert s_of(0.5) == pytest.approx(s_of(2.0), abs=1e-14)
        assert s_of(2.0) == pytest.approx(2.0 / math.sqrt(3), abs=1e-14)
        _, v_lo = build_contours(0.5, spec)
        _, v_hi = build_contours(2.0, spec)
        # horizontals on opposite sides
        lo_nodes = np.array(v_lo.nodes)
        hi_nodes = np.array(v_hi.nodes)
        assert lo_nodes.real.min() < -spec.truncation_radius
        assert hi_nodes.real.max() > spec.truncation_radius

    def test_contour_path_invariants(self):
        with pytest.raises(ValueError):
            ContourPath(nodes=(0.0, 0.0), rays=None, label="imaginary-axis")
        with pytest.raises(ValueError):
            ContourPath(nodes=(0.0, 1.0), rays=(2.0,), label="imaginary-axis")
        with pytest.raises(ValueError):
            ContourPath(nodes=(0.0, 1.0), rays=(1.0,), label="X-contour")

    def test_pearcey_contour_rays(self, spec):
        _, v = pearcey_contours(spec)
        assert v.label == "X-contour"
        for d in v.rays:
            assert abs(abs(d.real) - abs(d.imag)) < 1e-12


class TestFiniteN:
    def test_params_rounding(self):
        p = FiniteKernelParams(n=64, a=1.0, b=0.0, p=1.0 / 9.0, t_k=0.5, t_l=0.5)
        assert p.n1 + p.n2 == 64
        assert p.n1 == round(64 / 9)

    def test_time_order_extra_term(self):
        # t_k >= t_l branch has no Gaussian term: crossing the order jumps by it
        t, eps = 1.0 / 3.0, 4e-3
        params_plus = FiniteKernelParams(n=12, a=1.0, b=-1.0, p=0.5,
                                         t_k=t - eps, t_l=t + eps)
        params_minus = FiniteKernelParams(n=12, a=1.0, b=-1.0, p=0.5,
                                          t_k=t + eps, t_l=t - eps)
        x = y = 0.15
        k_plus = finite_n_kernel(params_plus, x, y)
        k_minus = finite_n_kernel(params_minus, x, y)
        gauss = math.exp(-(x - y) ** 2 / (2 * eps)
                         + x * x / (1 - (t - eps)) - y * y / (1 - (t + eps))) \
            / math.sqrt(math.pi * 2 * eps)
        assert k_minus - k_plus == pytest.approx(gauss, rel=0.08)

    def test_tier_agreement_overlap(self):
        params = FiniteKernelParams(n=50, a=1.0, b=-1.0, p=0.5,
                                    t_k=1.0 / 3.0, t_l=1.0 / 3.0)
        c = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0)
        for z in (0.1, 0.2, 0.28):
            lam = math.sqrt(50) * c * z
            vc, lc = finite_n_kernel_scaled(params, lam, lam, contours="cusp")
            va, la = finite_n_kernel_scaled(params, lam, lam, contours="adaptive")
            u = (vc * np.exp(lc)).real
            v = (va * np.exp(la)).real
            assert abs(u - v) < 5e-5 * abs(u)

    def test_normalization_n8(self):
        # (1/n) integral of the diagonal = 1 within 1e-4 (symmetric, t = t0)
        from pearceylab._quad import panel_rule
        from pearceylab.kernels import finite_n_diagonal
        n, t = 8, 1.0 / 3.0
        c = math.sqrt(t * (1 - t) / 2)
        acc = 0.0
        for (zlo, zhi) in ((-3.6, -1e-4), (1e-4, 3.6)):
            zs, zw = panel_rule(zlo, zhi, 24, 24)
            lam = math.sqrt(n) * c * zs
            vals = finite_n_diagonal(n, 1.0, -1.0, 0.5, t, lam)
            assert (vals > -1e-9).all()
            acc += np.sum(zw * vals) * math.sqrt(n) * c
        assert acc / n == pytest.approx(1.0, abs=1e-4)

    def test_diagonal_profile_vs_monte_carlo(self):
        # n = 50 symmetric at the critical time: kernel diagonal vs sampled
        # eigenvalues, pooled over 120 draws
        from pearceylab.ensemble_mc import sample_spectra
        from pearceylab.kernels import finite_n_diagonal
        from pearceylab.spectral_curve import TargetConfig
        n, t = 50, 1.0 / 3.0
        c = math.sqrt(t * (1 - t) / 2)
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=t)
        samples = sample_spectra(n, cfg, 21, 120)
        pooled = np.sort(np.concatenate([s.eigenvalues for s in samples])
                         * math.sqrt(n) * c)
        zg = np.linspace(pooled[0] - 0.2, pooled[-1] + 0.2, 160)
        prof = finite_n_diagonal(n, 1.0, -1.0, 0.5, t, zg)
        cdf = np.concatenate([[0.0],
                              np.cumsum(0.5 * (prof[1:] + prof[:-1]) * np.diff(zg))])
        cdf /= cdf[-1]
        F = np.interp(pooled, zg, cdf)
        m = len(pooled)
        ks = max(np.abs(np.arange(1, m + 1) / m - F).max(),
                 np.abs(np.arange(m) / m - F).max())
        assert ks < 0.05

    def test_descent_check_gate(self):
        # kernels delegate the descent check; a valid q passes silently
        params = FiniteKernelParams(n=16, a=1.0, b=0.0, p=1.0 / 9.0,
                                    t_k=0.6, t_l=0.6)
        crit = params.critical()
        lam = crit.x0 * math.sqrt(16)
        val = finite_n_kernel(params, lam, lam, contours="cusp")
        assert np.isfinite(val) and val > 0

    @pytest.mark.parametrize("n, a, b, p, t, lam", [
        (8, 1.0, -1.0, 0.5, 1.0 / 3.0, 1.94132),
        (9, 1.0, 0.0, 1.0 / 9.0, 0.5, 1.0 / 6.0 - 1.2)])
    def test_adaptive_plain_lobe_clears_line(self, n, a, b, p, t, lam):
        # here the U-line falls just outside the cheapest plain V-lobe, where
        # 1/(U - V) is not resolved unless the lobe keeps its distance d; the
        # value must not depend on the resolution
        val = finite_n_diagonal(n, a, b, p, t, [lam])[0]
        ref = finite_n_diagonal(n, a, b, p, t, [lam], QuadratureSpec(8.0, 12, 64))[0]
        assert val == pytest.approx(ref, rel=1e-6)

    def test_cusp_tier_self_checks(self, monkeypatch):
        params = FiniteKernelParams(n=50, a=1.0, b=-1.0, p=0.5,
                                    t_k=1.0 / 3.0, t_l=1.0 / 3.0)
        xs = [-0.2, 0.0, 0.2]
        contraction = kernels._finite_contraction

        def imaginary(*args):
            vals, ls, mass = contraction(*args)
            return vals + 1e-3j * np.abs(vals), ls, mass

        def cancelled(*args):
            vals, ls, mass = contraction(*args)
            return vals, ls, mass * 1e14

        for corrupt, what in ((imaginary, "imaginary part"), (cancelled, "significant digits")):
            monkeypatch.setattr(kernels, "_finite_contraction", corrupt)
            with pytest.raises(QuadratureError, match=what) as exc:
                finite_n_kernel_grid(params, xs, xs)
            assert exc.value.achieved > 0
            with pytest.raises(QuadratureError, match=what):
                finite_n_kernel_scaled(params, 0.1, 0.1, contours="cusp")
