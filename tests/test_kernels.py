import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special

from pearceylab import kernels
from pearceylab._quad import QuadratureError, QuadratureSpec, panel_rule
from pearceylab.ensemble_mc import group_sizes
from pearceylab.kernels import (ContourPath, FiniteKernelParams, airy_kernel,
                                airy_kernel_matrix, build_contours,
                                finite_n_diagonal, finite_n_kernel,
                                finite_n_kernel_grid, finite_n_kernel_scaled,
                                kernel_grid_csv_lines, pearcey_kernel,
                                pearcey_kernel_grid, pearcey_kernel_matrix,
                                pearcey_kernel_pq_form, pearcey_pq, pq_tables)


def _pq_direct(t, xs, spec):
    """Oracle for kernels._pq_quadrature: the same sums with one complex
    exponential per rule node and x, q on one composite rule over [-L, L]
    and p on the two half-line rules (weights negated on the positive half)."""
    xs = np.asarray(xs, dtype=float)
    xmax = float(np.abs(xs).max(initial=0.0))
    L = kernels._pq_L(t, xmax, spec)
    panels = kernels._pq_panels(t, xmax, L, spec)
    k = np.arange(4)[:, None]
    v, wv = panel_rule(-L, L, 2 * panels, spec.nodes_per_panel)
    base = np.exp(-v**4 / 4.0 - t * v**2 / 2.0)
    Q = -((-1j) ** k) / (2.0 * math.pi) * ((v**k * (wv * base)) @ np.exp(-1j * np.outer(v, xs)))
    e = np.exp(1j * math.pi / 4.0)
    s_neg, w_neg = panel_rule(-L, 0.0, panels, spec.nodes_per_panel)
    s_pos, w_pos = panel_rule(0.0, L, panels, spec.nodes_per_panel)
    s = np.concatenate([s_neg, s_pos])
    ws = np.concatenate([w_neg, -w_pos])
    gbase = np.exp(-s**4 / 4.0 - 1j * t * s**2 / 2.0)
    D = (s**k * (ws * gbase)) @ np.exp(np.outer(s * e, xs))
    P = np.imag(e ** (k + 1) * D) / math.pi
    return P, Q


def _pq_scaled_gap(t, xs, spec):
    """Largest |separable - direct| over all k and nodes, each node scaled by
    max(1, |p^{(k)}|, |q^{(k)}|) as pq_tables scales its tolerances."""
    P0, Q0 = _pq_direct(t, xs, spec)
    P1, Q1 = kernels._pq_quadrature(t, xs, spec)
    scale = np.maximum(1.0, np.maximum(np.abs(P0).max(axis=0), np.abs(Q0).max(axis=0)))
    return max((np.abs(P1 - P0).max(axis=0) / scale).max(),
               (np.abs(Q1 - Q0).max(axis=0) / scale).max())


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


    def test_separable_quadrature_matches_direct(self, spec):
        rng = np.random.default_rng(7)
        for sp in (spec, spec.refined()):
            for t in (-2.0, 0.0, 0.7, 2.0):
                assert _pq_scaled_gap(t, rng.uniform(-5.0, 5.0, 40), sp) < 1e-13

    def test_separable_quadrature_more_panels(self, spec):
        # t=10 with x up to 12 needs more panels than spec.panels
        t, xs = 10.0, np.append(np.random.default_rng(8).uniform(-12.0, 12.0, 39), 12.0)
        assert kernels._pq_panels(t, 12.0, kernels._pq_L(t, 12.0, spec), spec) > spec.panels
        assert _pq_scaled_gap(t, xs, spec) < 1e-11

    @pytest.mark.parametrize("fault, message", [
        ("imaginary", "imaginary part"),
        ("ode", "ODE residual"),
        ("refined", "did not converge"),
    ])
    def test_each_check_fires(self, spec, monkeypatch, fault, message):
        raw = kernels._pq_quadrature

        def faulty(t, xs, sp):
            P, Q = raw(t, xs, sp)
            if fault == "imaginary":
                Q = Q * (1.0 + 1e-6j)      # still solves the ODE, so only Im q trips
            elif fault == "ode":
                P = P.copy()
                P[3] += 1e-6               # on both rules alike, so refinement agrees
            elif sp != spec:
                P, Q = P + 1e-6, Q + 1e-6
            return P, Q

        monkeypatch.setattr(kernels, "_pq_quadrature", faulty)
        with pytest.raises(QuadratureError, match=message) as info:
            pq_tables(0.7, np.linspace(-2.0, 2.0, 9), spec)
        assert info.value.achieved > 0


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

    def test_large_x_rounding_gate(self, spec):
        # t = 0 diagonal K(x, x) from the defining p/q integrals with mpmath
        # 1.3.0 at 50 digits: p^(k)(x) = Im(e^{i(k+1)pi/4} [int_{-inf}^0 -
        # int_0^inf] s^k e^{-s^4/4 + s x e^{i pi/4}} ds)/pi and q^(k)(x) =
        # -Re((-i)^k int_R v^k e^{-v^4/4 - i v x} dv)/(2 pi), each by mp.quad
        # over 199 equal panels of [0, 10] (the same digits over 399 panels
        # of [0, 12]), then K = p q^(3) - p' q'' + p'' q'.  The same recipe
        # gives 0.7477295981230685 at x = 20, where the p/q form is still off
        # by about 1e-8 without raising.
        ref15 = 0.68237973829432128
        assert pearcey_kernel(0.0, 0.0, 15.0, 15.0, spec) == pytest.approx(ref15, rel=1e-9)
        # at x = 20 the rounding bound of the contraction, 1e-16 of its
        # absolute mass, passes 1e-8 |K|: the value is refused, not returned
        with pytest.raises(QuadratureError, match="cancellation") as exc:
            pearcey_kernel(0.0, 0.0, 20.0, 20.0, spec)
        assert exc.value.achieved > 1e-8

    def test_csv_dump_format(self, spec):
        xs = np.array([0.0, 1.0])
        vals = pearcey_kernel_grid(0.0, 0.0, xs, xs, spec)
        lines = kernel_grid_csv_lines(0.0, 0.0, xs, xs, vals, spec)
        assert lines[0].startswith("# s=0 t=0 L=6 panels=8 nodes=32")
        assert lines[1] == "x,y,value"
        assert len(lines) == 2 + 4


def _airy_contour(x, prime):
    """Ai(x) or Ai'(x) by Gauss-Legendre quadrature over the rays
    arg w = +-pi/3, shifted through the saddle sqrt(x) for x > 0."""
    shift = math.sqrt(x) if x > 0 else 0.0
    s, w = panel_rule(0.0, math.sqrt(3.0 * max(-x, 0.0)) + 8.0, 12, 32)
    e = np.exp(1j * math.pi / 3.0)
    wnod = shift + s * e
    base = np.exp(wnod**3 / 3.0 - x * wnod)
    return float(np.imag(e * np.sum(w * (-wnod if prime else 1.0) * base)) / math.pi)


class TestAiry:
    def test_values_against_gamma_forms(self):
        ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        assert _airy_contour(0.0, False) == pytest.approx(ai0, abs=1e-12)
        assert _airy_contour(0.0, True) == pytest.approx(aip0, abs=1e-12)

    def test_against_scipy(self):
        xs = np.array([-3.0, -1.0, 0.5, 2.0, 5.0])
        for x in xs:
            ai, aip, _, _ = scipy.special.airy(x)
            assert _airy_contour(x, False) == pytest.approx(ai, abs=1e-10)
            assert _airy_contour(x, True) == pytest.approx(aip, abs=1e-10)
        # the kernel matrix built on scipy's Ai, Ai' against the same matrix
        # from the contour values, off the diagonal and on it
        ys = xs + 0.25
        ai, aip = (np.array([_airy_contour(x, d) for x in xs]) for d in (False, True))
        ai_y, aip_y = (np.array([_airy_contour(y, d) for y in ys]) for d in (False, True))
        off = (np.outer(ai, aip_y) - np.outer(aip, ai_y)) / (xs[:, None] - ys[None, :])
        assert np.abs(airy_kernel_matrix(xs, ys) - off).max() < 1e-10
        diag = np.diag(airy_kernel_matrix(xs, xs))
        assert np.abs(diag - (aip * aip - xs * ai * ai)).max() < 1e-10

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
            ContourPath(nodes=(0.0, 0.0), label="imaginary-axis")

    def test_pearcey_contour_rays(self, spec):
        # the X that pearcey_kernel_grid integrates over: the right branch
        # enters from e^{i pi/4} infinity and leaves to e^{-i pi/4} infinity,
        # the left one enters from e^{-3i pi/4} and leaves to e^{3i pi/4}
        _, v = build_contours(1.0, spec, pinch_gap=1.0)
        outer = [z for branch in v.branches() for z in (branch[0], branch[-1])]
        want = [math.pi / 4, -math.pi / 4, -3 * math.pi / 4, 3 * math.pi / 4]
        assert np.abs(np.angle(outer) - want).max() < 1e-12


class TestFiniteN:
    def test_params_rounding(self):
        p = FiniteKernelParams(n=64, a=1.0, b=0.0, p=1.0 / 9.0, t_k=0.5, t_l=0.5)
        assert p.n1 + p.n2 == 64
        assert p.n1 == round(64 / 9)

    def test_group_sizes_match_monte_carlo(self):
        # at a half-integer p n the kernel rounds as the ensembles do:
        # 5 paths (not 6) to the upper target at n = 11, p = 1/2, and one
        # path per group (not an empty lower group) at n = 2, p = 3/4
        for n, p, n1 in ((11, 0.5, 5), (2, 0.75, 1)):
            params = FiniteKernelParams(n=n, a=1.0, b=-1.0, p=p, t_k=0.5, t_l=0.5)
            assert (params.n2, params.n1) == group_sizes(n, (1.0 - p, p))
            assert params.n1 == n1 and params.p_eff == n1 / n
            assert params.critical().t0 > 0.0
        with pytest.raises(ValueError):
            FiniteKernelParams(n=2, a=1.0, b=-1.0, p=0.1, t_k=0.5, t_l=0.5)

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

    def test_value_past_exp_700_is_not_clipped(self, monkeypatch):
        params = FiniteKernelParams(n=12, a=1.0, b=-1.0, p=0.5, t_k=0.3, t_l=0.3)
        monkeypatch.setattr(kernels, "finite_n_kernel_scaled",
                            lambda *args, **kw: (complex(1e-3), 705.0))
        assert finite_n_kernel(params, 0.0, 0.0) == pytest.approx(1e-3 * math.exp(705.0),
                                                                  rel=1e-12)
        monkeypatch.setattr(kernels, "finite_n_kernel_scaled",
                            lambda *args, **kw: (complex(0.5), 720.0))
        with pytest.raises(OverflowError):
            finite_n_kernel(params, 0.0, 0.0)

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

    @pytest.mark.slow
    def test_normalization_n8(self):
        # (1/n) integral of the diagonal = 1 within 1e-4 (symmetric, t = t0)
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


def _dense_contraction(params, rule_u, side_u, rule_v, side_v, xs, ys):
    """The finite-n contraction with the dense coupling matrix
    M = W_V W_U kappa_U kappa_V / (kappa_U U - kappa_V V) and |M| formed:
    the oracle for the blocked kernels._finite_contraction."""
    (U, WU), (V, WV) = rule_u, rule_v
    (kap_u, al_u, be_u), (kap_v, al_v, be_v) = side_u, side_v
    t_k, t_l = params.t_k, params.t_l
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    psi_u = kernels._psi_cusp(U, kap_u, t_l, 0.0, params.n1, params.n2, al_u, be_u)
    psi_v = kernels._psi_cusp(V, kap_v, t_k, 0.0, params.n1, params.n2, al_v, be_v)
    tilt_u = 2.0 * kap_u * U / (1.0 - t_l)
    tilt_v = 2.0 * kap_v * V / (1.0 - t_k)
    cu = (psi_u.real - float(ys.mean()) * tilt_u.real).max()
    cv = (-psi_v.real + float(xs.mean()) * tilt_v.real).max()
    EU = np.exp(psi_u[:, None] - np.outer(tilt_u, ys) - cu)
    EV = np.exp(-psi_v[:, None] + np.outer(tilt_v, xs) - cv)
    M = np.outer(WV * kap_v, WU * kap_u) / (kap_u * U[None, :] - kap_v * V[:, None])
    vals = kernels._finite_prefactor(params) * (EV.T @ M @ EU)
    mass = np.abs(EV).T @ np.abs(M) @ np.abs(EU)
    ls = cu + cv
    if t_k < t_l:
        dt = t_l - t_k
        logext = (-0.5 * math.log(math.pi * dt)
                  - (xs[:, None] - ys[None, :]) ** 2 / dt
                  + xs[:, None] ** 2 / (1.0 - t_k)
                  - ys[None, :] ** 2 / (1.0 - t_l))
        vals = vals - np.exp(np.minimum(logext - ls, 700.0))
    return vals, ls, mass


def _dense_cauchy(A, kV, kU, B):
    """A^T C B and |A|^T |C| |B| with the dense coupling C = 1/(kU - kV)
    formed: the oracle for the blocked kernels._cauchy_contract."""
    C = 1.0 / (kU[None, :] - kV[:, None])
    return A.T @ C @ B, np.abs(A).T @ np.abs(C) @ np.abs(B)


def test_cauchy_contract_matches_dense_coupling():
    # 200 V rows against 512 U nodes: three full blocks of 64 rows and a
    # partial fourth of 8
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    A, B = cplx(200, 3), cplx(512, 4)
    kV = cplx(200) + 3.0
    kU = 1j * np.linspace(-6.0, 6.0, 512) - 0.5
    rows = kernels._CAUCHY_BLOCK // len(kU)
    assert len(kV) > rows and len(kV) % rows != 0
    vals, mass = kernels._cauchy_contract(A, kV, kU, B)
    dvals, dmass = _dense_cauchy(A, kV, kU, B)
    assert vals.shape == mass.shape == (3, 4)
    assert (np.abs(vals - dvals) <= 1e-13 * dmass).all()
    assert (np.abs(mass - dmass) <= 1e-12 * dmass).all()


SYM8 = FiniteKernelParams(n=8, a=1.0, b=-1.0, p=0.5, t_k=1.0 / 3.0, t_l=1.0 / 3.0)
SYM50 = FiniteKernelParams(n=50, a=1.0, b=-1.0, p=0.5, t_k=1.0 / 3.0, t_l=1.0 / 3.0)
ORDERED12 = FiniteKernelParams(n=12, a=1.0, b=-1.0, p=0.5,
                               t_k=1.0 / 3.0 - 4e-3, t_l=1.0 / 3.0 + 4e-3)


class TestFiniteContraction:
    @staticmethod
    def _contractions(monkeypatch, call, watch=None):
        """Arguments and results of every contraction that `call` makes, and
        how often it called the kernels function named `watch`."""
        seen, watched = [], []
        blocked = kernels._finite_contraction

        def record(*args):
            out = blocked(*args)
            seen.append((args, out))
            return out
        monkeypatch.setattr(kernels, "_finite_contraction", record)
        if watch is not None:
            fn = getattr(kernels, watch)
            monkeypatch.setattr(kernels, watch,
                                lambda *a, **k: watched.append(1) or fn(*a, **k))
        call()
        monkeypatch.undo()
        return seen, len(watched)

    @pytest.mark.parametrize("case", ["plain", "pierced", "cusp grid", "ordered adaptive",
                                      "ordered cusp"])
    def test_matches_dense_coupling(self, monkeypatch, case):
        spec25 = QuadratureSpec(nodes_per_panel=25)
        call, watch = {
            "plain": (lambda: finite_n_kernel_scaled(SYM8, 3.0, 3.0), "_uline_rule"),
            "pierced": (lambda: finite_n_kernel_scaled(SYM8, 0.54132, 0.54132),
                        "_crossing_uline"),
            "cusp grid": (lambda: finite_n_kernel_grid(SYM50, [-0.2, 0.0, 0.2],
                                                       [-0.1, 0.1], spec25), None),
            "ordered adaptive": (lambda: finite_n_kernel_scaled(
                ORDERED12, 0.15, 0.15, contours="adaptive"), None),
            "ordered cusp": (lambda: finite_n_kernel_scaled(
                ORDERED12, 0.15, 0.15, contours="cusp"), None),
        }[case]
        seen, watched = self._contractions(monkeypatch, call, watch)
        assert len(seen) == 1
        if watch is not None:
            assert watched == 1     # the geometry this case is about
        args, (vals, ls, mass) = seen[0]
        (U, _), (V, _) = args[1], args[3]
        if case == "cusp grid":
            assert vals.shape == (3, 2)
            rows = kernels._CAUCHY_BLOCK // len(U)
            assert len(V) > rows and len(V) % rows != 0
        dvals, dls, dmass = _dense_contraction(*args)
        assert ls == dls
        assert (np.abs(vals - dvals) <= 1e-13 * dmass).all()
        assert (np.abs(mass - dmass) <= 1e-12 * dmass).all()

    def test_benchmark_profiles_keep_their_geometry(self, monkeypatch):
        # the V-lobes chosen on both benchmark profiles: per point, o for one
        # lobe beside the U-line, s for two lobes split at it, p for a lobe it
        # pierces and - for the cusp tier, plus a checksum of every lobe's
        # (x0, x1, height)
        expected = {
            (8, 1.0, -1.0, 0.5, 1.0 / 3.0, 1.94132, 34, 16):
                ("ooooooooooooooopppppppps-sppppppppoooooooooooooooo", 191.03255356413268),
            (9, 1.0, 0.0, 1.0 / 9.0, 0.5, 1.5 / 9.0, 25, 26):
                ("ooooooooooooooooooooppppppppppssspppppooooooooooooo", 303.07518673841776),
        }
        lobes = []
        legs = kernels._rect_lobe_legs

        def record(x0, x1, h, panels, cross_at, inner):
            lobes.append((x0, x1, h, cross_at))
            return legs(x0, x1, h, panels, cross_at, inner)
        monkeypatch.setattr(kernels, "_rect_lobe_legs", record)
        for (n, a, b, p, t, lam0, below, above), (kinds, checksum) in expected.items():
            got, total = "", 0.0
            for lam in lam0 + 0.2 * np.arange(-below, above):
                lobes.clear()
                finite_n_diagonal(n, a, b, p, t, [lam])
                got += ("-" if not lobes else "p" if lobes[0][3] is not None
                        else "s" if len(lobes) == 2 else "o")
                total += sum(x0 + 2 * x1 + 3 * h for x0, x1, h, _ in lobes)
            assert got == kinds
            assert total == pytest.approx(checksum, abs=1e-9)

    @pytest.mark.parametrize("lam", [3.0, 0.54132])
    def test_no_dense_coupling_temporary(self, lam):
        # a dense complex V x U coupling alone is 8 MB at the plain point
        # (1024 x 512 nodes) and 36 MB at the pierced one (1536 x 1472)
        import tracemalloc
        finite_n_kernel_scaled(SYM8, lam, lam)     # fill the lazy caches
        tracemalloc.start()
        try:
            finite_n_kernel_scaled(SYM8, lam, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
