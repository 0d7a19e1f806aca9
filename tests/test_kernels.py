import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special

from pearceylab import kernels
from pearceylab._quad import QuadratureError, QuadratureSpec, _gl
from pearceylab.ensemble_mc import group_sizes
from pearceylab.kernels import (ContourPath, FiniteKernelParams, airy_kernel,
                                airy_kernel_matrix, build_contours,
                                finite_n_diagonal, finite_n_kernel,
                                finite_n_kernel_grid, finite_n_kernel_scaled,
                                pearcey_kernel, pearcey_kernel_grid, pearcey_kernel_matrix,
                                pearcey_kernel_pq_form, pearcey_pq, pq_tables)


def _pq_direct(t, xs, spec):
    """Oracle for kernels._pq_quadrature: the same sums with one complex
    exponential per rule node and x, q on one composite rule over [-L, L]
    and p on the two half-line rules (weights negated on the positive half)."""
    xs = np.asarray(xs, dtype=float)
    xmax = float(np.abs(xs).max(initial=0.0))
    L = kernels._pq_L(t, xmax)
    panels = kernels._pq_panels(t, xmax, L, spec)
    k = np.arange(4)[:, None]
    v, wv = kernels._legs_rule([(-L, L, 2 * panels)], spec.nodes_per_panel)
    base = np.exp(-v**4 / 4.0 - t * v**2 / 2.0)
    Q = -((-1j) ** k) / (2.0 * math.pi) * ((v**k * (wv * base)) @ np.exp(-1j * np.outer(v, xs)))
    e = np.exp(1j * math.pi / 4.0)
    s_neg, w_neg = kernels._legs_rule([(-L, 0.0, panels)], spec.nodes_per_panel)
    s_pos, w_pos = kernels._legs_rule([(0.0, L, panels)], spec.nodes_per_panel)
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
    P1, Q1 = next(kernels._pq_quadrature((t,), xs, spec))
    scale = np.maximum(1.0, np.maximum(np.abs(P0).max(axis=0), np.abs(Q0).max(axis=0)))
    return max((np.abs(P1 - P0).max(axis=0) / scale).max(),
               (np.abs(Q1 - Q0).max(axis=0) / scale).max())


def _graded_leg(a, b, panels, nodes_per_panel, inner):
    """Gauss-Legendre nodes and weights on the segment a -> b with `panels`
    panels whose edges sit at distances 0, inner, 2 inner, 4 inner, ... from
    b (inner at most half the segment), the last panel taking the rest: the
    geometric grading pearcey_kernel_grid's rule once used."""
    frac = min(0.5, inner / abs(b - a))
    rel = np.unique(np.minimum(np.append(frac * 2.0 ** np.arange(panels - 1), [0.0, 1.0]), 1.0))
    edges = 1.0 - rel[::-1]
    gx, gw = _gl(nodes_per_panel)
    half, mid = np.diff(edges)[:, None] / 2.0, (edges[1:] + edges[:-1])[:, None] / 2.0
    return a + (b - a) * (mid + half * gx).ravel(), (b - a) * (half * gw).ravel()


def _pearcey_grid_graded(s, t, xs, ys, spec):
    """Oracle for pearcey_kernel_grid: its former rule, X corners at L(1 +- i)
    and the legs graded toward the centre and the chord ends (1,280 V nodes
    and 512 U nodes at the default spec), with a dense Cauchy coupling."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    L = max(kernels._pq_L(t, np.abs(ys).max(), spec.truncation_radius),
            kernels._pq_L(s, np.abs(xs).max(), spec.truncation_radius))
    inner = L * 2.0 ** (1 - spec.panels)
    d = min(1.0, L / 6.0)
    panels, npp = spec.panels, spec.nodes_per_panel
    # each leg graded toward its end, and the sign that orients it: the line
    # runs upward through 0, each X branch in from one corner, along its
    # chord and out to the other corner
    legs = [(_graded_leg(-1j * L, 0.0, panels, npp, inner), 1.0),
            (_graded_leg(1j * L, 0.0, panels, npp, inner), -1.0)]
    U = np.concatenate([z for (z, _), _ in legs])
    WU = np.concatenate([sign * w for (_, w), sign in legs])
    legs = []
    for c in (1.0, -1.0):
        arm = [c * L * (1 + 1j), c * d * (1 + 1j), c * d * (1 - 1j), c * L * (1 - 1j)]
        legs += [(_graded_leg(arm[0], arm[1], panels, npp, inner), 1.0),
                 (kernels._legs_rule([(arm[1], arm[2], max(2, panels // 2))], npp), 1.0),
                 (_graded_leg(arm[3], arm[2], panels, npp, inner), -1.0)]
    V = np.concatenate([z for (z, _), _ in legs])
    WV = np.concatenate([sign * w for (_, w), sign in legs])
    A = (WV * np.exp(V**4 / 4.0 - s * V**2 / 2.0))[:, None] * np.exp(np.outer(V, xs))
    B = (WU * np.exp(-U**4 / 4.0 + t * U**2 / 2.0))[:, None] * np.exp(-np.outer(U, ys))
    out = -(A.T @ (1.0 / (U[None, :] - V[:, None])) @ B).real / (4.0 * math.pi**2)
    if s < t:
        dx = xs[:, None] - ys[None, :]
        out -= np.exp(-dx * dx / (2.0 * (t - s))) / math.sqrt(2.0 * math.pi * (t - s))
    return out


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
        # t=10 with x up to 12 needs more than 8 panels per half-line
        t, xs = 10.0, np.append(np.random.default_rng(8).uniform(-12.0, 12.0, 39), 12.0)
        assert kernels._pq_panels(t, 12.0, kernels._pq_L(t, 12.0), spec) > 8
        assert _pq_scaled_gap(t, xs, spec) < 1e-11

    @pytest.mark.parametrize("fault, message", [
        ("imaginary", "imaginary part"),
        ("ode", "ODE residual"),
        ("refined", "did not converge"),
    ])
    def test_each_check_fires(self, spec, monkeypatch, fault, message):
        # a fault at one time, alone (through pq_tables) or among several
        # (through _pq_checked), trips its check and names that time; the
        # last case's faulty time sits on a rule of its own (L grows with |t|
        # past 1.125)
        raw = kernels._pq_quadrature
        xs = np.linspace(-2.0, 2.0, 9)
        cases = [((0.7,), 0.7), ((-0.3, 0.2, 0.7, 1.1), 0.7), ((-0.3, 0.2, 0.7), -0.3),
                 ((0.2, -4.6, -4.55, -4.5), -4.55)]
        # 1e-6 of q's size where it exceeds 1: 1e-6 at t = 0.7, 4e-4 at t = -4.55
        bumps = [1e-6 * max(1.0, np.abs(pq_tables(bad, xs, spec)[1]).max()) for _, bad in cases]
        for (times, bad), bump in zip(cases, bumps):
            def faulty(ts, xs, sp, bad=bad, bump=bump):
                for t, (P, Q) in zip(ts, raw(ts, xs, sp)):
                    if t != bad:
                        pass
                    elif fault == "imaginary":
                        Q = Q * (1.0 + 1e-6j)      # still solves the ODE, so only Im q trips
                    elif fault == "ode":
                        P = P.copy()
                        P[3] += bump               # on both rules alike, so refinement agrees
                    elif sp != spec:
                        P, Q = P + bump, Q + bump
                    yield P, Q

            monkeypatch.setattr(kernels, "_pq_quadrature", faulty)
            passed = []
            with pytest.raises(QuadratureError, match=message) as info:
                if len(times) == 1:
                    pq_tables(bad, xs, spec)
                else:
                    for tables in kernels._pq_checked(times, xs, spec):
                        passed.append(tables)
            assert info.value.achieved > 0
            assert re.search(rf"t={re.escape(str(bad))}(,|$)", str(info.value))
            assert len(passed) == times.index(bad)      # every earlier time passed its checks

    @staticmethod
    def _parent_rule(t, x):
        """(L, panels per half-line) of the p/q rule when it was floored at the
        default QuadratureSpec's truncation radius 6 and 8 panels."""
        L = max(6.0, (4.0 * abs(x)) ** (1.0 / 3.0) + 2.0, math.sqrt(2.0 * abs(t)) + 3.0)
        need = int(L * (abs(x) / math.sqrt(2.0) + abs(t) * L / 2.0) / (2.0 * math.pi) * 8) + 1
        return L, max(8, -(-need // 32))

    @pytest.mark.parametrize("t", np.linspace(-10.0, 10.0, 9))
    def test_rule_size_against_parent_sizing(self, spec, monkeypatch, t):
        # the rule sized by its integrand alone stays within twice the
        # floored rule's error (or 1e-14) of a larger reference rule, each
        # node scaled as pq_tables scales its tolerances
        pq_L, pq_panels = kernels._pq_L, kernels._pq_panels

        def tables(xs, L, panels, npp):
            monkeypatch.setattr(kernels, "_pq_L", lambda t, x: L)
            monkeypatch.setattr(kernels, "_pq_panels", lambda t, x, L, spec: panels)
            return next(kernels._pq_quadrature((t,), xs, QuadratureSpec(nodes_per_panel=npp)))

        for x in (0.0, 5.0, 10.0, 15.0, 20.0):
            xs = np.linspace(-x, x, 9)
            L = pq_L(t, x)
            new = (L, pq_panels(t, x, L, spec))
            old = self._parent_rule(t, x)
            if abs(t) >= 10.0:
                assert new == old
            P, Q = tables(xs, old[0] + 2.0, 2 * old[1] + 4, 48)
            scale = np.maximum(1.0, np.maximum(np.abs(P).max(axis=0), np.abs(Q).max(axis=0)))
            err = [max((np.abs(P1 - P).max(axis=0) / scale).max(),
                       (np.abs(Q1 - Q).max(axis=0) / scale).max())
                   for P1, Q1 in (tables(xs, *rule, 32) for rule in (new, old))]
            assert err[0] <= max(2.0 * err[1], 1e-14), (x, new, old, err)

    def test_multi_time_tables_match_single_time(self, spec):
        # times on four rules (L grows with |t| beyond 1.4 at these x), one
        # of them in three separate runs
        xs = np.random.default_rng(9).uniform(-5.0, 5.0, 31)
        times = (-1.6, -1.5, -1.4, -1.0, 0.0, 0.7, 1.6, 10.0, -1.6)
        xmax = float(np.abs(xs).max())
        assert len({kernels._pq_L(t, xmax) for t in times}) == 4
        tables = list(kernels._pq_checked(times, xs, spec))
        assert len(tables) == len(times)
        for t, (P, Q) in zip(times, tables):
            P1, Q1 = pq_tables(t, xs, spec)
            assert np.array_equal(P, P1) and np.array_equal(Q, Q1)


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
        wide = pearcey_kernel(0.0, 0.0, 1.0, -1.0, QuadratureSpec(
            spec.truncation_radius + 2.0, spec.panels, spec.nodes_per_panel))
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

    def test_negative_time_against_mpmath(self, spec):
        # t = -7.5 from the defining p/q integrals with mpmath 1.3.0 at 34
        # digits (each by mp.quad over 40 equal panels of [-9, 9], p on its
        # two half-lines), then the p/q kernel formula.  Rules on scipy's
        # roots_legendre weights were off by 5.2e-8 and 3.6e-8 here, past
        # the 1e-8 tolerance, while their rounding bound read 3.5e-9.
        for (x, y), ref in (((-4.0, 2.0), -0.058796414202527565),
                            ((-4.0, -4.0), 0.88676925188019677)):
            assert abs(pearcey_kernel(-7.5, -7.5, x, y, spec) - ref) < 1e-8

    @pytest.mark.parametrize("s, t", [(-1.0, 0.5), (0.5, -1.0), (0.0, 0.0), (-1.5, 1.5),
                                      (1.2, 1.3)])
    def test_matches_graded_rule(self, spec, s, t):
        xs = np.linspace(-5.0, 5.0, 41)
        K = pearcey_kernel_grid(s, t, xs, xs, spec)
        ref = _pearcey_grid_graded(s, t, xs, xs, spec)
        assert (np.abs(K - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))).all()

    def test_coupling_budget(self, spec, monkeypatch):
        # V x U coupling entries per call; the graded rule used 1,280 x 512
        sizes = []
        contract = kernels._cauchy_contract
        monkeypatch.setattr(kernels, "_cauchy_contract", lambda A, kV, kU, B: (
            sizes.append(len(kV) * len(kU)) or contract(A, kV, kU, B)))
        xs = np.linspace(-3.0, 3.0, 13)
        for s, t in ((-1.5, 1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, -1.5), (0.0, 0.0)):
            pearcey_kernel_grid(s, t, xs, xs, spec)
        assert len(sizes) == 5 and max(sizes) <= 655_360 // 8

    def test_indentation_independence(self, spec, monkeypatch):
        # the chord at d and at d/2 bound the same analytic integrand
        xs = np.linspace(-2.0, 2.0, 9)
        K = pearcey_kernel_grid(-1.0, 0.5, xs, xs, spec)
        gaps = []
        contours = kernels.build_contours

        def half_gap(q, L, center=0.0, pinch_gap=0.0):
            gaps.append(pinch_gap / 2.0)
            return contours(q, L, center, pinch_gap / 2.0)
        monkeypatch.setattr(kernels, "build_contours", half_gap)
        K_half = pearcey_kernel_grid(-1.0, 0.5, xs, xs, spec)
        assert gaps == [0.5]
        assert np.abs(K - K_half).max() < 1e-12

    def test_imaginary_check_carries_achieved(self, spec, monkeypatch):
        contract = kernels._cauchy_contract

        def tilted(A, kV, kU, B):
            contraction, mass = contract(A, kV, kU, B)
            return contraction * (1.0 + 1e-6j), mass
        monkeypatch.setattr(kernels, "_cauchy_contract", tilted)
        with pytest.raises(QuadratureError, match="imaginary") as info:
            pearcey_kernel_grid(0.0, 0.0, [0.0, 1.0], [0.0, 1.0], spec)
        assert info.value.achieved > 0

    @pytest.mark.parametrize("s, t, xs, ys", [
        (math.nan, math.nan, [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),
        (math.nan, 0.0, [0.0], [0.0]),
        (0.0, math.inf, [0.0], [0.0]),
        (0.0, 0.0, [-1.0, math.nan, 1.0], [0.0]),
        (0.0, 0.0, [0.0], [-math.inf, 1.0]),
    ])
    def test_non_finite_input_rejected(self, spec, s, t, xs, ys):
        # a NaN s and t gave a grid of NaN values without an error
        with pytest.raises(ValueError, match="finite"):
            pearcey_kernel_grid(s, t, xs, ys, spec)


def _airy_contour(x, prime):
    """Ai(x) or Ai'(x) by Gauss-Legendre quadrature over the rays
    arg w = +-pi/3, shifted through the saddle sqrt(x) for x > 0."""
    shift = math.sqrt(x) if x > 0 else 0.0
    s, w = kernels._legs_rule([(0.0, math.sqrt(3.0 * max(-x, 0.0)) + 8.0, 12)], 32)
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

    def test_cold_path_loads_no_scipy(self):
        # a fresh process imports pearceylab and makes the first call of each
        # benchmark workload without loading scipy; the Airy kernel then
        # imports scipy.special.airy on its first use
        code = textwrap.dedent("""
            import json, sys
            import pearceylab
            from pearceylab.ensemble_mc import sample_spectrum
            from pearceylab.fredholm import (IntervalUnion, gap_probability,
                                             pearcey_kernel_handle)
            from pearceylab.kernels import FiniteKernelParams, airy_kernel, finite_n_kernel
            from pearceylab.spectral_curve import TargetConfig
            gap_probability(pearcey_kernel_handle(0.0), IntervalUnion((-0.5, 0.5)), 8)
            finite_n_kernel(FiniteKernelParams(n=8, a=1.0, b=-1.0, p=0.5, t_k=1/3,
                                               t_l=1/3), 0.0, 0.0)
            sample_spectrum(50, TargetConfig((-1.0, 1.0), (0.5, 0.5), 0.2), 0)
            cold = "scipy" in sys.modules
            print(json.dumps([cold, airy_kernel(0.3, -0.7), airy_kernel(1.5, 1.5)]))
            """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        cold, off, diag = json.loads(done.stdout.splitlines()[-1])
        assert cold is False
        ai, aip, _, _ = scipy.special.airy(np.array([0.3, -0.7, 1.5]))
        assert off == pytest.approx((ai[0] * aip[1] - aip[0] * ai[1]) / (0.3 + 0.7), rel=1e-14)
        assert diag == pytest.approx(aip[2] ** 2 - 1.5 * ai[2] ** 2, rel=1e-14)

    def test_kernel_diagonal_and_symmetry(self):
        v = airy_kernel(0.0, 0.0)
        aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        assert v == pytest.approx(aip0 * aip0, abs=1e-12)
        assert airy_kernel(0.3, -0.7) == pytest.approx(airy_kernel(-0.7, 0.3), abs=1e-14)
        assert airy_kernel(5.0, 5.0) < 1e-6


class TestIntegrableMatrix:
    @staticmethod
    def _sine(xs, ys):
        # the sine kernel sin(pi (x - y)) / (pi (x - y)) as an integrable
        # kernel: F = (cos pi x, -sin pi x)/pi, G = (sin pi y, cos pi y),
        # G' = pi (cos pi y, -sin pi y); its diagonal is 1
        F = (np.cos(np.pi * xs) / np.pi, -np.sin(np.pi * xs) / np.pi)
        G = (np.sin(np.pi * ys), np.cos(np.pi * ys))
        dG = (np.pi * np.cos(np.pi * ys), -np.pi * np.sin(np.pi * ys))
        return kernels._integrable_matrix(F, xs, G, dG, ys)

    def test_sine_kernel(self):
        xs = np.linspace(-2.0, 2.0, 11)
        ys = np.concatenate([xs[::2], [0.1, 1.3]])
        K = self._sine(xs, ys)
        assert np.abs(K - np.sinc(xs[:, None] - ys[None, :])).max() < 1e-14
        assert np.abs(np.diag(self._sine(xs, xs)) - 1.0).max() < 1e-14

    def test_sine_kernel_stacked(self):
        # leading axes stack grids: each matrix is its grid's own matrix
        xs = np.array([np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.5, 5)])
        ys = np.array([[-1.0, 0.0, 0.3], [0.5, 1.0, 2.2]])
        K = self._sine(xs, ys)
        assert K.shape == (2, 5, 3)
        for x, y, k in zip(xs, ys, K):
            assert np.abs(k - np.sinc(x[:, None] - y[None, :])).max() < 1e-14
            assert np.array_equal(k, self._sine(x, y))

    def test_one_fill_per_matrix(self, spec, monkeypatch):
        calls = []
        fill = kernels._integrable_matrix
        monkeypatch.setattr(kernels, "_integrable_matrix", lambda *args: (
            calls.append(len(args[0])) or fill(*args)))
        xs = np.linspace(-2.0, 2.0, 7)
        airy_kernel_matrix(xs, xs + 0.5)
        assert calls == [2]
        pearcey_kernel_matrix(0.3, xs, xs, spec)
        assert calls == [2, 3]


class TestContours:
    def test_q1_pure_diagonals(self, spec):
        _, v = build_contours(1.0, spec.truncation_radius)
        for branch in v.branches():
            assert len(branch) == 3  # no horizontal continuations

    def test_q2_corner_parameter(self, spec):
        _, v = build_contours(2.0, spec.truncation_radius)
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
        _, v_lo = build_contours(0.5, spec.truncation_radius)
        _, v_hi = build_contours(2.0, spec.truncation_radius)
        # horizontals on opposite sides
        lo_nodes = np.array(v_lo.nodes)
        hi_nodes = np.array(v_hi.nodes)
        assert lo_nodes.real.min() < -spec.truncation_radius
        assert hi_nodes.real.max() > spec.truncation_radius

    @pytest.mark.parametrize("L", [0.0, -6.0, math.nan, math.inf])
    def test_length_must_be_finite_and_positive(self, L):
        with pytest.raises(ValueError, match="contour length"):
            build_contours(2.0, L)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_q_must_be_finite_and_positive(self, q):
        # a NaN or infinite q built a NaN contour, which the descent check
        # passed because every comparison on NaN is False
        with pytest.raises(ValueError, match="q must be positive and finite"):
            build_contours(q, 6.0)

    def test_contour_path_invariants(self):
        with pytest.raises(ValueError):
            ContourPath(nodes=(0.0, 0.0), label="imaginary-axis")

    def test_pearcey_contour_rays(self, spec, monkeypatch):
        # the legs pearcey_kernel_grid integrates over: the U line runs up
        # from -iL to iL; the right X branch enters from e^{i pi/4} infinity
        # and leaves to e^{-i pi/4} infinity, the left one enters from
        # e^{-3i pi/4} and leaves to e^{3i pi/4}, each with corners at
        # |V| = L and a chord at Re V = +-d between its two rays; the X is
        # the q = 1 case of build_contours
        seen, legs = [], []
        contours, rule = kernels.build_contours, kernels._legs_rule
        monkeypatch.setattr(kernels, "build_contours", lambda q, L, center=0.0, pinch_gap=0.0: (
            seen.append((q, pinch_gap)) or contours(q, L, center, pinch_gap)))
        monkeypatch.setattr(kernels, "_legs_rule", lambda lg, nodes_per_panel: (
            legs.append(lg) or rule(lg, nodes_per_panel)))
        pearcey_kernel_grid(0.0, 0.0, [0.0], [0.0], spec)
        (q, d), = seen
        u, v = legs
        assert len(v) == 6
        L = kernels._pq_L(0.0, 0.0, spec.truncation_radius)
        assert q == 1.0
        assert [(a, b) for a, b, *_ in u] == [(-1j * L, 1j * L)]
        points = [[(a, b) for a, b, *_ in v[k:k + 3]] for k in (0, 3)]
        for branch, sign in zip(points, (1.0, -1.0)):
            assert all(b0 == a1 for (_, b0), (a1, _) in zip(branch[:-1], branch[1:]))
            chord = branch[1]
            assert chord[0].real == chord[1].real == pytest.approx(sign * d)
        outer = [z for branch in points for z in (branch[0][0], branch[-1][1])]
        want = [math.pi / 4, -math.pi / 4, -3 * math.pi / 4, 3 * math.pi / 4]
        assert np.abs(np.angle(outer) - want).max() < 1e-12
        assert np.abs(np.abs(outer) - L).max() < 1e-12


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

    def test_imaginary_check_carries_achieved(self, monkeypatch):
        params = FiniteKernelParams(n=12, a=1.0, b=-1.0, p=0.5, t_k=0.3, t_l=0.3)
        monkeypatch.setattr(kernels, "finite_n_kernel_scaled",
                            lambda *args, **kw: (complex(1.0, 1e-3), 0.0))
        with pytest.raises(QuadratureError, match="imaginary") as info:
            finite_n_kernel(params, 0.0, 0.0)
        assert info.value.achieved == pytest.approx(1e-3)

    def test_diagonal_failure_off_support_propagates(self, monkeypatch):
        # a QuadratureError far off the support read 0 where the equilibrium
        # density was below 1e-8; zeros come only from the adaptive tier's
        # negligibility bound, and any failure propagates
        def failing(*args, **kw):
            raise QuadratureError("lost all significant digits", achieved=1.0)
        monkeypatch.setattr(kernels, "finite_n_kernel", failing)
        with pytest.raises(QuadratureError, match="lost all significant digits"):
            finite_n_diagonal(8, 1.0, -1.0, 0.5, 1.0 / 3.0, [30.0])

    def test_tier_agreement_overlap(self):
        # the cusp tier against the adaptive tier's dense-rule values; with
        # legs graded by panel count it was 5.8e-10 off at z = +-0.3
        c = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0)
        for z, ref in DENSE_SYM50.items():
            lam = math.sqrt(50) * c * z
            vc, lc = finite_n_kernel_scaled(SYM50, lam, lam, contours="cusp")
            assert abs((vc * np.exp(lc)).real - ref) <= 1e-12 * ref, z

    def test_normalization_n8(self):
        # (1/n) integral of the diagonal = 1 within 1e-4 (symmetric, t = t0)
        from pearceylab.kernels import finite_n_diagonal
        n, t = 8, 1.0 / 3.0
        c = math.sqrt(t * (1 - t) / 2)
        acc = 0.0
        for (zlo, zhi) in ((-3.6, -1e-4), (1e-4, 3.6)):
            zs, zw = kernels._legs_rule([(zlo, zhi, 24)], 24)
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
        # the descent scan runs beside the contours; a valid q passes silently
        # (at n = 64, where the X's open branch stops at e^{-51} of the saddle)
        params = FiniteKernelParams(n=64, a=1.0, b=0.0, p=1.0 / 9.0,
                                    t_k=0.6, t_l=0.6)
        crit = params.critical()
        lam = crit.x0 * math.sqrt(64)
        val = finite_n_kernel(params, lam, lam, contours="cusp")
        assert np.isfinite(val) and val > 0

    @pytest.mark.parametrize("n, a, b, p", [(8, 1.0, 0.0, 1.0 / 9.0), (9, 1.0, 0.0, 1.0 / 9.0),
                                            (16, 1.0, 0.0, 1.0 / 9.0), (8, 0.0, -1.0, 0.8)])
    def test_open_branch_tail(self, monkeypatch, n, a, b, p):
        # at the cusp point, q != 1: the X branch that build_contours does not
        # continue stops where the integrand is e^{-n dF} of the saddle's
        # (5e-4 to 1e-7 here), and the default and refined cusp rules agree on
        # the truncated value, which missed the adaptive tier's by 1e-10 to
        # 1e-5.  auto takes the adaptive tier there, and the forced cusp tier
        # raises with the bound
        crit = FiniteKernelParams(n=n, a=a, b=b, p=p, t_k=0.5, t_l=0.5).critical()
        params = FiniteKernelParams(n=n, a=a, b=b, p=p, t_k=crit.t0, t_l=crit.t0)
        lam = crit.x0 * math.sqrt(n)
        tail = math.exp(-n * kernels.centered_action(
            math.copysign(kernels._corner(crit.q), 1.0 - crit.q) * (1 + 1j), crit.q).real)
        spec = QuadratureSpec()
        assert not kernels._in_cusp_window(params, lam, lam, spec)
        monkeypatch.setattr(kernels, "_OPEN_TAIL_TOL", math.inf)
        assert kernels._in_cusp_window(params, lam, lam, spec)
        monkeypatch.undo()
        adaptive = finite_n_kernel(params, lam, lam, contours="adaptive")
        assert finite_n_kernel(params, lam, lam) == pytest.approx(adaptive, abs=1e-10)
        with pytest.raises(QuadratureError, match="open branch") as exc:
            finite_n_kernel(params, lam, lam, contours="cusp")
        assert exc.value.achieved == pytest.approx(tail, rel=1e-9)
        assert exc.value.achieved > 1e-8

    def test_descent_check_gate_fires(self, monkeypatch):
        # a rise anywhere on the contours stops the cusp tier before any sum
        params = FiniteKernelParams(n=16, a=1.0, b=0.0, p=1.0 / 9.0, t_k=0.6, t_l=0.6)
        monkeypatch.setattr(kernels, "_descent_rises",
                            lambda q, u, v, samples: ([("u-line", 0, 1.0, 2.5e-3)], 0))
        kernels._descent_checked.cache_clear()
        with pytest.raises(ArithmeticError, match="steepest-descent check failed.*0.0025"):
            finite_n_kernel(params, 0.0, 0.0, contours="cusp")

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


def _psi_complex_log(u, kap, t, coord, n1, n2, alpha, beta):
    """The finite-n action with numpy's complex log: the oracle for
    kernels._psi_cusp."""
    U = kap * u
    return (t * U * U - 2.0 * coord * U) / (1.0 - t) \
        + n1 * np.log(u - alpha) + n2 * np.log(u - beta)


def _dense_cauchy(A, kV, kU, B):
    """A^T C B and |A|^T |C| |B| with the dense coupling C = 1/(kU - kV)
    formed: the oracle for the blocked kernels._cauchy_contract."""
    C = 1.0 / (kU[None, :] - kV[:, None])
    return A.T @ C @ B, np.abs(A).T @ np.abs(C) @ np.abs(B)


def test_cauchy_contract_matches_dense_coupling():
    # a grid, 200 V rows against 512 U nodes on the line Re = -0.5: three
    # full blocks of 64 rows and a partial fourth of 8; and the adaptive
    # tier's shape, one x and one y with U = kappa (sigma + i h) on a line off
    # the axis: 200 rows against 352 nodes, two blocks of 93 and one of 14
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for nx, ny, kU in ((3, 4, 1j * np.linspace(-6.0, 6.0, 512) - 0.5),
                       (1, 1, 1.7 * (0.83 + 1j * np.linspace(-6.0, 6.0, 352)))):
        A, B = cplx(200, nx), cplx(len(kU), ny)
        kV = cplx(200) + 3.0
        rows = kernels._CAUCHY_BLOCK // len(kU)
        assert len(kV) > rows and len(kV) % rows != 0
        vals, mass = kernels._cauchy_contract(A, kV, kU, B)
        dvals, dmass = _dense_cauchy(A, kV, kU, B)
        assert vals.shape == mass.shape == (nx, ny)
        assert (np.abs(vals - dvals) <= 1e-13 * dmass).all()
        assert (np.abs(mass - dmass) <= 1e-12 * dmass).all()


def test_cauchy_contract_needs_one_vertical_u_line():
    # a = Re(kU - kV) is taken once per V row, so U nodes off one vertical
    # line would be coupled wrongly: they raise instead
    kU = 1j * np.linspace(-6.0, 6.0, 64)
    kU[5] += 1e-12
    A, B = np.ones((8, 2), dtype=complex), np.ones((64, 3), dtype=complex)
    with pytest.raises(ValueError, match="one vertical line"):
        kernels._cauchy_contract(A, np.full(8, 3.0 + 0j), kU, B)


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
        # the function each adaptive case's geometry calls, and how often:
        # the plain point's banded U line, and the pierced point's eight legs
        # graded toward a crossing, four on the lobe and four on the line
        call, watch, calls = {
            "plain": (lambda: finite_n_kernel_scaled(SYM8, 3.0, 3.0), "_banded_uline", 1),
            "pierced": (lambda: finite_n_kernel_scaled(SYM8, 0.54132, 0.54132),
                        "_crossing_legs", 8),
            "cusp grid": (lambda: finite_n_kernel_grid(SYM50, [-0.2, 0.0, 0.2],
                                                       [-0.1, 0.1], spec25), None, None),
            "ordered adaptive": (lambda: finite_n_kernel_scaled(
                ORDERED12, 0.15, 0.15, contours="adaptive"), None, None),
            "ordered cusp": (lambda: finite_n_kernel_scaled(
                ORDERED12, 0.15, 0.15, contours="cusp"), None, None),
        }[case]
        seen, watched = self._contractions(monkeypatch, call, watch)
        assert len(seen) == 1
        if watch is not None:
            assert watched == calls     # the geometry this case is about
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

    @pytest.mark.parametrize("case", ["plain", "split", "pierced", "cusp"])
    def test_psi_matches_complex_log(self, monkeypatch, case):
        # the action's log|w| + i atan2 form against numpy's complex log on
        # both rules of each geometry, at the point's own coordinates
        lam = math.sqrt(50) * math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0) * 0.1
        params, x, contours = {"plain": (SYM8, 3.0, "auto"),
                               "split": (SYM50, lam, "adaptive"),
                               "pierced": (SYM8, 0.54132, "auto"),
                               "cusp": (SYM50, lam, "cusp")}[case]
        seen, _ = self._contractions(
            monkeypatch, lambda: finite_n_kernel_scaled(params, x, x, contours=contours))
        _, rule_u, side_u, rule_v, side_v, xs, ys = seen[0][0]
        n1, n2 = params.n1, params.n2
        for (nodes, _), (kap, al, be), t, coord in ((rule_u, side_u, params.t_l, ys[0]),
                                                    (rule_v, side_v, params.t_k, xs[0])):
            got = kernels._psi_cusp(nodes, kap, t, coord, n1, n2, al, be)
            want = _psi_complex_log(nodes, kap, t, coord, n1, n2, al, be)
            assert np.abs(got.real - want.real).max() <= 1e-14 * (n1 + n2)
            assert np.abs(got.imag - want.imag).max() <= 1e-14 * (n1 + n2)

    def test_psi_branch_on_the_negative_real_axis(self):
        # left of each pole the argument is +-pi by the sign of the zero
        # imaginary part, in both forms and to the last bit
        n1, n2, al, be = 4, 3, 2.0, -1.0
        for im in (0.0, -0.0):
            u = np.array([complex(x, im) for x in (-3.0, -1.5, 0.5, 1.9)])
            got = kernels._psi_cusp(u, 1.5, 1.0 / 3.0, 0.2, n1, n2, al, be)
            want = _psi_complex_log(u, 1.5, 1.0 / 3.0, 0.2, n1, n2, al, be)
            assert np.array_equal(got.imag, want.imag)
            assert np.array_equal(got.imag, math.copysign(math.pi, im)
                                  * np.array([n1 + n2, n1 + n2, n1, n1]))
            assert np.abs(got.real - want.real).max() <= 1e-14 * (n1 + n2)

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

        def record(x0, x1, h, widths, cross=None):
            lobes.append((x0, x1, h, cross))
            return legs(x0, x1, h, widths, cross)
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
        # a dense complex V x U coupling alone would be 0.6 MB at the plain
        # point (226 x 174 nodes) and 4.6 MB at the pierced one (602 x 482)
        import tracemalloc
        finite_n_kernel_scaled(SYM8, lam, lam)     # fill the lazy caches
        tracemalloc.start()
        try:
            finite_n_kernel_scaled(SYM8, lam, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("lam, parent", [(3.0, 352 * 512), (0.54132, 704 * 960)])
    def test_panels_sized_by_bernstein_ratio(self, monkeypatch, lam, parent):
        # with nodes_per_panel nodes on every panel the plain point took 352 U
        # by 512 V nodes and the pierced one 704 by 960; each panel now takes
        # the nodes its Bernstein ellipse needs (226 x 174 and 602 x 482)
        seen, _ = self._contractions(monkeypatch, lambda: finite_n_kernel_scaled(SYM8, lam, lam))
        (U, _), (V, _) = seen[0][0][1], seen[0][0][3]
        assert len(U) * len(V) <= 0.6 * parent

    def test_resolution_check_fires(self, monkeypatch):
        # the plain point's lobe, [-1.45, 1.45] x [-0.7, 0.7], lies 1.3 left of
        # the U line; with the line moved to 1e-3 from the lobe's right side,
        # neither the side's panels nor the line's resolve the other contour
        # at 32 nodes
        lobes, legs, lines = [], kernels._rect_lobe_legs, kernels._banded_uline

        def record(x0, x1, h, *args):
            lobes.append(x1)
            return legs(x0, x1, h, *args)

        def closer(sig, *args):     # on the diagonal U and V share their scale
            return lines(lobes[0] + 1e-3, *args)
        monkeypatch.setattr(kernels, "_rect_lobe_legs", record)
        monkeypatch.setattr(kernels, "_banded_uline", closer)
        with pytest.raises(QuadratureError, match="Gauss-Legendre nodes for 1e-13") as info:
            finite_n_kernel_scaled(SYM8, 3.0, 3.0)
        assert info.value.achieved > 1e-13


# The finite-n diagonal against finer rules at every point of the two
# benchmark diagonal profiles (lam0 + 0.2 k), and the adaptive tier at SYM50's
# cusp-vs-adaptive agreement points.
# - Plain and split points (the U line beside a V lobe or between two): the
#   references keep the tier's chosen lobes and U abscissa but put uniform
#   panels no wider than d/4 (d the lobes' clearance from the line) on every
#   leg of both contours, 32 Gauss-Legendre nodes each, with the U line out
#   to +-8i: some 9,000 U by 6,000 V nodes a point.
# - Pierced points (the U line crossing a V lobe; n = 8: k = -19..-12 and
#   -8..-1, n = 9: k = -5..4 and 8..12): the tier's rule at
#   QuadratureSpec(8, 24, 64).  The former rule, graded by panel count
#   toward the crossings, agrees with it there to 1.2e-15, as do (8, 32, 48)
#   and (10, 24, 96); at the default spec it was 1.3e-9 to 3.2e-8 off.
# - k = -10 of the n = 8 profile is in the cusp window: the reference is the
#   adaptive tier's value, on which its default and three finer specs agree
#   to 5e-16.  The cusp tier's truncation leaves about 1e-9 (CUSP_POINT_GATE).
# The zeros are points whose whole configuration is below the tier's 1e-9
# negligibility bound on both rules.
DENSE_PROFILES = {
    (8, 1.0, -1.0, 0.5, 1.0 / 3.0, 1.94132): {
        -34: 0.0, -33: 0.0, -32: 0.0, -31: 0.0, -30: 0.0, -29: 5.982088696456612e-11,
        -28: 5.028731715976544e-09, -27: 2.8113059481570243e-07, -26: 1.0364426825731688e-05,
        -25: 0.0002492358745989073, -24: 0.0038525717911760647, -23: 0.03751898768921901,
        -22: 0.22380533551383183, -21: 0.786120804076919, -20: 1.5521141172079458,
        -19: 1.7547074205087052, -18: 1.7030532120008495, -17: 2.064390413066915,
        -16: 1.9642163267503632, -15: 2.0093493567187477, -14: 2.086024056473191,
        -13: 1.7666394460867032, -12: 1.9142238512984557, -11: 1.5063034449745445,
        -10: 0.7641701823279204, -9: 1.0055139896202954, -8: 1.7927873105679053,
        -7: 1.8382056078932432, -6: 1.8605103986800433, -5: 2.1407497144844974,
        -4: 1.912622490741925, -3: 2.068695528713978, -2: 1.9170223026621696,
        -1: 1.6723001106346242, 0: 1.764284521488426, 1: 1.259539523818969,
        2: 0.5003093743719901, 3: 0.11380664870135251, 4: 0.015517267264682177,
        5: 0.0013126816492558362, 6: 7.060178949035192e-05, 7: 2.4570087329241268e-06,
        8: 5.604703424428016e-08, 9: 8.462710338577181e-10, 10: 0.0, 11: 0.0, 12: 0.0, 13: 0.0,
        14: 0.0, 15: 0.0},
    (9, 1.0, 0.0, 1.0 / 9.0, 0.5, 1.5 / 9.0): {
        -25: 0.0, -24: 0.0, -23: 0.0, -22: 0.0, -21: 0.0, -20: 0.0, -19: 0.0, -18: 0.0,
        -17: 7.064547513334972e-09, -16: 3.8294869197455073e-07, -15: 1.3893259974010155e-05,
        -14: 0.00033218621166222686, -13: 0.005128210135191689, -12: 0.0497006507378003,
        -11: 0.2907132801442155, -10: 0.9718038348449978, -9: 1.7518305403298748,
        -8: 1.848804255797305, -7: 2.028595063152294, -6: 2.3306008544339187,
        -5: 2.297607437892049, -4: 2.5557454033572258, -3: 2.468533563025256,
        -2: 2.6529943877162143, -1: 2.5344784750839318, 0: 2.6447933388120624,
        1: 2.4965166963648477, 2: 2.540975031650935, 3: 2.3291056811490423,
        4: 2.352319282158054, 5: 1.9753687056519642, 6: 2.0387129135053232,
        7: 1.490323090282646, 8: 0.9902432954625149, 9: 1.2616124067601455,
        10: 1.4182541648832943, 11: 1.0177738434305716, 12: 0.47367635547427417,
        13: 0.1472488938137827, 14: 0.0311560709832278, 15: 0.0045429206209345995,
        16: 0.00046052329355348584, 17: 3.267030252370079e-05, 18: 1.6302608082431067e-06,
        19: 5.745472314183411e-08, 20: 1.4347890376153703e-09, 21: 2.5457854947160372e-11,
        22: 0.0, 23: 0.0, 24: 0.0, 25: 0.0},
}
CUSP_POINT_GATE = 2e-9      # the cusp tier was 9.2e-6 off here with graded legs
# K(lam, lam) at lam = sqrt(50) c z, c = sqrt(t (1 - t) / 2), split lobes
DENSE_SYM50 = {-0.3: 3.7138962595897955, -0.2: 3.313250014782015, -0.1: 2.9608208568577106,
               0.1: 2.9608208568577132, 0.2: 3.3132500147820183, 0.3: 3.7138962595898315}


# K(lam, lam) at n = 50, t = 1/2 over the supports (lam in [-4.8, 6.5] and
# [-7.4, 7.4]), on the adaptive tier's rule at QuadratureSpec(8, 24, 64) with
# nodes_per_panel nodes on every panel
SWEEP_N50 = {
    (1.0, 0.0, 1.0 / 9.0): {
        -4.5: 2.412250472671255, -4.0: 3.3356997227468455, -3.5: 4.183357495988535,
        -3.0: 4.739316508733197, -2.5: 5.271242306544406, -2.0: 5.57170289038665,
        -1.5: 5.7835953350816425, -1.0: 5.9457112042950735, -0.5: 6.043827134615728,
        0.0: 6.077488337232805, 0.5: 6.044014505187044, 1.0: 5.933714185683239,
        1.5: 5.733712057362688, 2.0: 5.454062217087358, 2.5: 5.170291700870633,
        3.0: 4.570540259081173, 3.5: 3.9359698036554365, 4.0: 2.8514695999216455,
        4.5: 3.047269150561741, 5.0: 2.7532219784600693, 5.5: 2.508462251551221,
        6.0: 2.046981262179055, 6.5: 0.269398059936183},
    (1.0, -1.0, 0.5): {
        -7.0: 2.357007465766221, -6.5: 3.0245159196356193, -6.0: 3.7412226637984314,
        -5.5: 4.157017448959068, -5.0: 4.38849469699976, -4.5: 4.525078776350458,
        -4.0: 4.665920753896697, -3.5: 4.632761007386594, -3.0: 4.432449714792976,
        -2.5: 4.19796112831909, -2.0: 3.8159556836623074, -1.5: 3.1728091235629954,
        -1.0: 2.4722265323223462, -0.5: 0.12082753183675972, 0.0: 5.2689183809558946e-05,
        0.5: 0.12082753183675961, 1.0: 2.472226532322343, 1.5: 3.172809123562996,
        2.0: 3.8159556836623065, 2.5: 4.19796112831909, 3.0: 4.432449714792975,
        3.5: 4.632761007386593, 4.0: 4.665920753896697, 4.5: 4.52507877635046,
        5.0: 4.388494696999761, 5.5: 4.157017448959068, 6.0: 3.7412226637984247,
        6.5: 3.0245159196355687, 7.0: 2.3570074657662246},
}
# where the contraction's absolute mass is 3e6 (lam = -3) and 4e7 (lam = 2.5)
# times the value, rounding alone scatters it by about 1e-10 and 1e-9: there
# the references at (8, 24, 64) and (8, 32, 96) differ by 1.0e-10 and 1.3e-9
SWEEP_CANCELLING = {((1.0, 0.0, 1.0 / 9.0), -3.0), ((1.0, 0.0, 1.0 / 9.0), 2.5)}


class TestAdaptiveRules:
    def test_profiles_match_reference_rules(self):
        for (n, a, b, p, t, lam0), refs in DENSE_PROFILES.items():
            for k, ref in refs.items():
                got = finite_n_diagonal(n, a, b, p, t, [lam0 + 0.2 * k])[0]
                tol = CUSP_POINT_GATE if (n, k) == (8, -10) else 1e-12
                assert abs(got - ref) <= tol * abs(ref), (n, k, got, ref)
        c = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0)
        for z, ref in DENSE_SYM50.items():
            lam = math.sqrt(50) * c * z
            val, ls = finite_n_kernel_scaled(SYM50, lam, lam, contours="adaptive")
            got = (val * np.exp(ls)).real
            assert abs(got - ref) <= 1e-12 * ref, (z, got, ref)

    @pytest.mark.parametrize("abp, lam", [
        pytest.param(abp, lam, marks=pytest.mark.xfail(
            reason="rounding: the contraction cancels to 1/mass of 3e6 and 4e7", strict=False))
        if (abp, lam) in SWEEP_CANCELLING else (abp, lam)
        for abp, refs in SWEEP_N50.items() for lam in refs])
    def test_off_cusp_sweep_at_n50(self, abp, lam):
        ref = SWEEP_N50[abp][lam]
        got = finite_n_diagonal(50, *abp, 0.5, [lam])[0]
        assert abs(got - ref) <= 1e-10 * ref, got

    def test_crossing_legs_double_away_from_the_crossing(self):
        far, at = 2.0 + 1.0j, -0.5 + 1.0j
        for outward in (False, True):
            legs = kernels._crossing_legs(far, at, 0.4, 0.01, outward)
            _, w = kernels._legs_rule(legs, 8)
            assert np.sum(w) == pytest.approx((far - at) if outward else (at - far), rel=1e-14)
            assert all((abs(b - at) > abs(a - at)) == outward for a, b, _ in legs)
            # single panels 0.01, 0.02, ..., 0.32 wide out from the crossing,
            # then uniform panels no wider than 0.4 over the remaining 1.87
            spans = sorted((min(abs(a - at), abs(b - at)), max(abs(a - at), abs(b - at)), p)
                           for a, b, p in legs)
            edges = 0.01 * (2.0 ** np.arange(7) - 1.0)
            assert np.allclose([lo for lo, _, _ in spans], edges, atol=1e-15)
            assert np.allclose([hi for _, hi, _ in spans], np.append(edges[1:], 2.5), atol=1e-15)
            assert [p for _, _, p in spans] == [1] * 6 + [5]

    def test_pierced_lobe_off_cusp_at_n50(self):
        # (1, 0, 1/9) at t = 1/2, outside the cusp window; the U line pierces
        # the V lobe at all three points, and 6.5 sits at the right support
        # edge.  The references are the tier's rule at QuadratureSpec(8, 24,
        # 64); the former rule, graded by panel count toward the crossings,
        # agrees with them there to 4e-14.  At the default spec that rule was
        # off by 1.7e-5, 1.6e-5 and 3.0e-2.
        for lam, ref in ((3.75, 3.4543369462461), (4.0, 2.8514695999216),
                         (6.5, 0.2693980599362)):
            got = finite_n_diagonal(50, 1.0, 0.0, 1.0 / 9.0, 0.5, [lam])[0]
            assert abs(got - ref) <= 1e-10 * ref, (lam, got)

    def test_low_split_lobes_at_n50(self):
        # (1, -1, 1/2) at t = 1/2: the chosen split lobes are 0.127 high
        # against d = 0.156.  With their top and bottom panels 5 d wide the
        # tier returned -9.2528e-3 and 5.0820e-5; capped at the lobe height
        # they resolve.  The references are the tier's values at
        # QuadratureSpec(8, 24, 64); (8, 32, 48) agrees with them to 2.5e-14
        # at 0.25 and 1.3e-11 at 0.
        got = finite_n_diagonal(50, 1.0, -1.0, 0.5, 0.5, [0.25, 0.0])
        for val, ref in zip(got, (3.2173214578718e-3, 5.268918380928e-5)):
            assert abs(val - ref) <= 1e-10 * ref, (val, ref)

    def test_plain_lobe_at_n200(self):
        # z = 2.4 beside the right lobe: a rule with a fixed panel count per
        # leg was off by 6e-3 here.  The contraction's absolute mass is 7e3
        # times the value, so rounding alone allows about 1e-12.
        params = FiniteKernelParams(n=200, a=1.0, b=-1.0, p=0.5, t_k=1.0 / 3.0,
                                    t_l=1.0 / 3.0)
        lam = math.sqrt(200) * math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 2.0) * 2.4
        assert finite_n_kernel(params, lam, lam) == pytest.approx(5.0730410070858625,
                                                                  rel=1e-10)
