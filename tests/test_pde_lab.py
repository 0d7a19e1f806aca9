import math

import numpy as np
import pytest

from pearceylab import kernels
from pearceylab.fredholm import (IntervalUnion, NystromGrid, _nystrom_logdet,
                                 gap_probability, pearcey_kernel_handle,
                                 resolvent_quantities)
from pearceylab.pde_lab import (QSurface, pearcey_pde_residual, q_surface,
                                small_interval_checks, wronskian_coefficient)
from pearceylab.kernels import _pearcey_kernel_from_tables, pq_tables


@pytest.fixture(scope="module")
def surface_pair():
    """Surfaces at h = 0.05 and 0.025, centered at t = 0, E = [-1, 1]."""
    out = []
    for h in (0.05, 0.025):
        out.append(q_surface((0.0 - 2 * h, 0.0 + 2 * h), 0.0, 1.0, h, h, m=48))
    return out


class TestQSurface:
    def test_nonpositive_and_consistent(self, surface_pair, spec):
        s = surface_pair[0]
        assert (s.Q <= 1e-12).all()
        # tabulation equals a direct single evaluation
        jc = len(s.y1_grid) // 2
        kc = len(s.y2_grid) // 2
        E = IntervalUnion((s.y1_grid[jc], s.y2_grid[kc]))
        direct = gap_probability(pearcey_kernel_handle(0.0, spec), E, 48)
        i = len(s.t_grid) // 2
        assert s.Q[i, jc, kc] == pytest.approx(direct.log_value, abs=1e-12)

    def test_degenerate_interval_limit(self, spec):
        # Q -> 0 as the interval shrinks
        for w in (1e-2, 1e-3):
            s = q_surface((-0.02, 0.02), 0.0, w, 0.01, w * 0.2, m=16)
            assert abs(s.Q).max() < 3 * w

    def test_monotone_in_halfwidth(self, spec):
        vals = []
        for w in (0.5, 1.0, 1.5):
            s = q_surface((-0.02, 0.02), 0.0, w, 0.01, 0.01, m=32)
            vals.append(s.Q[1, 2, 2])
        assert vals[0] > vals[1] > vals[2]

    def test_symmetric_euler_consistency(self, surface_pair):
        # at t = 0 and symmetric E the surface obeys Q(y1, y2) = Q(-y2, -y1);
        # the Euler term built from mirrored stencils must agree
        s = surface_pair[0]
        Q = s.Q
        i = len(s.t_grid) // 2
        assert Q[i, 1, 2] == pytest.approx(Q[i, 2, 3], abs=1e-9)
        assert Q[i, 0, 2] == pytest.approx(Q[i, 2, 4], abs=1e-9)


def _per_interval_surface(t_grid, y1, y2, m, spec):
    """Q on the stencil lattice the per-interval way: pq_tables at each time
    over all the lattice's Nystrom nodes, then one kernel matrix and one
    Nystrom log-determinant per interval."""
    grids = [NystromGrid.build(IntervalUnion((a, b)), m) for a in y1 for b in y2]
    nodes = np.concatenate([g.nodes for g in grids])
    Q = np.empty((len(t_grid), len(grids)))
    for i, t in enumerate(t_grid):
        P, Qt = pq_tables(float(t), nodes, spec)
        for j, g in enumerate(grids):
            sl = slice(j * m, (j + 1) * m)
            K = _pearcey_kernel_from_tables(float(t), g.nodes, P[:, sl], g.nodes, Qt[:, sl])
            Q[i, j] = _nystrom_logdet(K, g.weights)
    return Q.reshape(len(t_grid), len(y1), len(y2))


class TestSharedTabulation:
    """q_surface tabulates p/q once for all its times and factors each row of
    intervals as one stack; its Q must equal the per-interval path bit for bit."""

    @pytest.mark.parametrize("t0", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("h, m", [(0.05, 48), (0.025, 48), (0.0125, 64)])
    def test_benchmark_surfaces(self, spec, t0, h, m):
        s = q_surface((t0 - 2 * h, t0 + 2 * h), 0.0, 1.0, h, h, m=m)
        oracle = _per_interval_surface(s.t_grid, s.y1_grid, s.y2_grid, m, spec)
        assert np.array_equal(s.Q, oracle)

    # L leaves its floor past |t| = 1.125: the two outer times get rules of
    # their own, the three inner ones share one run
    @pytest.mark.parametrize("t_range", [(-1.2, -1.0), (1.0, 1.2)])
    def test_times_on_different_rules(self, spec, t_range):
        s = q_surface(t_range, 0.0, 1.0, 0.05, 0.05, m=48)
        xmax = 1.0 + 2 * 0.05
        assert len({kernels._pq_L(float(t), xmax) for t in s.t_grid}) == 3
        oracle = _per_interval_surface(s.t_grid, s.y1_grid, s.y2_grid, 48, spec)
        assert np.array_equal(s.Q, oracle)


class TestInputChecks:
    @pytest.mark.parametrize("h_t, h_y", [(0.0, 0.05), (math.nan, 0.05), (-0.05, 0.05),
                                          (math.inf, 0.05), (0.05, 0.0), (0.05, math.nan),
                                          (0.05, -0.05)])
    def test_steps_positive_and_finite(self, h_t, h_y):
        with pytest.raises(ValueError, match="positive and finite"):
            q_surface((-0.1, 0.1), 0.0, 1.0, h_t, h_y, m=16)

    @pytest.mark.parametrize("m", [0, 4, 7])
    def test_nystrom_order_at_least_8(self, m):
        with pytest.raises(ValueError, match="m must be >= 8"):
            q_surface((-0.1, 0.1), 0.0, 1.0, 0.05, 0.05, m=m)

    @pytest.mark.parametrize("t_range", [(0.2, 0.0), (0.0, math.nan)])
    def test_time_range_ascending(self, t_range):
        # (0.2, 0.0) died in a zero-size reduction inside numpy
        with pytest.raises(ValueError, match="t_lo <= t_hi"):
            q_surface(t_range, 0.0, 1.0, 0.05, 0.05, m=16)


def _loop_residuals(surface):
    """The residual assembled one time and one stencil point at a time, in
    the same operation order as pearcey_pde_residual's array slices."""
    Q, h, ht = surface.Q, surface.h_y, surface.h_t
    jc, kc = len(surface.y1_grid) // 2, len(surface.y2_grid) // 2
    y1c, y2c = surface.y1_grid[jc], surface.y2_grid[kc]

    def dE2(i, j, k):
        d11 = (Q[i, j + 1, k] - 2 * Q[i, j, k] + Q[i, j - 1, k]) / h**2
        d22 = (Q[i, j, k + 1] - 2 * Q[i, j, k] + Q[i, j, k - 1]) / h**2
        d12 = (Q[i, j + 1, k + 1] - Q[i, j + 1, k - 1]
               - Q[i, j - 1, k + 1] + Q[i, j - 1, k - 1]) / (4 * h**2)
        return d11 + 2 * d12 + d22

    def dE(i):
        return ((Q[i, jc + 1, kc] - Q[i, jc - 1, kc])
                + (Q[i, jc, kc + 1] - Q[i, jc, kc - 1])) / (2 * h)

    out = []
    for i in range(2, len(surface.t_grid) - 2):
        t = surface.t_grid[i]
        Qt3 = (Q[i + 2, jc, kc] - 2 * Q[i + 1, jc, kc]
               + 2 * Q[i - 1, jc, kc] - Q[i - 2, jc, kc]) / (2 * ht**3)
        Gc = dE2(i, jc, kc)
        G1 = dE2(i, jc + 1, kc) - dE2(i, jc - 1, kc)
        G2 = dE2(i, jc, kc + 1) - dE2(i, jc, kc - 1)
        dt_G = (dE2(i + 1, jc, kc) - dE2(i - 1, jc, kc)) / (2 * ht)
        W = (dE(i + 1) - dE(i - 1)) / (2 * ht)
        wron = (G1 + G2) / (2 * h) * W - Gc * dt_G
        out.append(Qt3 + 0.125 * ((y1c * G1 + y2c * G2) / (2 * h) - 2 * t * dt_G - 2 * Gc)
                   - 0.5 * wron)
    return np.array(out)


class TestResidual:
    @pytest.mark.parametrize("factor", [1.0, 1.01])
    def test_equals_per_time_loop(self, surface_pair, factor):
        for s in (*surface_pair, q_surface((-0.2, 0.15), 0.0, 1.0, 0.05, 0.05, m=48)):
            s = s.scaled(factor)
            assert np.array_equal(pearcey_pde_residual(s).residuals, _loop_residuals(s))

    def test_contraction(self, surface_pair):
        r0 = pearcey_pde_residual(surface_pair[0]).max_abs
        r1 = pearcey_pde_residual(surface_pair[1]).max_abs
        assert 3.0 < r0 / r1 < 5.0

    def test_negative_control(self, surface_pair):
        b0 = pearcey_pde_residual(surface_pair[0].scaled(1.01)).max_abs
        b1 = pearcey_pde_residual(surface_pair[1].scaled(1.01)).max_abs
        assert not (3.0 < b0 / b1 < 5.0)
        assert b0 / b1 < 2.0

    @pytest.mark.parametrize("m", [0.0, 0.2])
    def test_closed_form_surface(self, m):
        # Q = c t^3 + t s^2 + k s^3 + 0.4 (y2 - y1)^2 + m y1^3, s = y1 + y2:
        # every stencil is exact for it (the O(h^2) term of dE Q is t-free
        # and drops out of W), and the residual is
        # 6c + 28 t - 3k (y1c + y2c) + m (11.25 y1c - 12 y2c); the m term
        # tells y1 from y2 in the Euler term eps_E
        c, k, h_t, h_y = 0.5, 0.25, 0.1, 0.1
        t = -0.2 + h_t * np.arange(7)
        y1 = -0.75 + h_y * np.arange(-2, 3)
        y2 = 1.25 + h_y * np.arange(-2, 3)
        T, Y1, Y2 = np.meshgrid(t, y1, y2, indexing="ij")
        s = Y1 + Y2
        Q = c * T**3 + T * s**2 + k * s**3 + 0.4 * (Y2 - Y1) ** 2 + m * Y1**3
        rep = pearcey_pde_residual(QSurface(t, y1, y2, Q, h_t, h_y))
        assert np.array_equal(rep.t_values, t[2:-2])
        assert (rep.y1, rep.y2) == (-0.75, 1.25)
        expect = (6 * c + 28 * t[2:-2] - 3 * k * (-0.75 + 1.25)
                  + m * (11.25 * -0.75 - 12 * 1.25))
        assert np.abs(rep.residuals - expect).max() < 6e-12


class TestSmallInterval:
    @staticmethod
    def _per_call_rows(t, x, h_list, m, spec):
        """The rows with four one-set resolvent calls per h."""
        rows = []
        for h in h_list:
            E, eps, dt_h = IntervalUnion((x, x + h)), h * 0.05, 5e-4
            dEu = (resolvent_quantities(t, E.shifted(eps), m, spec).u
                   - resolvent_quantities(t, E.shifted(-eps), m, spec).u) / (2 * eps)
            dut = (resolvent_quantities(t + dt_h, E, m, spec).u
                   - resolvent_quantities(t - dt_h, E, m, spec).u) / (2 * dt_h)
            rows.append((h, dEu / h, dut / h))
        return rows

    @pytest.mark.parametrize("t, x, h_list, m", [(0.0, 0.0, (1e-2, 5e-3, 2.5e-3), 32),
                                                 (1.0, 0.5, (1e-2, 5e-3), 48)])
    def test_rows_equal_per_call_loop(self, spec, pq_calls, t, x, h_list, m):
        rows, _, _ = small_interval_checks(t, x, h_list, m, spec)
        # the targets' pearcey_pq, then three tabulations per h
        assert len(pq_calls) == 1 + 3 * len(h_list)
        assert np.array_equal(rows, self._per_call_rows(t, x, h_list, m, spec))

    def test_dE_u_coefficient(self, spec):
        rows, tgt_dE, tgt_dt = small_interval_checks(0.0, 0.0, (1e-2, 5e-3, 2.5e-3),
                                                     m=32, spec=spec)
        errs = [abs(c1 - tgt_dE) / max(abs(tgt_dE), 1e-12) for (_, c1, _) in rows]
        assert errs[-1] < 1e-3
        assert errs[-1] <= errs[0] + 1e-12

    def test_du_dt_coefficient(self, spec):
        rows, _, tgt_dt = small_interval_checks(1.0, 0.5, (1e-2, 5e-3), m=32, spec=spec)
        # the h-linear correction dies under Richardson extrapolation
        c2 = 2 * rows[1][2] - rows[0][2]
        assert abs(c2 - tgt_dt) / abs(tgt_dt) < 1e-3

    def test_h_to_zero_limit(self, spec):
        rows, _, _ = small_interval_checks(0.0, 0.0, (1e-2, 1e-3), m=24, spec=spec)
        # dE u itself (coefficient times h) vanishes linearly with h
        assert abs(rows[1][1] * 1e-3) < abs(rows[0][1] * 1e-2)


class TestWronskian:
    def test_nonzero_at_origin(self, spec):
        assert abs(wronskian_coefficient(0.0, 0.0, spec=spec)) > 1e-6

    def test_continuity_in_t(self, spec):
        w0 = wronskian_coefficient(0.0, 0.0, spec=spec)
        w1 = wronskian_coefficient(0.01, 0.0, spec=spec)
        assert abs(w1 - w0) < 0.1 * abs(w0)

    def test_small_interval_wronskian_scaling(self, spec):
        """{dE dt u, dE^2 u}_{dE} over E = [x, x+h] at x = t = 0 equals
        (h^2/2) times the coefficient 2pq(pq)'' - 3(p'q')'(p'q''-p''q')
        within 10% at h = 1e-2 (endpoint-formula based differencing)."""
        t, x, h = 0.0, 0.0, 1e-2
        m = 48

        def dE_u(eps, tt=t):
            rd = resolvent_quantities(tt, IntervalUnion((x + eps, x + h + eps)), m, spec)
            signs = np.array([-1.0, 1.0])
            return float(np.sum(signs * rd.p_hat_end * rd.q_hat_end))

        de, dt = 1.2e-3, 1.2e-3

        def A(eps):  # dE dt u
            return (dE_u(eps, t + dt) - dE_u(eps, t - dt)) / (2 * dt)

        def B(eps):  # dE^2 u
            return (dE_u(eps + de) - dE_u(eps - de)) / (2 * de)

        def dE_u_plain(eps):
            return dE_u(eps, t)

        A0, B0 = A(0.0), B(0.0)
        dA = (A(de) - A(-de)) / (2 * de)
        dB = (B(de) - B(-de)) / (2 * de)
        wron = dA * B0 - A0 * dB
        target = 0.5 * h * h * wronskian_coefficient(t, x, spec=spec)
        assert wron == pytest.approx(target, rel=0.10)
