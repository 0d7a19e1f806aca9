import math

import numpy as np
import pytest
import scipy.integrate as si

from pearceylab._quad import QuadratureError
from pearceylab.fredholm import (IntervalUnion, NystromGrid, airy_gap_on_ray,
                                 gap_csv_lines,
                                 endpoint_identity_check, gap_probability, multitime_gap,
                                 pearcey_kernel_handle, resolvent_quantities)
from pearceylab.kernels import pearcey_kernel_matrix, pearcey_pq


class TestIntervalUnion:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalUnion((1.0, 0.0))
        with pytest.raises(ValueError):
            IntervalUnion((0.0, 1.0, 2.0))
        assert IntervalUnion(()).empty

    def test_union_merges(self):
        u = IntervalUnion((0.0, 1.0)).union(IntervalUnion((0.5, 2.0)))
        assert u.endpoints == (0.0, 2.0)
        v = IntervalUnion((0.0, 1.0)).union(IntervalUnion((2.0, 3.0)))
        assert v.endpoints == (0.0, 1.0, 2.0, 3.0)

    def test_grid_weights(self):
        g = NystromGrid.build(IntervalUnion((-1.0, 1.0, 2.0, 4.0)), 12)
        assert g.nodes.size == 24
        assert np.sum(g.weights) == pytest.approx(4.0, rel=1e-13)
        assert (g.weights > 0).all()


class TestGapProbability:
    def test_empty_set(self, spec):
        res = gap_probability(pearcey_kernel_handle(0.0, spec), IntervalUnion(()))
        assert res.value == 1.0 and res.log_value == 0.0

    def test_two_term_series_oracle(self, spec):
        h = 1e-3
        E = IntervalUnion((-h, h))
        res = gap_probability(pearcey_kernel_handle(0.0, spec), E, 16)
        diag = lambda x: pearcey_kernel_matrix(0.0, np.array([x]), np.array([x]), spec)[0, 0]
        trace = si.quad(diag, -h, h, epsabs=1e-14)[0]
        assert abs(res.value - (1.0 - trace)) < 1e-9

    def test_value_in_unit_interval_and_monotone(self, spec):
        hdl = pearcey_kernel_handle(0.0, spec)
        small = gap_probability(hdl, IntervalUnion((-1.0, 1.0)), 32)
        large = gap_probability(hdl, IntervalUnion((-2.0, 2.0)), 32)
        assert 0.0 < large.value < small.value <= 1.0

    def test_refinement_invariant(self, spec):
        hdl = pearcey_kernel_handle(0.5, spec)
        res = gap_probability(hdl, IntervalUnion((-3.0, -1.0, 0.5, 4.0)), 40)
        assert res.error_estimate < 1e-8

    def test_airy_tracy_widom(self):
        # self-refinement oracle plus monotonicity of the distribution
        res1 = airy_gap_on_ray(-1.0, 40)
        res2 = airy_gap_on_ray(-1.0, 80)
        assert abs(res1.value - res2.value) < 1e-9
        assert 0 < airy_gap_on_ray(-3.0).value < airy_gap_on_ray(-1.0).value \
            < airy_gap_on_ray(1.0).value < 1.0 + 1e-12

    def test_small_gap_log_refinement_gate(self):
        # values agree to 3e-9 at m=16 but their logs differ by 0.30
        for s, m in ((-6.0, 16), (-10.0, 24)):
            with pytest.raises(QuadratureError, match="log disagreement") as info:
                airy_gap_on_ray(s, m)
            assert info.value.achieved > 1e-6
        res = airy_gap_on_ray(-6.0, 48)
        assert 1.0e-8 < res.value < 1.1e-8


class TestMultitimeGap:
    def test_single_time_reduces(self, spec):
        E = IntervalUnion((-1.0, 1.0))
        a = multitime_gap([0.0], [E], 24, spec)
        b = gap_probability(pearcey_kernel_handle(0.0, spec), E, 24)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_duplicated_times_reduce(self, spec):
        E = IntervalUnion((-1.0, 1.0))
        a = multitime_gap([0.0, 0.0], [E, E], 24, spec)
        b = gap_probability(pearcey_kernel_handle(0.0, spec), E, 24)
        assert a.value == pytest.approx(b.value, abs=1e-8)

    def test_two_time_monotone_in_sets(self, spec):
        E1 = IntervalUnion((-1.0, 1.0))
        E2 = IntervalUnion((-2.0, 2.0))
        a = multitime_gap([-1.0, 1.0], [E1, E1], 20, spec)
        b = multitime_gap([-1.0, 1.0], [E2, E2], 20, spec)
        assert 0.0 < b.value < a.value < 1.0

    def test_unsorted_times_rejected(self, spec):
        with pytest.raises(ValueError):
            multitime_gap([1.0, -1.0], [IntervalUnion((-1.0, 1.0))] * 2, 16, spec)


class TestResolvent:
    def test_small_interval_phat_is_p(self, spec):
        # the resolvent correction is K(0,0)*|E|*q at first order, about
        # 6e-6 per 1e-4 of width, so width 1e-5 sits inside the tolerance
        E = IntervalUnion((0.0, 1e-5))
        rd = resolvent_quantities(0.0, E, 16, spec)
        f = pearcey_pq(0.0, 0.0, spec)
        assert rd.p_hat_end[0] == pytest.approx(f.p.real, abs=1e-6)
        assert rd.q_hat_end[0] == pytest.approx(f.q.real, abs=1e-6)

    def test_resolvent_identity(self, spec):
        rd = resolvent_quantities(0.0, IntervalUnion((-1.0, 1.0)), 40, spec)
        KW = pearcey_kernel_matrix(0.0, rd.grid.nodes, rd.grid.nodes, spec) \
            * rd.grid.weights[None, :]
        n = len(rd.grid.nodes)
        resid = np.abs((np.eye(n) - KW) @ (np.eye(n) + rd.R * rd.grid.weights[None, :])
                       - np.eye(n)).max()
        assert resid < 1e-10

    def test_u_equals_inner_product(self, spec):
        rd = resolvent_quantities(0.0, IntervalUnion((-1.0, 1.0)), 40, spec)
        P0 = rd.p_hat
        _, Q = np.zeros(0), None
        from pearceylab.kernels import pq_tables
        _, Qt = pq_tables(0.0, rd.grid.nodes, spec)
        assert rd.u == pytest.approx(np.sum(rd.grid.weights * P0 * Qt[0]), abs=1e-13)


class TestEndpointIdentity:
    def test_kernel_factorization(self, spec):
        # (d/dx + d/dy) K(x,y) = p(x) q(y), the differential identity behind
        # the endpoint formulas
        from pearceylab.kernels import pearcey_kernel
        h = 1e-4
        for (t, x, y) in ((0.0, 0.7, -0.4), (1.0, 0.2, 0.5)):
            dsum = (pearcey_kernel(t, t, x + h, y + h, spec)
                    - pearcey_kernel(t, t, x - h, y - h, spec)) / (2 * h)
            fx = pearcey_pq(t, x, spec)
            fy = pearcey_pq(t, y, spec)
            assert dsum == pytest.approx(fx.p.real * fy.q.real, abs=1e-6)

    def test_identity_magnitude_and_orientation(self, spec):
        """d2/dE2 log det = -sum_k (-1)^k phat qhat(a_k) in this package's
        orientation (see the ledger note on the endpoint-sign convention);
        dE u carries the + sign, both at 1e-5 relative accuracy."""
        lhs, rhs, du = endpoint_identity_check(0.0, IntervalUnion((-1.0, 1.0)), m=64, spec=spec)
        assert lhs == pytest.approx(-rhs, rel=1e-5)
        assert du == pytest.approx(rhs, rel=1e-5)

    def test_identity_second_anchor(self, spec):
        lhs, rhs, du = endpoint_identity_check(1.0, IntervalUnion((0.0, 2.0)), m=64, spec=spec)
        assert lhs == pytest.approx(-rhs, rel=1e-5)
        assert du == pytest.approx(rhs, rel=1e-5)


def test_gap_csv_format(spec):
    E = IntervalUnion((-1.0, 1.0))
    res = gap_probability(pearcey_kernel_handle(0.0, spec), E, 16)
    lines = gap_csv_lines([(0.0, E, res)])
    assert lines[0] == "t,y1,y2,log_gap,err"
    assert len(lines[1].split(",")) == 5
