import math

import numpy as np
import pytest
import scipy.integrate as si

from pearceylab import fredholm
from pearceylab._quad import QuadratureError
from pearceylab.fredholm import (IntervalUnion, NystromGrid, _block_logdet, _nystrom_logdet,
                                 _resolvents, airy_gap_on_ray, endpoint_identity_check, gap_probability, multitime_gap,
                                 pearcey_kernel_handle, resolvent_quantities)
from pearceylab.kernels import (_pearcey_kernel_from_tables, airy_kernel_matrix,
                                pearcey_kernel_grid, pearcey_kernel_matrix, pearcey_pq,
                                pq_tables)

RESOLVENT_CASES = [(0.0, (-1.0, 1.0)), (-0.5, (-1.5, -0.2, 0.3, 1.1))]
FIELDS = ("p_hat", "q_hat", "p_hat_end", "q_hat_end", "u", "R", "condition", "log_det")


def reference_resolvent(t, E, m, spec):
    """The single-set resolvent body before the stacked path: grid and
    endpoints tabulated apart, one 2-d solve; returns the ResolventData
    fields it computed, with the log det its determinant check took."""
    grid = NystromGrid.build(E, m)
    x = grid.nodes
    w = grid.weights
    P, Q = pq_tables(t, x, spec)
    K = _pearcey_kernel_from_tables(t, x, P, x, Q)
    log_det = _nystrom_logdet(K, w)
    if math.exp(log_det) <= 1e-12:
        raise ArithmeticError("det(I - K_E) too small for resolvent quantities")
    KW = K * w[None, :]
    A = np.eye(len(x)) - KW
    cond = float(np.linalg.cond(A))
    p_vec, q_vec = P[0], Q[0]
    R = np.linalg.solve(A, K)
    p_hat = p_vec + R @ (w * p_vec)
    q_hat = q_vec + R.T @ (w * q_vec)
    resid = np.abs((np.eye(len(x)) - KW) @ (np.eye(len(x)) + R * w[None, :])
                   - np.eye(len(x))).max()
    if resid > 1e-10:
        raise ArithmeticError(f"resolvent identity residual {resid:.2e} exceeds 1e-10")
    ends = np.asarray(E.endpoints)
    Pe, Qe = pq_tables(t, ends, spec)
    K_end_rows = _pearcey_kernel_from_tables(t, ends, Pe, x, Q)
    p_hat_end = Pe[0] + K_end_rows @ (w * p_hat)
    K_end_cols = _pearcey_kernel_from_tables(t, x, P, ends, Qe)
    q_hat_end = Qe[0] + K_end_cols.T @ (w * q_hat)
    u = float(np.sum(w * p_hat * q_vec))
    return dict(p_hat=p_hat, q_hat=q_hat, p_hat_end=p_hat_end, q_hat_end=q_hat_end,
                u=u, R=R, condition=cond, log_det=log_det)


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

    def test_order_below_8_rejected_by_every_entry(self):
        # the one order check sits in NystromGrid.build
        E = IntervalUnion((-1.0, 1.0))
        calls = [lambda: NystromGrid.build(E, 7),
                 lambda: gap_probability(pearcey_kernel_handle(0.0), E, 4),
                 lambda: multitime_gap((-1.0, 1.0), [E, E], 4),
                 lambda: resolvent_quantities(0.0, E, 4),
                 lambda: endpoint_identity_check(0.0, E, 4)]
        for call in calls:
            with pytest.raises(ValueError, match="m must be >= 8"):
                call()


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

    def test_one_kernel_call(self, spec, pq_calls):
        # the order-m and order-2m matrices come from one handle call, so one
        # p/q tabulation
        calls = []

        def handle(xs, ys):
            calls.append(len(xs))
            return pearcey_kernel_matrix(0.3, xs, ys, spec)

        gap_probability(handle, IntervalUnion((-1.5, -0.2, 0.3, 1.1)), 40)
        assert calls == [2 * (40 + 80)]
        assert len(pq_calls) == 1

    @pytest.mark.parametrize("sets, block", [
        ([IntervalUnion((-1.0, 1.0))],
         lambda i, j, xs, ys: pearcey_kernel_matrix(0.0, xs, ys)),
        ([IntervalUnion((-1.5, -0.2, 0.3, 1.1))],
         lambda i, j, xs, ys: pearcey_kernel_matrix(-0.5, xs, ys)),
        ([IntervalUnion((-2.0, 6.0))], lambda i, j, xs, ys: airy_kernel_matrix(xs, ys)),
        ([IntervalUnion((-1.0, 0.5)), IntervalUnion(()), IntervalUnion((-0.5, 1.0))],
         lambda i, j, xs, ys: (pearcey_kernel_matrix(i - 1.0, xs, ys) if i == j
                               else pearcey_kernel_grid(i - 1.0, j - 1.0, xs, ys))),
    ])
    def test_orders_match_separate_determinants(self, sets, block):
        # both orders from one block call per pair of sets match a call per order
        both = _block_logdet(block, sets, (24, 48))
        apart = [_block_logdet(block, sets, (n,))[0] for n in (24, 48)]
        assert np.abs(np.subtract(both, apart)).max() <= 1e-13

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

    def test_one_block_call_per_pair(self, spec, monkeypatch, pq_calls):
        # two times: two equal-time blocks (one p/q tabulation each) and two
        # cross-time contractions, each covering both orders
        calls = []
        for name in ("pearcey_kernel_matrix", "pearcey_kernel_grid"):
            fn = getattr(fredholm, name)
            monkeypatch.setattr(fredholm, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        E = IntervalUnion((-1.0, 1.0))
        multitime_gap([-1.0, 1.0], [E, E], 20, spec)
        assert sorted(calls) == ["pearcey_kernel_grid"] * 2 + ["pearcey_kernel_matrix"] * 2
        assert len(pq_calls) == 2

    def test_unsorted_times_rejected(self, spec):
        with pytest.raises(ValueError):
            multitime_gap([1.0, -1.0], [IntervalUnion((-1.0, 1.0))] * 2, 16, spec)

    @pytest.mark.parametrize("times,count", [([0.0], 2), ([-1.0, 0.0, 1.0], 1)])
    def test_one_set_per_time(self, spec, times, count):
        # the unmatched times or sets were dropped, giving a one-set gap
        with pytest.raises(ValueError, match="one set per time"):
            multitime_gap(times, [IntervalUnion((-1.0, 1.0))] * count, 16, spec)

    @pytest.mark.parametrize("times", [[math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0]])
    def test_non_finite_times_rejected(self, spec, pq_calls, times):
        # a NaN time passed the ascending check and failed as a non-positive
        # determinant
        with pytest.raises(ValueError, match="finite"):
            multitime_gap(times, [IntervalUnion((-1.0, 1.0))] * 2, 16, spec)
        assert not pq_calls

    def test_more_than_four_distinct_times_rejected(self, spec, pq_calls):
        E = IntervalUnion((-1.0, 1.0))
        with pytest.raises(ValueError, match="limited to 4 distinct times"):
            multitime_gap([-1.0, -0.5, 0.0, 0.5, 1.0], [E] * 5, 16, spec)
        assert not pq_calls

    def test_all_empty_sets(self, spec, pq_calls):
        empty = IntervalUnion(())
        res = multitime_gap([-1.0, 0.0, 1.0], [empty] * 3, 16, spec)
        assert (res.value, res.log_value, res.error_estimate) == (1.0, 0.0, 0.0)
        assert not pq_calls


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

    @pytest.mark.parametrize("t, ep", [(0.0, (-1.0, 1.0)), (-0.5, (-1.5, -0.2, 0.3, 1.1))])
    def test_transformed_functions_solve_their_systems(self, spec, t, ep):
        # p_hat and q_hat come from R; they must solve (I - K W) p_hat = p
        # and (I - K^T W) q_hat = q
        rd = resolvent_quantities(t, IntervalUnion(ep), 40, spec)
        x, w = rd.grid.nodes, rd.grid.weights
        K = pearcey_kernel_matrix(t, x, x, spec)
        P, Q = pq_tables(t, x, spec)
        assert np.abs(rd.p_hat - K @ (w * rd.p_hat) - P[0]).max() < 1e-12
        assert np.abs(rd.q_hat - K.T @ (w * rd.q_hat) - Q[0]).max() < 1e-12

    def test_u_equals_inner_product(self, spec):
        rd = resolvent_quantities(0.0, IntervalUnion((-1.0, 1.0)), 40, spec)
        _, Qt = pq_tables(0.0, rd.grid.nodes, spec)
        assert rd.u == pytest.approx(np.sum(rd.grid.weights * rd.p_hat * Qt[0]), abs=1e-13)

    @pytest.mark.parametrize("t, ep", RESOLVENT_CASES)
    def test_equals_single_set_reference(self, spec, t, ep):
        # the one-set case of the stacked path is the separate-tabulation,
        # 2-d body bit for bit
        E = IntervalUnion(ep)
        rd = resolvent_quantities(t, E, 40, spec)
        ref = reference_resolvent(t, E, 40, spec)
        for field in FIELDS:
            assert np.array_equal(getattr(rd, field), ref[field]), field

    # at t = 10 the stack's largest |x| calls for 15 p/q panels where four of
    # the five sets alone take 14: those agree within the p/q tolerance (the
    # largest deviation, in R, is 1.9e-9), the others to rounding
    @pytest.mark.parametrize("t, ep, tol", [(*case, 1e-13) for case in RESOLVENT_CASES]
                             + [(10.0, (12.8, 13.7), 1e-8)])
    def test_stacked_sets_match_one_set_calls(self, spec, t, ep, tol):
        E = IntervalUnion(ep)
        sets = [E.shifted(k * 0.05) for k in (-2, -1, 0, 1, 2)]
        stacked = _resolvents(t, sets, 40, spec)
        single = [resolvent_quantities(t, S, 40, spec) for S in sets]
        for a, b in zip(stacked, single):
            assert np.array_equal(a.grid.nodes, b.grid.nodes)
        for field in FIELDS:
            got = np.array([getattr(rd, field) for rd in stacked])
            want = np.array([getattr(rd, field) for rd in single])
            # relative to the five sets' largest value: on a symmetric E, u is
            # rounding residue
            assert np.abs(got - want).max() <= tol * np.abs(want).max(), field

    def test_one_tabulation_per_call(self, spec, pq_calls):
        resolvent_quantities(0.3, IntervalUnion((-0.8, 0.9)), 48, spec)
        assert len(pq_calls) == 1

    def test_refinement_gate(self, spec):
        # at t = -10 the order-40 and order-80 log dets on (-1, 1) differ by 6e-6
        E = IntervalUnion((-1.0, 1.0))
        with pytest.raises(QuadratureError, match="log disagreement") as info:
            resolvent_quantities(-10.0, E, 40, spec)
        assert info.value.achieved > 1e-6
        with pytest.raises(QuadratureError, match="log disagreement"):
            endpoint_identity_check(-10.0, E, 64, spec)

    @pytest.mark.parametrize("t", [-9.0, 0.0, 1.0])
    def test_gate_leaves_values(self, spec, t):
        # the gate's order-2m nodes share the tabulation but not the values:
        # each set's quantities are the gate-free one-set body's bit for bit,
        # and so are the identity's lhs and du; its rhs, read from the centre
        # of the five-set stack, rounds differently.  At t = -9 the identity's
        # second-difference check raises (its gap is 1.83 |lhs|)
        E = IntervalUnion((-1.0, 1.0))
        rd, ref = resolvent_quantities(t, E, 40, spec), reference_resolvent(t, E, 40, spec)
        for field in FIELDS:
            assert np.array_equal(getattr(rd, field), ref[field]), field
        if t == -9.0:
            with pytest.raises(QuadratureError, match="second differences"):
                endpoint_identity_check(t, E, 64, spec)
            return
        h = 1e-3
        refs = [reference_resolvent(t, E.shifted(k * h), 64, spec) for k in (-2, -1, 0, 1, 2)]
        v = [r["log_det"] for r in refs]
        lhs, rhs, du = endpoint_identity_check(t, E, 64, spec)
        assert lhs == (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        assert du == (refs[3]["u"] - refs[1]["u"]) / (2 * h)
        assert rhs == pytest.approx(refs[2]["q_hat_end"] @ (refs[2]["p_hat_end"] * [-1.0, 1.0]),
                                    rel=1e-7)


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

    @pytest.mark.parametrize("t, ep", [(0.3, (-1.0, 0.8)), (-0.5, (-1.5, -0.2, 0.3, 1.1))])
    def test_shifted_log_gaps_match_block_logdet(self, spec, t, ep):
        # the identity's five shifted sets are one _resolvents call; each
        # set's log det must equal its own block determinant
        E, h, m = IntervalUnion(ep), 1e-3, 64
        shifts = [E.shifted(k * h) for k in (-2, -1, 0, 1, 2)]
        rds = _resolvents(t, shifts, m, spec)
        assert len(rds) == 5
        for S, rd in zip(shifts, rds):
            one, = _block_logdet(lambda i, j, xs, ys: pearcey_kernel_matrix(t, xs, ys, spec),
                                 [S], (m,))
            assert rd.log_det == pytest.approx(one, rel=1e-14, abs=0.0)

    def test_one_tabulation(self, spec, pq_calls):
        endpoint_identity_check(0.3, IntervalUnion((-0.8, 0.9)), 64, spec)
        assert len(pq_calls) == 1

    @pytest.mark.parametrize("t, resolved", [(0.0, True), (1.0, True), (8.0, False),
                                             (10.0, False), (-8.0, False), (-9.0, False)])
    def test_second_difference_gap(self, spec, t, resolved):
        # at large t the log gaps are near zero (-6.4e-9 at t = 8) and the
        # 5-point second difference is rounding magnified by 1/h^2: it read
        # -4.74e-8 against rhs 4.92e-8 at t = 8, and -1.72e-9 against 6.91e-12
        # at t = 10; at t = -8 and -9 it magnifies the p/q tables' error.  The
        # 3-point difference of the inner three log gaps is 7.4e-3 (t = 8),
        # 0.23 (t = 10), 8.4e-4 (t = -8) and 1.83 (t = -9) of lhs away, which
        # raises, and 6e-8 at t = 0, where the sides are returned unchanged
        E, h = IntervalUnion((-1.0, 1.0)), 1e-3
        rds = _resolvents(t, [E.shifted(k * h) for k in (-2, -1, 0, 1, 2)], 64, spec)
        v = [rd.log_det for rd in rds]
        lhs = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        gap = abs(lhs - (v[1] - 2 * v[2] + v[3]) / (h * h))
        if resolved:
            assert gap <= 1e-4 * abs(lhs)
            rhs = float(np.sum([-1.0, 1.0] * rds[2].p_hat_end * rds[2].q_hat_end))
            assert endpoint_identity_check(t, E, 64, spec) == (
                lhs, rhs, (rds[3].u - rds[1].u) / (2 * h))
        else:
            with pytest.raises(QuadratureError, match="second differences") as info:
                endpoint_identity_check(t, E, 64, spec)
            assert info.value.achieved == gap > 1e-4 * abs(lhs)

    def test_identity_second_anchor(self, spec):
        lhs, rhs, du = endpoint_identity_check(1.0, IntervalUnion((0.0, 2.0)), m=64, spec=spec)
        assert lhs == pytest.approx(-rhs, rel=1e-5)
        assert du == pytest.approx(rhs, rel=1e-5)
