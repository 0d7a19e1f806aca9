import math

import numpy as np
import pytest
import scipy.integrate as si

from conftest import random_abp
from pearceylab import spectral_curve
from pearceylab.spectral_curve import (TargetConfig, branch_points,
                                       density_csv_lines, discriminant_quartic,
                                       find_cusp, solve_stieltjes,
                                       support_endpoints, sweep_density,
                                       time_from_rescaled, track_merges)

SYM = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=1.0 / 3.0)


def _cubic_density(cfg, s):
    """Im of the upper root of the branch equation at real s over pi, from
    numpy's roots of (g - s) prod(g - bt_i) + sum_i eps_i prod_{j!=i}(g - bt_j)."""
    poly = np.polynomial.polynomial
    bt = cfg.scaled_targets()
    coeffs = poly.polymul(poly.polyfromroots(bt), [-s, 1.0])
    for i, e in enumerate(cfg.fractions):
        coeffs[:cfg.k] += e * poly.polyfromroots(bt[:i] + bt[i + 1:])
    return max(np.roots(coeffs[::-1]).imag.max(), 0.0) / math.pi


def _cauchy_branch(cfg, z):
    """Stieltjes branch z - int rho(s)/(z - s) ds off the support of a
    two-target problem, by quad over each support interval."""
    bt = cfg.scaled_targets()
    sup = support_endpoints(bt[1], bt[0], cfg.fractions[1])
    return z - sum(si.quad(lambda s: _cubic_density(cfg, s) / (z - s), a_, b_,
                           limit=200, epsabs=1e-13, epsrel=1e-13)[0]
                   for a_, b_ in sup.intervals)


class TestTargetConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TargetConfig(targets=(1.0, -1.0), fractions=(0.5, 0.5), time=0.5)
        with pytest.raises(ValueError):
            TargetConfig(targets=(-1.0, 1.0), fractions=(0.6, 0.5), time=0.5)
        with pytest.raises(ValueError):
            TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=1.0)

    def test_scaled_targets(self):
        bt = SYM.scaled_targets()
        assert bt[1] == pytest.approx(math.sqrt(2 * (1 / 3) / (2 / 3)))


class TestSolveStieltjes:
    def test_cusp_point_density_zero(self):
        s = solve_stieltjes(SYM, 0.0)
        assert s.density == pytest.approx(0.0, abs=1e-7)

    def test_large_z_expansion(self):
        s = solve_stieltjes(SYM, 10.0)
        assert abs(s.g - (10.0 - 1.0 / 10.0)) < 1e-2
        assert s.density == 0.0

    def test_density_nonnegative_and_im_relation(self):
        for z in (-2.0, -0.5, 0.3, 1.8):
            s = solve_stieltjes(SYM, z)
            assert s.density >= 0.0
            assert s.density == pytest.approx(abs(s.g.imag) / math.pi, abs=1e-14)

    def test_density_zero_iff_all_roots_real(self):
        # inside support: complex branch; in the middle gap at t=0.6: real
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.6)
        assert solve_stieltjes(cfg, 1.5).density > 0.01
        assert solve_stieltjes(cfg, 0.0).density == 0.0

    def test_branch_continuity_sweep(self):
        zg = np.linspace(-4.0, 4.0, 401)
        out = sweep_density(SYM, zg)
        g = np.array([s.g for s in out])
        jumps = np.abs(np.diff(g))
        # away from the support endpoints the implicit-function derivative is
        # O(1); near them g has a square-root edge, so exclude neighborhoods
        bt = SYM.scaled_targets()
        sup = support_endpoints(bt[1], bt[0], 0.5)
        mids = 0.5 * (zg[1:] + zg[:-1])
        mask = np.ones_like(mids, dtype=bool)
        for e in sup.endpoints:
            mask &= np.abs(mids - e) > 0.15
        dz = zg[1] - zg[0]
        assert jumps[mask].max() < 4.0 * dz

    @pytest.mark.parametrize("targets, fractions, t, z", [
        ((-1.0, 1.0), (0.5, 0.5), 0.5, 0.0),          # gap; the branch is 0
        ((0.0, 1.0), (8 / 9, 1 / 9), 0.7, 1.89),      # gap; about 1.404
        ((-1.0, 1.0), (0.5, 0.5), 0.2, 3.0),          # right of the support; about 2.581
    ])
    def test_branch_off_support(self, targets, fractions, t, z):
        cfg = TargetConfig(targets=targets, fractions=fractions, time=t)
        want = _cauchy_branch(cfg, z)
        assert solve_stieltjes(cfg, z).g == pytest.approx(want, abs=1e-10)
        # a sweep that reaches z after crossing the support from the left
        assert sweep_density(cfg, np.linspace(-3.5, z, 71))[-1].g == pytest.approx(
            want, abs=1e-10)

    @pytest.mark.parametrize("targets, fractions, t, grid", [
        ((-1.0, 1.0), (0.5, 0.5), 0.2, np.linspace(-3.5, 3.5, 141)),     # one interval
        ((-1.0, 1.0), (0.5, 0.5), 0.5, np.linspace(-3.5, 3.5, 141)),     # two intervals
        ((0.0, 1.0), (8 / 9, 1 / 9), 0.7, np.linspace(-3.0, 4.0, 141)),  # asymmetric gap
    ])
    def test_sweep_matches_pointwise(self, targets, fractions, t, grid):
        cfg = TargetConfig(targets=targets, fractions=fractions, time=t)
        sweep = np.array([s.g for s in sweep_density(cfg, grid)])
        point = np.array([solve_stieltjes(cfg, z).g for z in grid])
        assert np.abs(sweep - point).max() <= 1e-12
        if targets == (-1.0, 1.0):
            mirror = np.array([s.g for s in sweep_density(cfg, -grid)])
            assert np.abs(mirror + np.conj(sweep)).max() <= 1e-12

    def test_cached_rows_are_read_only(self):
        rows = spectral_curve._stieltjes_rows(SYM)
        assert spectral_curve._stieltjes_rows(SYM) is rows
        for arr in rows:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("targets, fractions, t", [
        ((-1.0, 1.0), (0.5, 0.5), 0.5),
        ((0.0, 1.0), (8 / 9, 1 / 9), 0.7),
        ((-1.0, 0.0, 2.0), (0.2, 0.3, 0.5), 0.3),
    ])
    def test_sweep_matches_uncached_rows(self, monkeypatch, targets, fractions, t):
        cfg = TargetConfig(targets=targets, fractions=fractions, time=t)
        grid = np.linspace(-4.0, 5.0, 91)
        cached = [s.g for s in sweep_density(cfg, grid)]
        monkeypatch.setattr(spectral_curve, "_stieltjes_rows",
                            spectral_curve._stieltjes_rows.__wrapped__)
        assert np.array_equal(cached, [s.g for s in sweep_density(cfg, grid)])

    def test_sweep_checks_every_point(self, monkeypatch):
        with pytest.raises(ValueError, match="finite"):
            sweep_density(SYM, [0.0, 1.0, float("nan"), 2.0])
        monkeypatch.setattr(spectral_curve, "_polish", lambda rows, roots, iters: roots + 1e-3)
        for call in (lambda: sweep_density(SYM, [0.0, 1.0]),
                     lambda: solve_stieltjes(SYM, 1.0)):
            with pytest.raises(ArithmeticError, match="residual"):
                call()


class TestSupportEndpoints:
    def test_symmetric_critical_double_root(self):
        sup = support_endpoints(1.0, -1.0, 0.5)
        uniq = np.unique(np.round(sup.endpoints, 7))
        assert len(uniq) == 3  # middle root double
        assert sup.endpoints[1] == pytest.approx(0.0, abs=1e-7)
        assert sup.endpoints[-1] == pytest.approx(3 * math.sqrt(3) / 2, abs=1e-10)

    def test_q2_double_root_closed_form(self):
        # alpha = sqrt(3), beta = 0 at the q=2 cusp; z0 = beta + (2q-1)/r
        crit = find_cusp(1.0, 0.0, 1.0 / 9.0)
        sup = support_endpoints(crit.alpha, crit.beta, crit.p)
        z0 = crit.beta + (2 * crit.q - 1) / crit.r
        assert z0 == pytest.approx(math.sqrt(3), abs=1e-12)
        assert min(abs(e - z0) for e in sup.endpoints) < 1e-8
        gaps = np.diff(sup.endpoints)
        assert gaps.min() < 1e-7  # double root detected

    def test_supercritical_two_intervals_vs_brute_force(self):
        # alpha - beta > (q+1)/r gives four distinct real roots
        q = 1.0
        r = math.sqrt(q * q - q + 1)
        sep = (q + 1) / r + 0.8
        al, be = sep / 2, -sep / 2
        sup = support_endpoints(al, be, 0.5)
        assert len(set(np.round(sup.endpoints, 9))) == 4
        assert len(sup.intervals) == 2
        # brute force: sign changes of Delta_1 on a fine grid
        coeffs = discriminant_quartic(al, be, 0.5)
        zg = np.linspace(sup.endpoints[0] - 1, sup.endpoints[-1] + 1, 20001)
        vals = np.polynomial.polynomial.polyval(zg, coeffs)
        changes = np.sum(np.diff(np.sign(vals)) != 0)
        assert changes == 4

    def test_density_vanishes_at_endpoints(self):
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.6)
        bt = cfg.scaled_targets()
        sup = support_endpoints(bt[1], bt[0], 0.5)
        for e in set(np.round(sup.endpoints, 12)):
            assert solve_stieltjes(cfg, float(e)).density < 1e-4


class TestFindCusp:
    def test_symmetric_exact(self):
        c = find_cusp(1.0, -1.0, 0.5)
        assert c.q == pytest.approx(1.0, abs=1e-14)
        assert c.t0 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert c.x0 == pytest.approx(0.0, abs=1e-14)
        assert c.c0 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert c.mu == pytest.approx(1.0, abs=1e-14)
        assert c.bigA == pytest.approx(0.0, abs=1e-14)
        assert c.u0 == c.z0 == 0.0

    def test_q2_closed_forms(self):
        c = find_cusp(1.0, 0.0, 1.0 / 9.0)
        assert c.q == pytest.approx(2.0, abs=1e-12)
        assert c.r == pytest.approx(math.sqrt(3), abs=1e-12)
        assert c.t0 == pytest.approx(0.6, abs=1e-12)
        assert c.x0 == pytest.approx(0.6, abs=1e-12)
        assert c.c0 == pytest.approx(math.sqrt(3) / 5, abs=1e-12)
        assert c.mu == pytest.approx(1.5 ** 0.25, abs=1e-12)
        assert c.u0 == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        assert c.z0 == pytest.approx(math.sqrt(3), abs=1e-12)
        assert c.bigA == pytest.approx(math.sqrt(2) / 10, abs=1e-12)

    def test_identity_u0_product(self, rng):
        for _ in range(100):
            a, b, p = random_abp(rng)
            c = find_cusp(a, b, p)
            assert (c.u0 - c.alpha) * (c.u0 - c.beta) == pytest.approx(
                -1.0 / c.mu**4, abs=1e-12)

    def test_identity_suite_random(self, rng):
        for _ in range(100):
            a, b, p = random_abp(rng)
            c = find_cusp(a, b, p)
            assert c.r == pytest.approx(math.sqrt(c.q**2 - c.q + 1), abs=1e-12)
            assert c.p == pytest.approx(1 / (1 + c.q**3), abs=1e-12)
            assert c.alpha - c.beta == pytest.approx((c.q + 1) / c.r, abs=1e-11)
            assert c.u0 == pytest.approx((c.z0 + c.alpha + c.beta) / 3, abs=1e-11)
            assert c.beta < c.u0 < c.alpha
            assert c.z0 - c.u0 == pytest.approx((c.q - 1) / c.r, abs=1e-11)
            assert c.u0 - c.alpha == pytest.approx(-1 / c.r, abs=1e-11)
            assert c.u0 - c.beta == pytest.approx(c.q / c.r, abs=1e-11)
            assert c.x0 == pytest.approx(c.z0 * c.c0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            find_cusp(1.0, 1.0, 0.5)

    def test_brute_force_double_root_over_t(self, rng):
        """(t0, z0) from closed forms against a double-root search over t.

        The z-discriminant of Delta_1 has a THIRD-order zero in t at the cusp
        (exactly the degeneracy behind the 3/2 opening law), so a raw sign
        bisection on it saturates near 1e-5 in float64.  Stage 1 locates t0
        that way; stage 2 refines through the simple-zero factor
        (rho-1)^3 - 27 p(1-p) rho of the discriminant, rho = (alpha-beta)^2,
        reaching 1e-8 against the closed forms.  10 random instances.
        """
        for _ in range(10):
            a, b, p = random_abp(rng, 0.1, 0.9)
            crit = find_cusp(a, b, p)

            def quartic_roots(t):
                phi = math.sqrt(2 * t / (1 - t))
                coeffs = discriminant_quartic(a * phi, b * phi, p)
                return np.polynomial.polynomial.polyroots(coeffs)

            def disc_sign(t):
                r = quartic_roots(t)
                val = 1.0 + 0.0j
                for i in range(len(r)):
                    for j in range(i + 1, len(r)):
                        val *= (r[i] - r[j]) ** 2
                return 1.0 if val.real > 0 else -1.0

            lo, hi = crit.t0 * 0.5, min(0.999, crit.t0 * 1.2)
            assert disc_sign(lo) < 0 < disc_sign(hi)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if disc_sign(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            t_coarse = hi
            assert t_coarse == pytest.approx(crit.t0, abs=2e-4)

            def inner_factor(t):
                rho = (a - b) ** 2 * 2 * t / (1 - t)
                return (rho - 1) ** 3 - 27 * p * (1 - p) * rho

            lo, hi = t_coarse - 5e-4, t_coarse + 5e-4
            assert inner_factor(lo) < 0 < inner_factor(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if inner_factor(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            assert hi == pytest.approx(crit.t0, abs=1e-8)
            reals = np.sort(quartic_roots(hi).real)
            gaps = np.diff(reals)
            i = int(np.argmin(gaps))
            z_pair = 0.5 * (reals[i] + reals[i + 1])
            assert z_pair == pytest.approx(crit.z0, abs=1e-5)


class TestBranchPoints:
    def test_single_target(self):
        cfg = TargetConfig(targets=(0.0,), fractions=(1.0,), time=0.5)
        roots, flags = branch_points(cfg, 1.0)
        assert sorted(np.round(roots.real, 12)) == [-1.0, 1.0]
        assert flags.all()

    def test_large_T_clusters(self):
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.5)
        roots, flags = branch_points(cfg, 400.0)
        assert flags.all()
        assert np.all(np.abs(np.abs(roots.real) - 1.0) < 0.1)

    def test_complex_below_merge(self):
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.5)
        roots, flags = branch_points(cfg, 0.5)   # below T_c = 1
        assert flags.sum() == 2
        cplx = roots[~flags]
        assert len(cplx) == 2
        assert cplx[0] == pytest.approx(np.conj(cplx[1]), abs=1e-10)

    def test_degree(self):
        cfg = TargetConfig(targets=(-2.0, 0.0, 2.0), fractions=(1 / 3, 1 / 3, 1 / 3),
                           time=0.5)
        roots, _ = branch_points(cfg, 2.0)
        assert len(roots) == 6


class TestTrackMerges:
    def test_symmetric_single_merge(self):
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.5)
        events = track_merges(cfg, 0.3, 3.0, 40)
        assert len(events) == 1
        ev = events[0]
        assert ev.z_c == pytest.approx(0.0, abs=1e-10)
        assert ev.T_c == pytest.approx(1.0, abs=1e-10)
        assert time_from_rescaled(ev.T_c) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_merge_maps_to_cusp_time(self, rng):
        for _ in range(5):
            a, b, p = random_abp(rng, 0.15, 0.85)
            cfg = TargetConfig(targets=(b, a), fractions=(1 - p, p), time=0.5)
            crit = find_cusp(a, b, p)
            Tc_expect = 2 * crit.t0 / (1 - crit.t0)
            events = track_merges(cfg, Tc_expect * 0.4, Tc_expect * 2.5, 60)
            assert len(events) == 1
            assert time_from_rescaled(events[0].T_c) == pytest.approx(crit.t0, abs=1e-8)

    def test_three_targets_two_merges(self):
        cfg = TargetConfig(targets=(-2.0, 0.0, 2.0), fractions=(1 / 3, 1 / 3, 1 / 3),
                           time=0.5)
        events = track_merges(cfg, 0.05, 4.0, 80)
        assert len(events) == 2
        for ev in events:
            assert ev.right_index == ev.left_index + 1

    def test_no_high_multiplicity(self):
        # crossing events always drop the real count by exactly 2 per pair
        cfg = TargetConfig(targets=(-2.0, 0.0, 2.0), fractions=(1 / 3, 1 / 3, 1 / 3),
                           time=0.5)
        counts = []
        for T in np.linspace(4.0, 0.05, 50):
            _, flags = branch_points(cfg, T)
            counts.append(int(flags.sum()))
        drops = -np.diff(counts)
        assert set(drops[drops > 0]) <= {2, 4}


def test_mass_normalization():
    for t in (0.2, 1.0 / 3.0, 0.6):
        cfg = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=t)
        bt = cfg.scaled_targets()
        sup = support_endpoints(bt[1], bt[0], 0.5)
        total = 0.0
        for (a_, b_) in sup.intervals:
            total += si.quad(lambda z: solve_stieltjes(cfg, z).density, a_, b_,
                             limit=200, epsabs=1e-9)[0]
        assert total == pytest.approx(1.0, abs=1e-6)


def test_mass_normalization_three_targets():
    # the middle interval of the support sits between two poles of the
    # equation, where a real root lies at every z
    cfg = TargetConfig(targets=(-2.0, 0.0, 2.0), fractions=(1 / 3, 1 / 3, 1 / 3), time=0.5)
    total = si.quad(lambda z: solve_stieltjes(cfg, z).density, -6.0, 6.0,
                    limit=400, epsabs=1e-9)[0]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_csv_format():
    lines = density_csv_lines(sweep_density(SYM, [0.0, 1.0]))
    assert lines[0] == "z,re_g,im_g,density"
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 4
