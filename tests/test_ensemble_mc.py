import math

import numpy as np
import pytest

from pearceylab.ensemble_mc import (_gue_parts, _rng, density_compare,
                                    endpoint_fractions, fit_cusp_exponent,
                                    group_sizes,
                                    paths_csv_lines, predicted_density_fn,
                                    sample_bridge_paths, sample_bundles,
                                    sample_spectra, sample_spectrum,
                                    source_matrix_diag,
                                    spectra_csv_lines)
from pearceylab.spectral_curve import TargetConfig, find_cusp, support_endpoints

SYM02 = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.2)


def _gue_like(n, rng):
    """Hermitian H with the exp(-(n/2) Tr H^2) convention, built whole from
    one _gue_parts draw: the oracle for the samplers, which fill only the
    triangle eigvalsh reads."""
    x, y, d = _gue_parts(n, rng)
    iu = np.triu_indices(n, 1)
    H = np.zeros((n, n), dtype=complex)
    H[iu] = x + 1j * y
    H = H + H.conj().T
    H[np.arange(n), np.arange(n)] = d
    return H


class TestSampling:
    def test_determinism(self):
        s1 = sample_spectrum(50, SYM02, 7)
        s2 = sample_spectrum(50, SYM02, 7)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        s3 = sample_spectrum(50, SYM02, 8)
        assert not np.array_equal(s1.eigenvalues, s3.eigenvalues)

    @pytest.mark.parametrize("n, index", [(4, 0), (7, 3), (60, 1)])
    def test_matches_full_matrix(self, n, index):
        # the sampler fills only the triangle eigvalsh reads; the whole
        # Hermitian A_t + H gives the same eigenvalues to the last bit
        cfg = TargetConfig(targets=(0.0, 1.0), fractions=(0.75, 0.25), time=0.5)
        A = np.diag(source_matrix_diag(n, cfg).astype(complex))
        full = np.linalg.eigvalsh(A + _gue_like(n, _rng(11, index)))
        assert np.array_equal(sample_spectrum(n, cfg, 11, index=index).eigenvalues, full)

    def test_substreams_order_independent(self):
        a = sample_spectrum(20, SYM02, 5, index=3).eigenvalues
        _ = sample_spectrum(20, SYM02, 5, index=1)
        b = sample_spectrum(20, SYM02, 5, index=3).eigenvalues
        assert np.array_equal(a, b)

    def test_group_sizes(self):
        assert group_sizes(9, (1 / 3, 2 / 3)) == (3, 6)
        assert sum(group_sizes(64, (1 / 9, 8 / 9))) == 64

    def test_second_moment_oracle(self):
        # E Tr M^2 = n for A ~ 0 under the e^{-(n/2)Tr H^2} convention
        cfg = TargetConfig(targets=(-1e-9, 1e-9), fractions=(0.5, 0.5), time=0.2)
        tot = [np.sum(sample_spectrum(2, cfg, 1, index=i).eigenvalues ** 2)
               for i in range(20000)]
        mean, se = np.mean(tot), np.std(tot) / math.sqrt(len(tot))
        assert abs(mean - 2.0) < 3 * se

    def test_histogram_modality_vs_support(self):
        # below t0 a single interval, above it a gap with no eigenvalues
        lo = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.15)
        hi = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=0.6)
        pooled_lo = np.concatenate([s.eigenvalues for s in sample_spectra(100, lo, 3, 40)])
        pooled_hi = np.concatenate([s.eigenvalues for s in sample_spectra(100, hi, 3, 40)])
        bt = hi.scaled_targets()
        sup_hi = support_endpoints(bt[1], bt[0], 0.5)
        gap = (sup_hi.intervals[0][1], sup_hi.intervals[1][0])
        mid = (gap[0] + 0.15, gap[1] - 0.15)
        frac_hi = np.mean((pooled_hi > mid[0]) & (pooled_hi < mid[1]))
        frac_lo = np.mean((pooled_lo > mid[0]) & (pooled_lo < mid[1]))
        assert frac_hi < 2e-3
        assert frac_lo > 0.05


class TestDensityCompare:
    def test_ks_against_spectral_curve(self):
        samples = sample_spectra(200, SYM02, 11, 200)
        pooled = np.concatenate([s.eigenvalues for s in samples])
        grid = predicted_density_fn(SYM02, pooled.min() - 0.4, pooled.max() + 0.4)
        assert density_compare(samples, grid) < 0.05

    def test_ks_asymmetric_config(self):
        # a = 1, b = 0, p = 1/9 at t = 3/5 (the asymmetric cusp time)
        cfg = TargetConfig(targets=(0.0, 1.0), fractions=(8 / 9, 1 / 9), time=0.6)
        samples = sample_spectra(200, cfg, 5, 200)
        pooled = np.concatenate([s.eigenvalues for s in samples])
        grid = predicted_density_fn(cfg, pooled.min() - 0.4, pooled.max() + 0.4)
        assert density_compare(samples, grid) < 0.05

    def test_negative_control_shift(self):
        samples = sample_spectra(200, SYM02, 11, 100)
        pooled = np.concatenate([s.eigenvalues for s in samples])
        zg, pdf = predicted_density_fn(SYM02, pooled.min() - 0.6, pooled.max() + 1.6)
        ks_ok = density_compare(samples, (zg, pdf))
        ks_half = density_compare(samples, (zg + 0.5, pdf))
        ks_one = density_compare(samples, (zg + 1.0, pdf))
        # a 0.5 shift moves KS to the 0.1 scale (max density ~ 0.25), a full
        # unit shift beyond 0.2; either way the control is two orders above
        # the matched fit
        assert ks_half > 0.1 and ks_half > 50 * ks_ok
        assert ks_one > 0.2

    def test_self_consistency_near_zero(self):
        samples = sample_spectra(120, SYM02, 13, 60)
        pooled = np.sort(np.concatenate([s.eigenvalues for s in samples]))
        # empirical-vs-own-histogram: KS small
        zg = np.linspace(pooled[0] - 0.3, pooled[-1] + 0.3, 400)
        pdf = np.histogram(pooled, bins=200, range=(zg[0], zg[-1]), density=True)
        centers = 0.5 * (pdf[1][1:] + pdf[1][:-1])
        ks = density_compare(samples, (centers, pdf[0]))
        assert ks < 0.02

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            density_compare(sample_spectra(10, SYM02, 1, 5), (np.array([0.0, 1.0]),
                                                              np.array([1.0, 1.0])))


class TestBridgePaths:
    def test_non_intersection_and_shape(self):
        b = sample_bridge_paths(30, SYM02, 20, 3)
        assert b.paths.shape == (30, 20)
        assert (np.diff(b.paths, axis=0) > 0).all()

    def test_marginal_matches_spectrum(self):
        n, steps, draws = 60, 20, 60
        b0 = sample_bridge_paths(n, SYM02, steps, 3, t_max=0.95)
        j = np.argmin(np.abs(b0.times - 0.3))
        t = float(b0.times[j])
        cfg_t = TargetConfig(targets=(-1.0, 1.0), fractions=(0.5, 0.5), time=t)
        c = math.sqrt(t * (1 - t) / 2)
        cloud_paths = np.concatenate(
            [sample_bridge_paths(n, SYM02, steps, 3, index=i, t_max=0.95).paths[:, j]
             for i in range(draws)])
        cloud_spec = np.concatenate(
            [sample_spectrum(n, cfg_t, 77, index=i).eigenvalues * math.sqrt(n) * c
             for i in range(draws)])
        d1, d2 = np.sort(cloud_paths), np.sort(cloud_spec)
        grid = np.linspace(min(d1[0], d2[0]), max(d1[-1], d2[-1]), 801)
        e1 = np.searchsorted(d1, grid) / len(d1)
        e2 = np.searchsorted(d2, grid) / len(d2)
        assert np.abs(e1 - e2).max() < 0.05

    def test_endpoint_fractions(self):
        p = 1.0 / 9.0
        cfg = TargetConfig(targets=(0.0, 1.0), fractions=(1 - p, p), time=0.5)
        n = 81
        b = sample_bridge_paths(n, cfg, 25, 5, t_max=0.97)
        fr = endpoint_fractions(b, cfg, n)
        assert abs(fr[1] - p) <= 3 * 2 / math.sqrt(n)
        assert fr.sum() == pytest.approx(1.0)

    def test_bridge_moments_match_exact_law(self):
        # the joint-in-time law, whatever the construction: M(t) = W(t) + t T
        # with W a Hermitian Brownian bridge (diagonal Cov s(1-t)/2, s <= t),
        # so E Tr M(t) = t Tr T, Cov(Tr M(s), Tr M(t)) = (n/2) s(1-t) and
        # E Tr M(t)^2 = t(1-t) n^2/2 + t^2 Tr T^2; each checked by z-score
        n, steps, draws = 3, 10, 4000
        cfg = TargetConfig(targets=(0.0, 1.0), fractions=(2 / 3, 1 / 3), time=0.5)
        T = np.repeat(np.asarray(cfg.targets) * math.sqrt(n), group_sizes(n, cfg.fractions))
        bundles = [sample_bridge_paths(n, cfg, steps, 17, index=i, t_max=0.9)
                   for i in range(draws)]
        t = bundles[0].times
        paths = np.stack([b.paths for b in bundles])          # (draws, n, times)
        tr = paths.sum(axis=1) - t * T.sum()                  # centred Tr M(t)
        s_ix, t_ix = np.triu_indices(len(t))
        stats = [(tr, 0.0),
                 (tr[:, s_ix] * tr[:, t_ix], n / 2 * t[s_ix] * (1 - t[t_ix])),
                 ((paths ** 2).sum(axis=1), t * (1 - t) * n**2 / 2 + t**2 * (T**2).sum())]
        z = np.concatenate([(x.mean(axis=0) - want) / (x.std(axis=0) / math.sqrt(draws))
                            for x, want in stats])
        assert np.abs(z).max() < 5

    @pytest.mark.slow
    def test_cusp_exponent_machinery(self):
        # light version of criterion 10's 1.5 +- 0.2 gate: 12 bundles, not
        # 28, through the default quartile fit over t0+0.08..t0+0.30 (1.507
        # here; the former 2.5% quantile over t0+0.02..t0+0.15 read 1.627)
        a, b, p, n = 1.0, 0.0, 1.0 / 9.0, 400
        cfg = TargetConfig(targets=(b, a), fractions=(1 - p, p), time=0.5)
        bundles = sample_bundles(n, cfg, 60, 42, 12, t_max=0.97)
        slope, ts, w = fit_cusp_exponent(bundles, a, b, p, n)
        assert (np.diff(w) > 0).all()
        assert abs(slope - 1.5) < 0.2

    @staticmethod
    def _dense_paths(n, config, steps, seed, index=0, t_max=None):
        """The one-pass bridge recursion on whole Hermitian matrices: the
        oracle for the sampler, which keeps only the packed triangle and
        must reproduce it to the last bit."""
        rng = _rng(seed, index)
        t_max = t_max if t_max is not None else steps / (steps + 1.0)
        times = np.linspace(0.0, t_max, steps + 1)[1:]
        T = np.diag(np.repeat(np.asarray(config.targets) * math.sqrt(n),
                              group_sizes(n, config.fractions)).astype(complex))
        W = np.zeros((n, n), dtype=complex)
        eigs = []
        for t_prev, t in zip(np.concatenate([[0.0], times[:-1]]), times):
            a = (1.0 - t) / (1.0 - t_prev)
            c = math.sqrt((t - t_prev) * a / 2.0) * math.sqrt(n)
            W = a * W + c * _gue_like(n, rng)
            eigs.append(np.linalg.eigvalsh(W + t * T))
        return times, np.stack(eigs, axis=1)

    @pytest.mark.parametrize("n, config, steps, seed, index, t_max", [
        (12, SYM02, 15, 3, 0, None),
        (20, TargetConfig(targets=(0.0, 1.0), fractions=(0.75, 0.25), time=0.5),
         12, 5, 2, 0.95)])
    def test_matches_dense_recursion(self, n, config, steps, seed, index, t_max):
        b = sample_bridge_paths(n, config, steps, seed, index=index, t_max=t_max)
        times, paths = self._dense_paths(n, config, steps, seed, index, t_max)
        assert np.array_equal(b.times, times)
        assert np.array_equal(b.paths, paths)

    def test_memory_independent_of_steps(self):
        # one n x n complex snapshot per step would triple the peak here
        import tracemalloc
        peaks = []
        for steps in (20, 80):
            tracemalloc.start()
            try:
                sample_bridge_paths(160, SYM02, steps, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]


def test_csv_formats():
    b = sample_bridge_paths(12, SYM02, 12, 0)
    lines = paths_csv_lines(b)
    assert lines[0] == "time,path_index,position"
    assert len(lines) == 1 + 12 * 12
    ss = sample_spectra(5, SYM02, 0, 2)
    lines = spectra_csv_lines(ss)
    assert lines[0] == "sample_index,eigenvalue_index,value"
    assert len(lines) == 1 + 10
