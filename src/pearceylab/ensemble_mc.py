"""Monte Carlo cross-validation: Hermitian ensembles with external source and
non-intersecting bridge paths.

Variance conventions
--------------------
Matrix samples follow the weight exp(-(n/2) Tr (M - A_t)^2): the Gaussian part
H has real diagonal entries of variance 1/n and complex off-diagonal entries
whose real and imaginary parts each have variance 1/(2n).  A_t is diagonal
with entries b_i sqrt(2t/(1-t)) repeated n_i times (largest-remainder rounding
of eps_i n).

Bridge paths use the transition density p(t; x, y) = (pi t)^(-1/2)
exp(-(x-y)^2/t) (variance t/2), i.e. entrywise Brownian bridges with diagonal
variance t/2; at any fixed time the eigenvalue law then matches sqrt(n) c(t)
times the spectrum of A_t + H, which is the marginal-consistency invariant
tested against sample_spectrum.

A bridge bundle is built in one pass over the stored times by the exact
sequential Brownian-bridge recursion (Glasserman, Monte Carlo Methods in
Financial Engineering, 2003, sec. 3.1): the bridge W(t) = B(t) - t B(1) is
carried directly, and W(t) + t T is diagonalized at each stored time.  Neither
B(1) nor any snapshot is kept; the state is the packed triangle of W, so a
bundle needs O(n^2) memory whatever the number of steps.

All randomness is drawn from numpy SeedSequence substreams keyed by
(seed, sample_index), so parallel generation is deterministic and
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral_curve import TargetConfig, find_cusp, group_sizes, sweep_density

__all__ = [
    "SpectrumSample", "PathBundle", "group_sizes", "sample_spectrum",
    "sample_spectra", "density_compare", "predicted_density_fn",
    "sample_bridge_paths", "sample_bundles", "endpoint_fractions",
    "fit_cusp_exponent", "paths_csv_lines", "spectra_csv_lines",
]


@dataclass(frozen=True)
class SpectrumSample:
    n: int
    eigenvalues: np.ndarray
    seed: int
    config: TargetConfig


@dataclass(frozen=True)
class PathBundle:
    """Non-intersecting eigenvalue trajectories on a time grid; paths has
    shape (n_paths, n_times), increasing along axis 0 at every time."""

    times: np.ndarray
    paths: np.ndarray
    seed: int


def _rng(seed, index=0):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def _gue_parts(n, rng):
    """The normals behind one GUE draw with the exp(-(n/2) Tr H^2)
    convention, from one fill of n^2 standard normals: the real and
    imaginary parts of the strict upper triangle in np.triu_indices(n, 1)
    order (variance 1/(2n) each) and the diagonal (variance 1/n)."""
    m = n * (n - 1) // 2
    z = rng.standard_normal(n * n)
    z[:2 * m] *= math.sqrt(0.5 / n)
    z[2 * m:] /= math.sqrt(n)
    return z[:m], z[m:2 * m], z[2 * m:]


@lru_cache(maxsize=16)
def _upper_flat(n):
    """Flat indices of the strict upper triangle of an n x n array, in
    np.triu_indices(n, 1) order.  Read-only: cached across calls."""
    i, j = np.triu_indices(n, 1)
    flat = i * n + j
    flat.flags.writeable = False
    return flat


def _hermitian_eigvalsh(M, x, y, diag):
    """Eigenvalues of the Hermitian matrix with strict upper triangle x + iy
    (packed as _gue_parts draws it) and real diagonal `diag`, using the n x n
    complex buffer M.  eigvalsh reads only the lower triangle, whose entries
    are conj(x + iy): M holds them transposed, and M.T is diagonalized."""
    flat = M.reshape(-1)
    idx = _upper_flat(len(diag))
    flat.real[idx] = x
    flat.imag[idx] = -y
    np.fill_diagonal(M, diag)
    return np.linalg.eigvalsh(M.T)


def source_matrix_diag(n, config: TargetConfig):
    return np.repeat(config.scaled_targets(), group_sizes(n, config.fractions))


def sample_spectrum(n: int, config: TargetConfig, seed: int,
                    index: int = 0) -> SpectrumSample:
    """Eigenvalues of A_t + H, deterministic in (seed, index)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x, y, d = _gue_parts(n, _rng(seed, index))
    eig = _hermitian_eigvalsh(np.empty((n, n), dtype=complex), x, y,
                              source_matrix_diag(n, config) + d)
    return SpectrumSample(n=n, eigenvalues=eig, seed=seed, config=config)


def _draws(draw, count, threads):
    """draw(index) for index = 0 .. count - 1 on up to `threads` threads, in
    index order, so the output is thread-count independent; an empty request
    (count < 1) raises ValueError."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if threads <= 1 or count == 1:
        return [draw(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(draw, range(count)))


def sample_spectra(n, config, seed, count, threads=1):
    return _draws(lambda i: sample_spectrum(n, config, seed, index=i), count, threads)


def predicted_density_fn(config: TargetConfig, z_lo, z_hi):
    """Equilibrium density interpolant from the spectral curve sweep."""
    zg = np.linspace(z_lo, z_hi, 600)
    dens = np.array([s.density for s in sweep_density(config, zg)])
    return zg, dens


def density_compare(samples, predicted) -> float:
    """Two-sided KS distance between pooled eigenvalues and a predicted
    density given as a (grid, values) pair; the CDF is its normalized
    cumulative integral."""
    if len(samples) < 50:
        raise ValueError("need >= 50 samples")
    pooled = np.sort(np.concatenate([s.eigenvalues for s in samples]))
    zg, pdf = predicted
    zg = np.asarray(zg, dtype=float)
    pdf = np.asarray(pdf, dtype=float)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(zg))])
    if cdf[-1] <= 0:
        raise ValueError("predicted density integrates to zero")
    cdf = cdf / cdf[-1]
    Fp = np.interp(pooled, zg, cdf, left=0.0, right=1.0)
    m = len(pooled)
    emp_hi = np.arange(1, m + 1) / m
    emp_lo = np.arange(0, m) / m
    return float(max(np.abs(emp_hi - Fp).max(), np.abs(emp_lo - Fp).max()))


def sample_bridge_paths(n: int, config: TargetConfig, steps: int, seed: int,
                        index: int = 0, t_max: float | None = None) -> PathBundle:
    """Eigenvalue trajectories of a Hermitian Brownian bridge pinned at the
    scaled target matrix diag(b_i sqrt(n)).

    One pass over the stored times carries the bridge W(t) = B(t) - t B(1)
    of the variance-t/2 convention directly: from t' to t,

        W(t) = a W(t') + sqrt((t - t') a / 2) sqrt(n) G,   a = (1-t)/(1-t'),

    with G one _gue_parts draw from the (seed, index) stream.  Every real
    coordinate of W is then a Brownian bridge, Cov(s, t) = sigma^2 s (1 - t)
    for s <= t, with sigma^2 = 1/2 on the diagonal and 1/4 for the real and
    imaginary parts off it: the law of B(t) - t B(1).  W(t) + t T is
    diagonalized at each stored time; eigvalsh returns ascending values, and
    an exact tie between two of them raises.
    The state is W's packed triangle, so memory is O(n^2) whatever the
    number of steps.
    """
    if steps < 10:
        raise ValueError("steps must be >= 10")
    t_max = steps / (steps + 1.0) if t_max is None else t_max
    if not 0.0 < t_max < 1.0:
        raise ValueError(f"t_max must be finite with 0 < t_max < 1, got {t_max}")
    times = np.linspace(0.0, t_max, steps + 1)[1:]
    T = np.repeat(np.asarray(config.targets) * math.sqrt(n),
                  group_sizes(n, config.fractions))
    rng = _rng(seed, index)
    m = n * (n - 1) // 2
    W = (np.zeros(m), np.zeros(m), np.zeros(n))
    M = np.empty((n, n), dtype=complex)
    paths = np.empty((n, len(times)))
    t_prev = 0.0
    for j, t in enumerate(times):
        a = (1.0 - t) / (1.0 - t_prev)
        c = math.sqrt((t - t_prev) * a / 2.0) * math.sqrt(n)
        for w, g in zip(W, _gue_parts(n, rng)):
            w *= a
            g *= c
            w += g
        eig = _hermitian_eigvalsh(M, W[0], W[1], W[2] + t * T)
        if np.any(np.diff(eig) <= 0):
            raise ArithmeticError(f"exact eigenvalue tie at t={t}")
        paths[:, j] = eig
        t_prev = t
    return PathBundle(times=times, paths=paths, seed=seed)


def sample_bundles(n, config, steps, seed, count, t_max=None, threads=1):
    return _draws(lambda i: sample_bridge_paths(n, config, steps, seed, index=i, t_max=t_max),
                  count, threads)


def endpoint_fractions(bundle: PathBundle, config: TargetConfig, n: int):
    """Fraction of paths ending (at the last stored time) nearest each target."""
    last = bundle.paths[:, -1]
    targets = np.asarray(config.targets) * math.sqrt(n)
    dist = np.abs(last[:, None] - targets[None, :])
    owner = np.argmin(dist, axis=1)
    return np.array([(owner == i).mean() for i in range(len(targets))])


def fit_cusp_exponent(bundles, a: float, b: float, p: float, n: int,
                      t_lo_off: float = 0.08, t_hi_off: float = 0.30,
                      quantile: float = 0.25):
    """Log-log slope of the inner-gap half width against t - t0.

    The two path groups never cross, so the boundary paths are identified by
    index: the gap is between path n2-1 (top of the lower group) and path n2
    (bottom of the upper group).  Per-time quantiles over the bundle ensemble
    (by default the quartile, the upper group's lower quartile and the lower
    group's upper one) give the cloud boundary; the fit runs over
    t0+t_lo_off..t0+t_hi_off.  The default window starts past the Pearcey
    zone (t - t0 of order n^-1/2), where the 3/2 law holds; an extreme
    quantile nearer t0 is not resolved by tens of bundles, and its fit
    scatters with the seed.
    """
    crit = find_cusp(a, b, p)
    t0 = crit.t0
    n2 = group_sizes(n, (1.0 - p, p))[0]
    times = bundles[0].times
    sel = (times >= t0 + t_lo_off) & (times <= t0 + t_hi_off)
    if sel.sum() < 4:
        raise ValueError("too few time points in the fit window")
    upper_edge = np.quantile(np.stack([bb.paths[n2, :] for bb in bundles]),
                             quantile, axis=0)
    lower_edge = np.quantile(np.stack([bb.paths[n2 - 1, :] for bb in bundles]),
                             1.0 - quantile, axis=0)
    width = np.maximum(upper_edge - lower_edge, 1e-12)[sel]
    dt = times[sel] - t0
    slope = np.polyfit(np.log(dt), np.log(width), 1)[0]
    return float(slope), times[sel], width


def paths_csv_lines(bundle: PathBundle):
    lines = ["time,path_index,position"]
    for j, t in enumerate(bundle.times):
        for i in range(bundle.paths.shape[0]):
            lines.append(f"{t:.17g},{i},{bundle.paths[i, j]:.17g}")
    return lines


def spectra_csv_lines(samples):
    lines = ["sample_index,eigenvalue_index,value"]
    for si, s in enumerate(samples):
        for ei, v in enumerate(s.eigenvalues):
            lines.append(f"{si},{ei},{v:.17g}")
    return lines
