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

A bridge bundle is built in two passes over the same random stream: the
first sums every Gaussian increment into B(1), the second accumulates B(t)
step by step and diagonalizes B(t) - t B(1) + t T at each stored time.  No
snapshot of B is kept, so a bundle needs O(n^2) memory whatever the number
of steps, and the paths are those of the one-pass construction bit for bit.

All randomness is drawn from numpy SeedSequence substreams keyed by
(seed, sample_index), so parallel generation is deterministic and
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import thread_map
from .spectral_curve import TargetConfig, find_cusp, sweep_density

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


def group_sizes(n, fractions):
    """Largest-remainder rounding of eps_i * n to integers summing to n."""
    raw = np.asarray(fractions) * n
    base = np.floor(raw).astype(int)
    rem = n - base.sum()
    order = np.argsort(-(raw - base))
    base[order[:rem]] += 1
    if base.sum() != n or (base <= 0).any():
        raise ValueError("fractions incompatible with n")
    return tuple(int(v) for v in base)


def _rng(seed, index=0):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def _gue_parts(n, rng):
    """The normals behind one _gue_like draw, in drawing order: the real and
    imaginary parts of the upper triangle (variance 1/(2n) each; only the
    strict upper triangle is used) and the diagonal (variance 1/n)."""
    x = rng.normal(0.0, math.sqrt(0.5 / n), (n, n))
    y = rng.normal(0.0, math.sqrt(0.5 / n), (n, n))
    d = rng.normal(0.0, 1.0 / math.sqrt(n), n)
    return x, y, d


def _gue_like(n, rng):
    """Hermitian H with the exp(-(n/2) Tr H^2) convention: diagonal variance
    1/n, off-diagonal re/im variance 1/(2n) each."""
    x, y, d = _gue_parts(n, rng)
    iu = np.triu_indices(n, 1)
    H = np.zeros((n, n), dtype=complex)
    H[iu] = x[iu] + 1j * y[iu]
    H = H + H.conj().T
    H[np.arange(n), np.arange(n)] = d
    return H


def source_matrix_diag(n, config: TargetConfig, t=None):
    bt = config.scaled_targets(t)
    sizes = group_sizes(n, config.fractions)
    return np.repeat(bt, sizes)


def sample_spectrum(n: int, config: TargetConfig, seed: int,
                    index: int = 0) -> SpectrumSample:
    """Eigenvalues of A_t + H, deterministic in (seed, index)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = _rng(seed, index)
    A = np.diag(source_matrix_diag(n, config).astype(complex))
    H = _gue_like(n, rng)
    eig = np.linalg.eigvalsh(A + H)
    return SpectrumSample(n=n, eigenvalues=np.sort(eig), seed=seed, config=config)


def sample_spectra(n, config, seed, count, threads=1):
    return thread_map(lambda i: sample_spectrum(n, config, seed, index=i),
                      range(count), threads)


def predicted_density_fn(config: TargetConfig, z_lo, z_hi, num=600):
    """Equilibrium density interpolant from the spectral curve sweep."""
    zg = np.linspace(z_lo, z_hi, num)
    dens = np.array([s.density for s in sweep_density(config, zg)])
    return zg, dens


def density_compare(samples, predicted) -> float:
    """Two-sided KS distance between pooled eigenvalues and a predicted
    density.  `predicted` is either a callable density or a (grid, values)
    pair; the CDF is its normalized cumulative integral."""
    if len(samples) < 50:
        raise ValueError("need >= 50 samples")
    pooled = np.sort(np.concatenate([s.eigenvalues for s in samples]))
    if callable(predicted):
        zg = np.linspace(pooled[0] - 0.5, pooled[-1] + 0.5, 2001)
        pdf = np.array([predicted(z) for z in zg])
    else:
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
                        index: int = 0, t_max: float = None) -> PathBundle:
    """Eigenvalue trajectories of a Hermitian Brownian bridge pinned at the
    scaled target matrix diag(b_i sqrt(n)).

    The bridge B(t) - t B(1) + t T is built from entrywise Gaussian
    increments with the variance-t/2 convention, in two passes over the same
    (seed, index) stream: the first sums every increment into B(1), the
    second accumulates B(t) and diagonalizes at each stored time, so memory
    is O(n^2) whatever the number of steps.  Eigenvalue ordering is asserted
    at every stored time.
    """
    if steps < 10:
        raise ValueError("steps must be >= 10")
    t_max = t_max if t_max is not None else steps / (steps + 1.0)
    times = np.linspace(0.0, t_max, steps + 1)[1:]
    T = np.repeat(np.asarray(config.targets) * math.sqrt(n),
                  group_sizes(n, config.fractions))
    incs = np.diff(np.concatenate([[0.0], times, [1.0]]))

    def running_sums(dts):
        # sums of the increments _gue_like(n, rng) * sqrt(dt / 2) * sqrt(n)
        # (_gue_like has Tr-normalized variance 1/n; this rescales it to
        # variance dt/2), kept as the real parts that _gue_parts draws: real
        # scalings act on real and imaginary parts alone, so these are the
        # sums of the complex increments to the last bit
        rng = _rng(seed, index)
        sums = (np.zeros((n, n)), np.zeros((n, n)), np.zeros(n))
        for dt in dts:
            for acc, part in zip(sums, _gue_parts(n, rng)):
                part *= math.sqrt(dt / 2.0)
                part *= math.sqrt(n)
                acc += part
            yield sums

    for X1, Y1, D1 in running_sums(incs):
        pass    # B(1): the sum of all steps + 1 increments
    M = np.empty((n, n), dtype=complex)
    paths = np.empty((n, len(times)))
    for j, (t, (X, Y, D)) in enumerate(zip(times, running_sums(incs[:-1]))):
        # eigvalsh reads only the lower triangle of B(t) - t B(1) + t T, whose
        # entries are conj(X + iY) - t conj(X1 + iY1) from the upper-triangle
        # sums: M holds them transposed, and M.T is diagonalized
        np.subtract(X, t * X1, out=M.real)
        np.subtract(t * Y1, Y, out=M.imag)
        np.fill_diagonal(M, (D - t * D1) + t * T)
        eig = np.linalg.eigvalsh(M.T)
        if np.any(np.diff(eig) <= 0):
            raise ArithmeticError(
                f"eigenvalue ordering violated at t={t}: refine the time step")
        paths[:, j] = eig
    return PathBundle(times=times, paths=paths, seed=seed)


def sample_bundles(n, config, steps, seed, count, t_max=None, threads=1):
    return thread_map(
        lambda i: sample_bridge_paths(n, config, steps, seed, index=i, t_max=t_max),
        range(count), threads)


def endpoint_fractions(bundle: PathBundle, config: TargetConfig, n: int):
    """Fraction of paths ending (at the last stored time) nearest each target."""
    last = bundle.paths[:, -1]
    targets = np.asarray(config.targets) * math.sqrt(n)
    dist = np.abs(last[:, None] - targets[None, :])
    owner = np.argmin(dist, axis=1)
    return np.array([(owner == i).mean() for i in range(len(targets))])


def fit_cusp_exponent(bundles, a: float, b: float, p: float, n: int,
                      t_lo_off: float = 0.02, t_hi_off: float = 0.15,
                      quantile: float = 0.025):
    """Log-log slope of the inner-gap half width against t - t0.

    The two path groups never cross, so the boundary paths are identified by
    index: the gap is between path n2-1 (top of the lower group) and path n2
    (bottom of the upper group).  Per-time extreme quantiles over the bundle
    ensemble give the cloud boundary; the fit runs over t0+t_lo_off..t0+t_hi_off.
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
