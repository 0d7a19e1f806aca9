"""Equilibrium spectral curve of non-intersecting Brownian bridges.

Conventions
-----------
A bridge problem is specified by raw target points b_1 < ... < b_k, fractions
eps_i (sum 1) of paths forced to each target, and a time t in (0, 1).  At time
t the particle positions, divided by sqrt(n)*c(t) with c(t) = sqrt(t(1-t)/2),
follow the equilibrium measure of a Hermitian ensemble with external source;
its Stieltjes branch g(z) solves

    g - z + sum_i eps_i / (g - bt_i) = 0,     bt_i = b_i * sqrt(2t/(1-t)),

and the density is |Im g(z)| / pi.  For two targets the equation is a cubic in
g whose discriminant is a quartic in z with leading coefficient (alpha-beta)^2;
its real roots are the support endpoints.  All root finding goes through
companion-matrix eigenvalues polished by Newton steps.

The physical branch g(z) = z - int rho(s)/(z - s) ds is analytic off the
support, and for Im z > 0 it is the only root of the equation in the upper
half-plane: no root crosses the real axis while Im z > 0, and for large z
the other k roots sit near the bt_i, below it.  On the real axis g is the
limit of that root as z + i0 comes down onto z, which the roots at z itself
identify, so no continuation path is walked: on the support it is the +Im
member of the complex pair; off it, the one real root that moves into the
upper half-plane with z, i.e. the one with f'(g) > 0, f(g) = g + sum_i
eps_i/(g - bt_i).  One batched solve serves any number of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TargetConfig", "DensitySample", "SupportSet", "CriticalData", "MergeEvent",
    "group_sizes", "solve_stieltjes", "sweep_density", "support_endpoints", "find_cusp",
    "branch_points", "track_merges", "time_from_rescaled",
    "density_csv_lines",
]

_REAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class TargetConfig:
    """Bridge problem instance: targets b_1 < ... < b_k, fractions, time."""

    targets: tuple
    fractions: tuple
    time: float

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(float(b) for b in self.targets))
        object.__setattr__(self, "fractions", tuple(float(e) for e in self.fractions))
        if len(self.targets) != len(self.fractions) or not self.targets:
            raise ValueError("targets and fractions must be non-empty, same length")
        if any(b2 <= b1 for b1, b2 in zip(self.targets, self.targets[1:])):
            raise ValueError("targets must be strictly increasing")
        if any(e <= 0 for e in self.fractions):
            raise ValueError("fractions must be strictly positive")
        if abs(sum(self.fractions) - 1.0) > 1e-12:
            raise ValueError("fractions must sum to 1 within 1e-12")
        if not 0.0 < self.time < 1.0:
            raise ValueError("time must lie in (0, 1)")

    @property
    def k(self):
        return len(self.targets)

    def scaled_targets(self, t=None):
        """Matrix-coordinate source eigenvalues bt_i = b_i * sqrt(2t/(1-t))."""
        t = self.time if t is None else t
        s = math.sqrt(2.0 * t / (1.0 - t))
        return tuple(b * s for b in self.targets)


def group_sizes(n, fractions):
    """Largest-remainder rounding of eps_i * n to integers summing to n: the
    path counts per target that the finite-n kernels and the Monte Carlo
    ensembles both use.  Raises ValueError when a group would be empty."""
    raw = np.asarray(fractions) * n
    base = np.floor(raw).astype(int)
    rem = n - base.sum()
    order = np.argsort(-(raw - base))
    base[order[:rem]] += 1
    if base.sum() != n or (base <= 0).any():
        raise ValueError("fractions incompatible with n")
    return tuple(int(v) for v in base)


@dataclass(frozen=True)
class DensitySample:
    """Stieltjes branch value and equilibrium density at one real z."""

    z: float
    g: complex
    density: float


@dataclass(frozen=True)
class SupportSet:
    """Real discriminant roots (sorted) and the density-positive intervals."""

    endpoints: tuple
    intervals: tuple


@dataclass(frozen=True)
class CriticalData:
    """All closed-form constants attached to the cusp of a two-target problem."""

    q: float
    r: float
    p: float
    t0: float
    x0: float
    z0: float
    u0: float
    g0: float
    c0: float
    mu: float
    bigA: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class MergeEvent:
    """Collision of two real branch points under the rescaled time T = 2t/(1-t)."""

    T_c: float
    z_c: float
    left_index: int
    right_index: int


# ---------------------------------------------------------------------------
# polynomial helpers


def _horner(c, x):
    """Ascending coefficients c (last axis; one row per leading index of x)
    evaluated at x by Horner's rule, the operation order of polyval."""
    out = c[..., -1, None] + x * 0
    for j in range(c.shape[-1] - 2, -1, -1):
        out = c[..., j, None] + out * x
    return out


def _polish(rows, roots, iters):
    """Newton-polish roots (last axis) of the polynomials with ascending
    coefficient rows; one row may serve all roots, or one row per root set."""
    drows = rows[..., 1:] * np.arange(1, rows.shape[-1])
    for _ in range(iters):
        pv, dv = _horner(rows, roots), _horner(drows, roots)
        roots = roots - np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0.0)
    return roots


def _roots_ascending(coeffs):
    """All roots of a polynomial given by ascending coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if len(nz) == 0 or nz[-1] == 0:
        return np.array([], dtype=complex)
    c = c[: nz[-1] + 1]
    return _polish(c, np.polynomial.polynomial.polyroots(c), 4)


def _companion_batch(coeff_rows):
    """Batched companion matrices for monic ascending-coefficient rows."""
    rows = np.asarray(coeff_rows, dtype=complex)
    m, d1 = rows.shape
    d = d1 - 1
    C = np.zeros((m, d, d), dtype=complex)
    C[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    C[:, :, d - 1] = -rows[:, :d] / rows[:, d:d + 1]
    return C


@lru_cache(maxsize=64)
def _stieltjes_rows(config):
    """(bt, eps, R0, R1) of a config: scaled targets, fractions, and the
    ascending g-coefficients of the equation times prod(g - bt_i),
    (g - z) prod(g - bt_i) + sum_i eps_i prod_{j!=i}(g - bt_j) = R0 + z R1,
    which is affine in z.  Read-only: cached across calls."""
    poly = np.polynomial.polynomial
    bt = np.array(config.scaled_targets())
    eps = np.array(config.fractions)
    full = poly.polyfromroots(bt)
    R0 = poly.polymulx(full)
    for i, e in enumerate(eps):
        R0[:config.k] += e * poly.polyfromroots(np.delete(bt, i))
    rows = (bt, eps, R0, np.append(-full, 0.0))
    for arr in rows:
        arr.flags.writeable = False
    return rows


def _stieltjes_branch(config, zs):
    """Stieltjes branch g at every real z of zs, from one batched root solve
    of the rows R0 + z R1 (`_stieltjes_rows`)."""
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if not np.isfinite(zs).all():
        raise ValueError("z must be finite")
    bt, eps, R0, R1 = _stieltjes_rows(config)
    rows = R0 + zs[:, None] * R1
    roots = _polish(rows, np.linalg.eigvals(_companion_batch(rows)), 2)
    at = np.arange(len(zs))
    upper = roots[at, np.argmax(roots.imag, axis=1)]
    # off the support: the real root with f'(g) > 0 (see the module docstring)
    slope = (1.0 - (eps / (roots[..., None] - bt) ** 2).sum(axis=-1)).real
    real = roots[at, np.argmax(slope, axis=1)].real
    pair = upper.imag > 1e-11 * (1.0 + np.abs(roots).max(axis=1))
    g = np.where(pair, upper, real + 0j)
    resid = np.abs(_horner(rows, g[:, None])[:, 0])
    bad = np.nonzero(resid > 1e-8 * (1.0 + np.abs(zs) ** (config.k + 1)))[0]
    if len(bad):
        i = bad[0]
        raise ArithmeticError(f"stieltjes root did not converge at z={zs[i]!r}: "
                              f"residual {resid[i]:.3e}")
    return np.where(np.abs(g.imag) <= _REAL_TOL, g.real + 0j, g)


# ---------------------------------------------------------------------------
# operations


def solve_stieltjes(config: TargetConfig, z: float) -> DensitySample:
    """Physical Stieltjes branch at real z and the equilibrium density |Im g|/pi.

    g is the limit from z + i0 (module docstring): the +Im member of the
    complex pair on the support, the real root with f'(g) > 0 off it; at an
    isolated support endpoint the limiting (real) root is returned with
    density 0.  Raises ValueError for a non-finite z and ArithmeticError
    when the root's residual exceeds 1e-8 (1 + |z|^(k+1)).
    """
    g = complex(_stieltjes_branch(config, z)[0])
    return DensitySample(z=float(z), g=g, density=abs(g.imag) / math.pi)


def sweep_density(config: TargetConfig, z_grid) -> list:
    """Density samples at every z of a grid, all from one batched root solve.

    Each sample is `solve_stieltjes` at its z (same branch, same checks): a
    non-finite z anywhere raises ValueError, a residual above 1e-8 (1 +
    |z|^(k+1)) at any point raises ArithmeticError.
    """
    zs = np.atleast_1d(np.asarray(z_grid, dtype=float))
    return [DensitySample(z=float(z), g=complex(g), density=abs(g.imag) / math.pi)
            for z, g in zip(zs, _stieltjes_branch(config, zs))]


def discriminant_quartic(alpha: float, beta: float, p: float):
    """Ascending z-coefficients of the cubic-in-g discriminant Delta_1(z)."""
    poly = np.polynomial.polynomial
    s1 = alpha + beta
    b = np.array([-s1, -1.0])                       # g^2 coefficient
    c = np.array([alpha * beta + 1.0, s1])          # g^1
    d = np.array([-((1 - p) * alpha + p * beta), -alpha * beta])  # g^0
    out = poly.polymul(poly.polymul(18.0 * b, c), d)
    out = poly.polyadd(out, poly.polymul(-4.0 * poly.polymul(poly.polymul(b, b), b), d))
    out = poly.polyadd(out, poly.polymul(poly.polymul(b, b), poly.polymul(c, c)))
    out = poly.polyadd(out, -4.0 * poly.polymul(poly.polymul(c, c), c))
    out = poly.polyadd(out, -27.0 * poly.polymul(d, d))
    out = np.asarray(out, dtype=float)
    lead = (alpha - beta) ** 2
    if abs(out[-1] - lead) > 1e-8 * max(1.0, lead):
        raise AssertionError("discriminant leading coefficient mismatch")
    return out


def support_endpoints(alpha: float, beta: float, p: float) -> SupportSet:
    """Real roots of the quartic discriminant, grouped into support intervals.

    Density is positive exactly where Delta_1 < 0; intervals are recovered
    from the sign of Delta_1 between consecutive real roots rather than from
    any root-index labelling.
    """
    if not alpha > beta:
        raise ValueError("requires alpha > beta")
    if not 0.0 < p < 1.0:
        raise ValueError("requires 0 < p < 1")
    coeffs = discriminant_quartic(alpha, beta, p)
    roots = _roots_ascending(coeffs)
    scale = 1.0 + np.abs(roots).max(initial=0.0)
    reals = np.sort(roots[np.abs(roots.imag) < 1e-7 * scale].real)
    if len(reals) < 2:
        raise AssertionError("fewer than 2 real discriminant roots: invalid regime")
    poly = np.polynomial.polynomial
    intervals = []
    for lo, hi in zip(reals[:-1], reals[1:]):
        if hi - lo < 1e-12 * scale:
            continue
        if poly.polyval(0.5 * (lo + hi), coeffs) < 0.0:
            intervals.append((float(lo), float(hi)))
    merged = []
    for iv in intervals:
        if merged and abs(iv[0] - merged[-1][1]) < 1e-9 * scale:
            merged[-1] = (merged[-1][0], iv[1])
        else:
            merged.append(list(iv))
    return SupportSet(endpoints=tuple(float(r) for r in reals),
                      intervals=tuple((a, b) for a, b in merged))


def find_cusp(a: float, b: float, p: float) -> CriticalData:
    """Closed-form cusp data for two targets b < a with upper fraction p.

    q = ((1-p)/p)^(1/3), r = sqrt(q^2-q+1); the critical time solves
    1/t0 = 1 + 2 (r(a-b)/(q+1))^2, and the cusp sits at x0*sqrt(n) with
    x0 = ((2a-b)q + (2b-a)) t0 / (q+1).
    """
    if not a > b:
        raise ValueError("requires a > b (single-target problems unsupported)")
    if not 0.0 < p < 1.0:
        raise ValueError("requires 0 < p < 1")
    q = ((1.0 - p) / p) ** (1.0 / 3.0)
    r = math.sqrt(q * q - q + 1.0)
    t0 = (q + 1.0) ** 2 / ((q + 1.0) ** 2 + 2.0 * (a - b) ** 2 * r * r)
    x0 = ((2.0 * a - b) * q + (2.0 * b - a)) / (q + 1.0) * t0
    c0 = t0 * r * (a - b) / (q + 1.0)
    mu = (r * r / q) ** 0.25
    bigA = (math.sqrt(q) * (a - x0) + (b - x0) / math.sqrt(q)) / (a - b)
    alpha = a * t0 / c0
    beta = b * t0 / c0
    z0 = x0 / c0
    u0 = (a * q + b) / ((a - b) * r)
    return CriticalData(q=q, r=r, p=p, t0=t0, x0=x0, z0=z0, u0=u0, g0=u0,
                        c0=c0, mu=mu, bigA=bigA, alpha=alpha, beta=beta)


def time_from_rescaled(T: float) -> float:
    """Inverse of T = 2t/(1-t)."""
    return T / (2.0 + T)


def _branch_point_polys(targets, eps):
    """Ascending coefficients of A = prod_i (z-a_i)^2 and
    B = sum_i eps_i prod_{j!=i} (z-a_j)^2; branch points solve T*A = B."""
    poly = np.polynomial.polynomial
    A = poly.polyfromroots(np.repeat(targets, 2))
    B = sum(e * poly.polyfromroots(np.repeat(targets[:i] + targets[i + 1:], 2))
            for i, e in enumerate(eps))
    return A, B


def branch_points(config: TargetConfig, T: float):
    """All 2k roots of T = sum_i eps_i/(z - a_i)^2, in the T-normalized frame.

    Returns (roots, is_real) with roots sorted by real part.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    A, B = _branch_point_polys(config.targets, config.fractions)
    roots = _roots_ascending(np.polynomial.polynomial.polysub(T * A, B))
    if len(roots) != 2 * config.k:
        raise AssertionError("branch-point polynomial degree mismatch")
    order = np.argsort(roots.real)
    roots = roots[order]
    scale = 1.0 + np.abs(roots).max()
    is_real = np.abs(roots.imag) < 1e-8 * scale
    roots = np.where(is_real, roots.real + 0.0j, roots)
    return roots, is_real


def _real_count(config, T):
    _, flags = branch_points(config, T)
    return int(flags.sum())


def _newton_double_root(config, z0_, T0):
    """2D Newton for a simultaneous root of (P_T(z), P_T'(z))."""
    poly = np.polynomial.polynomial
    A, B = _branch_point_polys(config.targets, config.fractions)
    dA, dB = poly.polyder(A), poly.polyder(B)
    d2A, d2B = poly.polyder(dA), poly.polyder(dB)
    z, T = float(z0_), float(T0)
    for _ in range(60):
        f1 = T * poly.polyval(z, A) - poly.polyval(z, B)
        f2 = T * poly.polyval(z, dA) - poly.polyval(z, dB)
        j11 = T * poly.polyval(z, dA) - poly.polyval(z, dB)
        j12 = poly.polyval(z, A)
        j21 = T * poly.polyval(z, d2A) - poly.polyval(z, d2B)
        j22 = poly.polyval(z, dA)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-300:
            break
        dz = (f1 * j22 - f2 * j12) / det
        dT = (j11 * f2 - j21 * f1) / det
        z, T = z - dz, T - dT
        if abs(dz) < 1e-14 * (1 + abs(z)) and abs(dT) < 1e-14 * (1 + abs(T)):
            break
    return z, T


def track_merges(config: TargetConfig, T_min: float, T_max: float, steps: int):
    """Merge events of real branch points as T decreases from T_max to T_min.

    Real-root counts are tracked on the grid; each drop is bisected, the
    number of merging pairs identified from near-coincident roots just above
    the critical T, and every event polished by a 2D Newton solve for the
    exact double root (well below the 1e-10 location tolerance).
    """
    if not (0.0 < T_min < T_max):
        raise ValueError("need 0 < T_min < T_max")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    grid = np.linspace(T_max, T_min, steps)
    events = []
    counts = [_real_count(config, T) for T in grid]
    for idx in range(len(grid) - 1):
        if counts[idx + 1] >= counts[idx]:
            continue
        hi, lo = grid[idx], grid[idx + 1]
        c_hi = counts[idx]
        for _ in range(80):
            mid = 0.5 * (hi + lo)
            if _real_count(config, mid) == c_hi:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-13 * max(1.0, hi):
                break
        roots, flags = branch_points(config, hi)
        reals = np.sort(roots[flags].real)
        gaps = np.diff(reals)
        scale = 1.0 + np.abs(reals).max()
        pair_idx = [i for i in range(len(gaps)) if gaps[i] < 1e-4 * scale]
        if not pair_idx:
            pair_idx = [int(np.argmin(gaps))]
        expected_pairs = (counts[idx] - counts[idx + 1]) // 2
        if len(pair_idx) != expected_pairs:
            pair_idx = sorted(range(len(gaps)), key=lambda i: gaps[i])[:expected_pairs]
            pair_idx.sort()
        for i in pair_idx:
            zc0 = 0.5 * (reals[i] + reals[i + 1])
            z_c, T_c = _newton_double_root(config, zc0, hi)
            if abs(reals[i + 1] - reals[i]) > 0 and abs(z_c - zc0) > 0.5 * scale:
                raise ArithmeticError("merge refinement diverged; reduce step")
            events.append(MergeEvent(T_c=float(T_c), z_c=float(z_c),
                                     left_index=int(i), right_index=int(i + 1)))
    events.sort(key=lambda e: -e.T_c)
    return events


def density_csv_lines(samples):
    """CSV serialization `z,re_g,im_g,density` with 17 significant digits."""
    lines = ["z,re_g,im_g,density"]
    for s in samples:
        lines.append(",".join(f"{v:.17g}" for v in (s.z, s.g.real, s.g.imag, s.density)))
    return lines
