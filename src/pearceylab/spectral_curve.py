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
        if not all(map(math.isfinite, self.targets + self.fractions)):
            raise ValueError("targets and fractions must be finite")
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

    def scaled_targets(self):
        """Matrix-coordinate source eigenvalues bt_i = b_i * sqrt(2t/(1-t))."""
        s = math.sqrt(2.0 * self.time / (1.0 - self.time))
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
    """Ascending coefficients c (last axis, at least two; one row per leading
    index of x) evaluated at x by Horner's rule, with the bits of polyval:
    its first value c[-1] + x * 0 times a finite x has the bits of
    c[-1] * x."""
    out = c[..., -2, None] + c[..., -1, None] * x
    for j in range(c.shape[-1] - 3, -1, -1):
        out = c[..., j, None] + out * x
    return out


def _polish(rows, roots, iters):
    """Newton-polish roots (last axis) of the polynomials with ascending
    coefficient rows; one row may serve all roots, or one row per root set.
    p and p' come from one Horner pass over the rows stacked on the
    derivative's rows padded with a zero top coefficient, which leaves p'
    the bits of its own pass."""
    both = np.zeros((2,) + rows.shape, dtype=rows.dtype)
    both[0] = rows
    both[1, ..., :-1] = rows[..., 1:] * np.arange(1, rows.shape[-1])
    for _ in range(iters):
        pv, dv = _horner(both, roots)
        roots = roots - np.divide(pv, dv, out=np.zeros_like(pv), where=np.abs(dv) > 1e-300)
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
    C.reshape(m, d * d)[:, d::d + 1] = 1.0      # the subdiagonal
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
    upper = roots[at, roots.imag.argmax(axis=1)]
    # off the support: the real root with f'(g) > 0 (see the module docstring)
    slope = (1.0 - (eps / (roots[..., None] - bt) ** 2).sum(axis=-1)).real
    real = roots[at, slope.argmax(axis=1)].real
    pair = upper.imag > 1e-11 * (1.0 + np.abs(roots).max(axis=1))
    g = np.where(pair, upper, real + 0j)
    resid = np.abs(_horner(rows, g[:, None])[:, 0])
    bad = (resid > 1e-8 * (1.0 + np.abs(zs) ** (config.k + 1))).nonzero()[0]
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
        raise ArithmeticError("discriminant leading coefficient mismatch")
    return out


def support_endpoints(alpha: float, beta: float, p: float) -> SupportSet:
    """Real roots of the quartic discriminant, grouped into support intervals.

    Density is positive exactly where Delta_1 < 0; intervals are recovered
    from the sign of Delta_1 between consecutive real roots rather than from
    any root-index labelling.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha}, {beta}")
    if not alpha > beta:
        raise ValueError("requires alpha > beta")
    if not 0.0 < p < 1.0:
        raise ValueError("requires 0 < p < 1")
    coeffs = discriminant_quartic(alpha, beta, p)
    roots = _roots_ascending(coeffs)
    scale = 1.0 + np.abs(roots).max(initial=0.0)
    reals = np.sort(roots[np.abs(roots.imag) < 1e-7 * scale].real)
    if len(reals) < 2:
        raise ArithmeticError("fewer than 2 real discriminant roots: invalid regime")
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
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got {a}, {b}")
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
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    A, B = _branch_point_polys(config.targets, config.fractions)
    roots = _roots_ascending(np.polynomial.polynomial.polysub(T * A, B))
    if len(roots) != 2 * config.k:
        raise ArithmeticError("branch-point polynomial degree mismatch")
    order = np.argsort(roots.real)
    roots = roots[order]
    scale = 1.0 + np.abs(roots).max()
    is_real = np.abs(roots.imag) < 1e-8 * scale
    roots = np.where(is_real, roots.real + 0.0j, roots)
    return roots, is_real


def track_merges(config: TargetConfig, T_min: float, T_max: float):
    """Merge events of real branch points as T decreases from T_max to T_min.

    Every term of T(z) = sum_i eps_i/(z - a_i)^2 is convex on each gap
    between consecutive targets, so T has exactly one critical point on a
    gap, its minimum (z_c, T_c), and none outside the targets.  The real
    solutions of T(z) = T are thus the two outer ones plus a pair on every
    gap with T_c < T, and the events are the gap minima with T_min < T_c <
    T_max, where such a pair merges.  T'(z) = -2 sum_i eps_i/(z - a_i)^3
    increases strictly on a gap, so one bisection on its sign, over all the
    gaps at once, halves until no midpoint is left between its brackets;
    then T_c = T(z_c).  Among the real roots sorted just above T_c the pair
    has indices 1 + 2j and 2 + 2j, j the number of earlier gaps open there:
    those with T_c at most this one within 1e-12 relative.
    """
    if not (0.0 < T_min < T_max < math.inf):
        raise ValueError("need 0 < T_min < T_max < inf")
    a, eps = np.array(config.targets), np.array(config.fractions)
    lo, hi = a[:-1], a[1:]
    while True:
        z = 0.5 * (lo + hi)
        if not ((lo < z) & (z < hi)).any():
            break
        falling = (eps / (z[:, None] - a) ** 3).sum(axis=1) > 0.0
        lo, hi = np.where(falling, z, lo), np.where(falling, hi, z)
    T_c = (eps / (z[:, None] - a) ** 2).sum(axis=1)
    events = []
    for g in np.flatnonzero((T_min < T_c) & (T_c < T_max)):
        left = 1 + 2 * int((T_c[:g] <= T_c[g] * (1.0 + 1e-12)).sum())
        events.append(MergeEvent(T_c=float(T_c[g]), z_c=float(z[g]),
                                 left_index=left, right_index=left + 1))
    events.sort(key=lambda e: -e.T_c)
    return events
