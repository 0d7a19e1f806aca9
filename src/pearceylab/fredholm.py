"""Nystrom evaluation of Fredholm determinants, gap probabilities, and
resolvent quantities for the Pearcey, Airy, and finite-n kernels.

The determinant det(I - K restricted to E) is discretized per interval with
Gauss-Legendre nodes and square-root-weight symmetrization, so the finite
matrix is similar to the integral operator and stays well conditioned.  Every
reported value carries an m-versus-2m refinement error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import QuadratureError, QuadratureSpec, _gl
from .kernels import (_pearcey_kernel_from_tables, airy_kernel, airy_kernel_matrix,
                      pearcey_kernel_grid, pearcey_kernel_matrix, pq_tables)

__all__ = [
    "IntervalUnion", "NystromGrid", "GapResult", "ResolventData",
    "pearcey_kernel_handle",
    "gap_probability", "multitime_gap", "resolvent_quantities",
    "airy_gap_on_ray", "endpoint_identity_check", "gap_csv_lines",
]


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union E = (y1, y2) u (y3, y4) u ... given by sorted endpoints."""

    endpoints: tuple

    def __post_init__(self):
        ep = tuple(float(y) for y in self.endpoints)
        object.__setattr__(self, "endpoints", ep)
        if len(ep) % 2 != 0:
            raise ValueError("endpoint count must be even")
        if any(b <= a for a, b in zip(ep, ep[1:])):
            raise ValueError("endpoints must be strictly increasing")
        if any(not math.isfinite(y) for y in ep):
            raise ValueError("endpoints must be finite")

    @property
    def empty(self):
        return len(self.endpoints) == 0

    def intervals(self):
        ep = self.endpoints
        return tuple((ep[2 * i], ep[2 * i + 1]) for i in range(len(ep) // 2))

    def shifted(self, delta):
        return IntervalUnion(tuple(y + delta for y in self.endpoints))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        ivs = sorted(self.intervals() + other.intervals())
        merged = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return IntervalUnion(tuple(x for ab in merged for x in ab))


@dataclass(frozen=True)
class NystromGrid:
    """Per-interval Gauss-Legendre nodes and weights, order m per interval."""

    nodes: np.ndarray
    weights: np.ndarray
    m: int

    @classmethod
    def build(cls, E: IntervalUnion, m: int):
        gx, gw = _gl(m)
        xs, ws = [], []
        for a, b in E.intervals():
            half, mid = 0.5 * (b - a), 0.5 * (b + a)
            xs.append(mid + half * gx)
            ws.append(half * gw)
        nodes = np.concatenate(xs) if xs else np.empty(0)
        weights = np.concatenate(ws) if ws else np.empty(0)
        return cls(nodes=nodes, weights=weights, m=m)


@dataclass(frozen=True)
class GapResult:
    """Gap probability with log value and a refinement error estimate."""

    value: float
    log_value: float
    error_estimate: float


@dataclass(frozen=True)
class ResolventData:
    """Transformed functions p_hat, q_hat on the grid and at the E endpoints,
    the scalar u = <p_hat, q chi_E>, and the resolvent kernel matrix R."""

    grid: NystromGrid
    p_hat: np.ndarray
    q_hat: np.ndarray
    p_hat_end: np.ndarray
    q_hat_end: np.ndarray
    u: float
    R: np.ndarray
    condition: float


# ---------------------------------------------------------------------------
# kernel handles: callable(xs, ys) -> kernel matrix


def pearcey_kernel_handle(t: float, spec: QuadratureSpec | None = None):
    """Equal-time Pearcey kernel handle (p/q-form Nystrom fill)."""
    spec = spec or QuadratureSpec()

    def handle(xs, ys):
        return pearcey_kernel_matrix(t, xs, ys, spec)

    return handle


# ---------------------------------------------------------------------------
# determinants


def _nystrom_logdet(K, weights):
    """log det(I - K W) for the Nystrom matrix K on nodes with weights W,
    through the similar matrix I - W^{1/2} K W^{1/2} (square-root-weight
    symmetrization); a non-positive determinant means a kernel or grid failure."""
    sw = np.sqrt(weights)
    sign, logdet = np.linalg.slogdet(np.eye(len(sw)) - sw[:, None] * K * sw[None, :])
    if sign <= 0:
        raise ArithmeticError("Fredholm determinant non-positive: kernel or grid failure")
    return logdet


def _block_logdet(block, sets, order):
    """log det(I - (chi_{E_i} K_ij chi_{E_j})_{i,j}) on Gauss-Legendre grids of
    the given order per interval; block(i, j, xs, ys) is the K_ij matrix."""
    grids = [NystromGrid.build(E, order) for E in sets]
    offs = np.cumsum([0] + [g.nodes.size for g in grids])
    K = np.zeros((offs[-1], offs[-1]))
    for i, gi in enumerate(grids):
        for j, gj in enumerate(grids):
            if gi.nodes.size and gj.nodes.size:
                K[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block(i, j, gi.nodes, gj.nodes)
    return _nystrom_logdet(K, np.concatenate([g.weights for g in grids]))


def _refined_gap(block, sets, m):
    """Block determinant at order m, with |value(m) - value(2m)| as the error
    estimate (Bornemann's m-versus-2m check for analytic kernels); a
    disagreement beyond 1e-6, in the values or in their logarithms, raises.
    The log gate is what holds a small determinant to its digits."""
    l1, l2 = _block_logdet(block, sets, m), _block_logdet(block, sets, 2 * m)
    v1, v2 = math.exp(l1), math.exp(l2)
    err = abs(v1 - v2)
    if err > 1e-6:
        raise QuadratureError(
            f"Nystrom refinement disagreement {err:.2e} between m={m} and 2m", achieved=err)
    if abs(l1 - l2) > 1e-6:
        raise QuadratureError(
            f"Nystrom refinement log disagreement {abs(l1 - l2):.2e} between m={m} and 2m",
            achieved=abs(l1 - l2))
    return GapResult(value=v1, log_value=l1, error_estimate=err)


def gap_probability(kernel, E: IntervalUnion, m: int = 40) -> GapResult:
    """det(I - K|_E) by symmetrized Nystrom discretization.

    `kernel` is a callable (xs, ys) -> matrix.  The value at order m is
    reported with |value(m) - value(2m)| as the error estimate; disagreement
    beyond 1e-6 in the values or in their logarithms raises.
    """
    if E.empty:
        return GapResult(value=1.0, log_value=0.0, error_estimate=0.0)
    if m < 8:
        raise ValueError("m must be >= 8")
    return _refined_gap(lambda i, j, xs, ys: kernel(xs, ys), [E], m)


def _merge_coincident(times, sets):
    merged = []
    for t, E in zip(times, sets):
        if merged and abs(t - merged[-1][0]) < 1e-14:
            merged[-1] = (merged[-1][0], merged[-1][1].union(E))
        else:
            merged.append((t, E))
    return [t for t, _ in merged], [E for _, E in merged]


def multitime_gap(times, sets, m: int = 40,
                  spec: QuadratureSpec | None = None) -> GapResult:
    """Block Fredholm determinant of (chi_{E_i} K_{t_i t_j} chi_{E_j})_{i,j}
    for the extended Pearcey kernel.

    Coincident times are merged (their sets unioned) before discretization:
    the extended kernel's Gaussian term becomes a delta as t_j -> t_i, and the
    merged determinant is the analytic limit.
    """
    spec = spec or QuadratureSpec()
    times = [float(t) for t in times]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    times, sets = _merge_coincident(times, list(sets))
    if len(times) > 4:
        raise ValueError("multi-time determinants are limited to 4 distinct times")
    if all(E.empty for E in sets):
        return GapResult(value=1.0, log_value=0.0, error_estimate=0.0)

    def block(i, j, xs, ys):
        if times[i] == times[j]:
            return pearcey_kernel_matrix(times[i], xs, ys, spec)
        return pearcey_kernel_grid(times[i], times[j], xs, ys, spec)

    return _refined_gap(block, sets, m)


# ---------------------------------------------------------------------------
# resolvent quantities (Pearcey, single time)


def resolvent_quantities(t: float, E: IntervalUnion, m: int = 40,
                         spec: QuadratureSpec | None = None) -> ResolventData:
    """p_hat = (I-K_E)^{-1} p, q_hat = (I-K_E^T)^{-1} q on the grid and at the
    endpoints, u = <p_hat, q chi_E>, and the resolvent kernel matrix R with
    (I - K_E)(I + R) = I checked on the grid."""
    spec = spec or QuadratureSpec()
    grid = NystromGrid.build(E, m)
    x = grid.nodes
    w = grid.weights
    P, Q = pq_tables(t, x, spec)
    K = _pearcey_kernel_from_tables(t, x, P, x, Q)
    if math.exp(_nystrom_logdet(K, w)) <= 1e-12:
        raise ArithmeticError("det(I - K_E) too small for resolvent quantities")
    KW = K * w[None, :]
    A = np.eye(len(x)) - KW
    cond = float(np.linalg.cond(A))
    p_vec, q_vec = P[0], Q[0]
    p_hat = np.linalg.solve(A, p_vec)
    AT = np.eye(len(x)) - (w[:, None] * K).T
    q_hat = np.linalg.solve(AT, q_vec)
    R = np.linalg.solve(A, K)
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
    return ResolventData(grid=grid, p_hat=p_hat, q_hat=q_hat,
                         p_hat_end=p_hat_end, q_hat_end=q_hat_end,
                         u=u, R=R, condition=cond)


def endpoint_identity_check(t: float, E: IntervalUnion, m: int = 64, h: float = 1e-3,
                  spec: QuadratureSpec | None = None):
    """Both sides of the endpoint identity

        d^2/de^2 log det(I - K_{E+e}) |_{e=0} = sum_k (-1)^k p_hat(a_k) q_hat(a_k).

    The left side uses a 5-point centered second difference of the log gap
    under a uniform endpoint shift; returns (lhs, rhs, du_lhs, relative errors).
    """
    spec = spec or QuadratureSpec()
    vals = [_block_logdet(lambda i, j, xs, ys: pearcey_kernel_matrix(t, xs, ys, spec),
                          [E.shifted(k * h)], m) for k in (-2, -1, 0, 1, 2)]
    lhs = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)

    def u_of(eps):
        return resolvent_quantities(t, E.shifted(eps), m, spec).u

    du = (u_of(h) - u_of(-h)) / (2 * h)
    rd = resolvent_quantities(t, E, m, spec)
    signs = np.array([(-1.0) ** (k + 1) for k in range(len(E.endpoints))])
    rhs = float(np.sum(signs * rd.p_hat_end * rd.q_hat_end))
    return lhs, rhs, du


def airy_gap_on_ray(s: float, m: int = 48, diag_floor: float = 1e-16) -> GapResult:
    """det(I - Airy kernel) on (s, infinity), truncated where the kernel
    diagonal drops below diag_floor; the truncation tail bound is folded into
    the error estimate."""
    hi = max(s + 2.0, 2.0)
    while airy_kernel(hi, hi) > diag_floor:
        hi += 1.0
    res = gap_probability(airy_kernel_matrix, IntervalUnion((s, hi)), m)
    return GapResult(value=res.value, log_value=res.log_value,
                     error_estimate=res.error_estimate + airy_kernel(hi, hi) * (hi - s))


def gap_csv_lines(rows):
    """CSV `t,y1,...,y2r,log_gap,err` for (t, IntervalUnion, GapResult) rows."""
    out = []
    width = max(len(E.endpoints) for _, E, _ in rows)
    head = ",".join(f"y{i+1}" for i in range(width))
    out.append(f"t,{head},log_gap,err")
    for t, E, res in rows:
        ys = ",".join(f"{y:.17g}" for y in E.endpoints)
        out.append(f"{t:.17g},{ys},{res.log_value:.17g},{res.error_estimate:.17g}")
    return out
