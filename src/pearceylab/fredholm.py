"""Nystrom evaluation of Fredholm determinants, gap probabilities, and
resolvent quantities for the Pearcey, Airy, and finite-n kernels.

The determinant det(I - K restricted to E) is discretized per interval with
Gauss-Legendre nodes and square-root-weight symmetrization, so the finite
matrix is similar to the integral operator and stays well conditioned.  Every
reported gap probability carries an m-versus-2m refinement error estimate.
Families of equal-time sets share one p/q tabulation and stacked
factorizations: the PDE lab's stencil lattice through _log_gaps, and the
resolvent quantities of the endpoint identity's shifted sets through
_resolvents, of which resolvent_quantities is the one-set case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quad import QuadratureError, QuadratureSpec, panel_rule, panels
from .kernels import (_coincident, _pearcey_kernel_from_tables, _pq_checked, airy_kernel,
                      airy_kernel_matrix, pearcey_kernel_grid, pearcey_kernel_matrix)

__all__ = [
    "IntervalUnion", "NystromGrid", "GapResult", "ResolventData",
    "pearcey_kernel_handle",
    "gap_probability", "multitime_gap", "resolvent_quantities",
    "airy_gap_on_ray", "endpoint_identity_check",
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
    """Per-interval Gauss-Legendre nodes and weights, order m >= 8 per interval:
    one _quad.panel_rule over one panel on each interval."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, E: IntervalUnion, m: int):
        if m < 8:
            raise ValueError("m must be >= 8")
        nodes, weights = panel_rule(*panels([(a, b, 1) for a, b in E.intervals()]), m)
        return cls(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class GapResult:
    """Gap probability with log value and a refinement error estimate."""

    value: float
    log_value: float
    error_estimate: float


@dataclass(frozen=True)
class ResolventData:
    """Transformed functions p_hat, q_hat on the grid and at the E endpoints,
    the scalar u = <p_hat, q chi_E>, the resolvent kernel matrix R, log
    det(I - K_E), and A = I - K_E W, whose condition number is an SVD taken
    only where it is read."""

    grid: NystromGrid
    p_hat: np.ndarray
    q_hat: np.ndarray
    p_hat_end: np.ndarray
    q_hat_end: np.ndarray
    u: float
    R: np.ndarray
    log_det: float
    A: np.ndarray

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.A))


# ---------------------------------------------------------------------------
# kernel handles: callable(xs, ys) -> kernel matrix


def pearcey_kernel_handle(t: float, spec: QuadratureSpec | None = None):
    """Equal-time Pearcey kernel handle (p/q-form Nystrom fill)."""

    def handle(xs, ys):
        return pearcey_kernel_matrix(t, xs, ys, spec)

    return handle


# ---------------------------------------------------------------------------
# determinants


def _nystrom_logdet(K, weights):
    """log det(I - K W) for the Nystrom matrix K on nodes with weights W,
    through the similar matrix I - W^{1/2} K W^{1/2} (square-root-weight
    symmetrization); a non-positive determinant means a kernel or grid failure.
    Leading axes of K and weights stack matrices, one log-determinant each."""
    sw = np.sqrt(weights)
    A = np.eye(sw.shape[-1]) - sw[..., :, None] * K * sw[..., None, :]
    sign, logdet = np.linalg.slogdet(A)
    if (sign <= 0).any():
        raise ArithmeticError("Fredholm determinant non-positive: kernel or grid failure")
    return logdet


def _log_gaps(ts, nodes, weights, spec):
    """log det(I - K_E) of the equal-time Pearcey kernel at each time of ts,
    as an array (times, rows, sets), on the Nystrom grids of sets E
    given as nodes and weights of shape (rows, sets, nodes).  One checked p/q
    tabulation over all the nodes (kernels._pq_checked) serves every time, the
    diagonal-limit entries (kernels._coincident) are found once, and at each
    time the matrices of a row of sets are filled and factored as one stack."""
    sames = [_coincident(x, x) for x in nodes]
    out = []
    for t, (P, Q) in zip(ts, _pq_checked(ts, nodes.ravel(), spec)):
        P, Q = P.reshape(4, *nodes.shape), Q.reshape(4, *nodes.shape)
        out.append([_nystrom_logdet(_pearcey_kernel_from_tables(
                        t, x, P[:, r], x, Q[:, r], same), w)
                    for r, (x, w, same) in enumerate(zip(nodes, weights, sames))])
    return np.array(out)


def _block_logdet(block, sets, orders):
    """log det(I - (chi_{E_i} K_ij chi_{E_j})_{i,j}) on Gauss-Legendre grids of
    each of the given orders per interval, as a list in the order of orders;
    block(i, j, xs, ys) is the K_ij matrix.  Each pair of sets takes one block
    call, on the nodes of every order at once, and each order's matrix is
    read from the diagonal sub-blocks of that call's result."""
    grids = [[NystromGrid.build(E, n) for n in orders] for E in sets]
    sizes = np.array([[g.nodes.size for g in gs] for gs in grids])
    cuts = np.cumsum(np.pad(sizes, ((0, 0), (1, 0))), axis=1)    # orders in a set's nodes
    offs = np.cumsum(np.pad(sizes, ((1, 0), (0, 0))), axis=0)    # sets in an order's matrix
    nodes = [np.concatenate([g.nodes for g in gs]) for gs in grids]
    Ks = [np.zeros((n, n)) for n in offs[-1]]
    for i, j in np.ndindex(len(sets), len(sets)):
        if nodes[i].size and nodes[j].size:
            Kij = block(i, j, nodes[i], nodes[j])
            for k, K in enumerate(Ks):
                K[offs[i, k]:offs[i + 1, k], offs[j, k]:offs[j + 1, k]] = \
                    Kij[cuts[i, k]:cuts[i, k + 1], cuts[j, k]:cuts[j, k + 1]]
    return [_nystrom_logdet(K, np.concatenate([gs[k].weights for gs in grids]))
            for k, K in enumerate(Ks)]


def _log_gate(l1, l2, m):
    """Raise QuadratureError where the order-m log determinants l1 and their
    order-2m values l2 (scalars or stacks) disagree by more than 1e-6."""
    gap = float(np.abs(np.subtract(l1, l2)).max())
    if gap > 1e-6:
        raise QuadratureError(
            f"Nystrom refinement log disagreement {gap:.2e} between m={m} and 2m", achieved=gap)


def _refined_gap(block, sets, m):
    """Block determinant at order m, with |value(m) - value(2m)| as the error
    estimate (Bornemann's m-versus-2m check for analytic kernels); a
    disagreement beyond 1e-6, in the values or in their logarithms, raises.
    The log gate is what holds a small determinant to its digits.  Both
    orders come from one block call per pair of sets (_block_logdet), so a
    Pearcey gap tabulates p/q once and a cross-time block contracts once."""
    l1, l2 = _block_logdet(block, sets, (m, 2 * m))
    v1, v2 = math.exp(l1), math.exp(l2)
    err = abs(v1 - v2)
    if err > 1e-6:
        raise QuadratureError(
            f"Nystrom refinement disagreement {err:.2e} between m={m} and 2m", achieved=err)
    _log_gate(l1, l2, m)
    return GapResult(value=v1, log_value=l1, error_estimate=err)


def gap_probability(kernel, E: IntervalUnion, m: int = 40) -> GapResult:
    """det(I - K|_E) by symmetrized Nystrom discretization.

    `kernel` is a callable (xs, ys) -> matrix, called once, on the order-m
    and order-2m nodes together.  The value at order m is reported with
    |value(m) - value(2m)| as the error estimate; disagreement beyond 1e-6
    in the values or in their logarithms raises.
    """
    if E.empty:
        return GapResult(value=1.0, log_value=0.0, error_estimate=0.0)
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
    times, sets = [float(t) for t in times], list(sets)
    if len(times) != len(sets):
        raise ValueError(f"need one set per time, got {len(times)} times, {len(sets)} sets")
    if not all(map(math.isfinite, times)):
        raise ValueError(f"times must be finite, got {times}")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    times, sets = _merge_coincident(times, sets)
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


def _resolvents(t, sets, m, spec):
    """ResolventData of the equal-time Pearcey kernel at time t on each of the
    sets E (one endpoint count for all).  One checked p/q tabulation covers
    every set's nodes and endpoints and its order-2m nodes.  One kernel fill
    covers the nodes and endpoints; the node blocks K are factored and solved
    as one stack, with det(I - K W) > 1e-12 and (I - K W)(I + R W) = I
    checked, and p_hat = (I + R W) p, q_hat = (I + R^T W) q.  The order-2m
    blocks are filled and factored as a second stack, without a solve, and a
    log det disagreeing with its order-m value by more than 1e-6 raises
    (_log_gate, as in _refined_gap).  The p/q rule follows the stack's
    largest |x|, so a set's values depend on its stack-mates within
    pq_tables' tolerance."""
    grids = [NystromGrid.build(E, m) for E in sets]
    fine = [NystromGrid.build(E, 2 * m) for E in sets]
    w = np.array([g.weights for g in grids])
    n = w.shape[1]
    xe = np.array([np.concatenate([g.nodes, E.endpoints]) for g, E in zip(grids, sets)])
    x2 = np.array([f.nodes for f in fine])
    # the order-2m nodes go first: the GEMMs of the tabulation round a column
    # by its place among their blocks of columns, and for even m they shift
    # the other columns by whole blocks, which then round as they would in a
    # tabulation without them
    tables = next(_pq_checked((t,), np.concatenate([x2.ravel(), xe.ravel()]), spec))
    P2, Q2 = (T[:, :x2.size].reshape(4, *x2.shape) for T in tables)
    P, Q = (T[:, x2.size:].reshape(4, *xe.shape) for T in tables)
    Ke = _pearcey_kernel_from_tables(t, xe, P, xe, Q)
    K = Ke[:, :n, :n]
    log_det = _nystrom_logdet(K, w)
    _log_gate(log_det, _nystrom_logdet(_pearcey_kernel_from_tables(t, x2, P2, x2, Q2),
                                       np.array([f.weights for f in fine])), m)
    if (np.exp(log_det) <= 1e-12).any():
        raise ArithmeticError("det(I - K_E) too small for resolvent quantities")
    A = np.eye(n) - K * w[:, None, :]
    R = np.linalg.solve(A, K)
    resid = np.abs(A @ (np.eye(n) + R * w[:, None, :]) - np.eye(n)).max()
    if resid > 1e-10:
        raise ArithmeticError(f"resolvent identity residual {resid:.2e} exceeds 1e-10")
    p, q = P[0, :, :n], Q[0, :, :n]
    # stacked matrix-vector products as @ on a length-1 axis (no np.matvec before numpy 2.2)
    p_hat = p + (R @ (w * p)[..., None])[..., 0]
    q_hat = q + ((w * q)[:, None] @ R)[:, 0]
    p_hat_end = P[0, :, n:] + (Ke[:, n:, :n] @ (w * p_hat)[..., None])[..., 0]
    # contiguous copy: on the strided view BLAS rounds the product differently
    q_hat_end = Q[0, :, n:] + ((w * q_hat)[:, None] @ Ke[:, :n, n:].copy())[:, 0]
    u = np.sum(w * p_hat * q, axis=-1)
    return [ResolventData(grid=g, p_hat=p_hat[i], q_hat=q_hat[i], p_hat_end=p_hat_end[i],
                          q_hat_end=q_hat_end[i], u=float(u[i]), R=R[i],
                          log_det=float(log_det[i]), A=A[i])
            for i, g in enumerate(grids)]


def resolvent_quantities(t: float, E: IntervalUnion, m: int = 40,
                         spec: QuadratureSpec | None = None) -> ResolventData:
    """p_hat = (I-K_E)^{-1} p, q_hat = (I-K_E^T)^{-1} q on the grid and at the
    endpoints, u = <p_hat, q chi_E>, log det(I - K_E), and the resolvent
    kernel matrix R with (I - K_E)(I + R) = I checked on the grid: the
    one-set case of _resolvents."""
    return _resolvents(t, [E], m, spec or QuadratureSpec())[0]


def endpoint_identity_check(t: float, E: IntervalUnion, m: int = 64,
                            spec: QuadratureSpec | None = None):
    """Both sides of the endpoint identity

        d^2/de^2 log det(I - K_{E+e}) |_{e=0} = -sum_k (-1)^k p_hat(a_k) q_hat(a_k)

    over the endpoints a_1 < ... < a_2r, as (lhs, rhs, du): lhs the 5-point
    centered second difference of the log gaps of E + k h, k = -2..2,
    h = 1e-3, which are one _resolvents call, rhs the sum itself, so that
    the identity reads lhs = -rhs, and du = (u(E + h) - u(E - h)) / 2h.

    lhs is checked against the 3-point second difference of the inner three
    log gaps.  Where the log gaps resolve their second difference the two
    agree to O(h^2), within 3e-7 of lhs for |t| <= 1.5; where the log gaps
    are near zero (on (-1, 1): t = 8, 10) or carry the p/q tables' error
    (t = -8, -9), lhs is their error magnified by 1/h^2, and a gap above
    1e-4 |lhs| raises QuadratureError carrying the gap.
    """
    h = 1e-3
    rds = _resolvents(t, [E.shifted(k * h) for k in (-2, -1, 0, 1, 2)], m,
                      spec or QuadratureSpec())
    v = [rd.log_det for rd in rds]
    lhs = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
    gap = abs(lhs - (v[1] - 2 * v[2] + v[3]) / (h * h))
    if not gap <= 1e-4 * abs(lhs):
        raise QuadratureError(f"endpoint identity: the 5- and 3-point second differences "
                              f"disagree by {gap:.3g}", achieved=gap)
    du = (rds[3].u - rds[1].u) / (2 * h)
    signs = np.array([(-1.0) ** (k + 1) for k in range(len(E.endpoints))])
    rhs = float(np.sum(signs * rds[2].p_hat_end * rds[2].q_hat_end))
    return lhs, rhs, du


def airy_gap_on_ray(s: float, m: int = 48) -> GapResult:
    """det(I - Airy kernel) on (s, infinity), truncated where the kernel
    diagonal drops below 1e-16; the truncation tail bound is folded into the
    error estimate."""
    hi = max(s + 2.0, 2.0)
    while airy_kernel(hi, hi) > 1e-16:
        hi += 1.0
    res = gap_probability(airy_kernel_matrix, IntervalUnion((s, hi)), m)
    return GapResult(value=res.value, log_value=res.log_value,
                     error_estimate=res.error_estimate + airy_kernel(hi, hi) * (hi - s))
