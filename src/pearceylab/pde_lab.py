"""Finite-difference verification of the third-order nonlinear PDE obeyed by
the log gap probability of the Pearcey process, plus the small-interval
estimates and the Wronskian non-vanishing coefficient.

For Q(t; y1, y2) = log P(no Pearcey particle in (y1, y2)) the residual of

    d^3Q/dt^3 + (1/8)(eps_E - 2 t d/dt - 2) dE^2 Q
             - (1/2) { dE^2 Q, dE dQ/dt }_{dE}   = 0

is assembled from second-order centered differences on a (t, y1, y2) lattice,
with dE = d/dy1 + d/dy2, eps_E = y1 d/dy1 + y2 d/dy2, and Wronskian
{f, g}_X = X(f) g - f X(g).  At the true surface the residual is pure
truncation error and contracts like h^2 under grid halving; a corrupted
surface fails that contraction, which is the operational check that all sign
conventions are right.  The lattice's log gaps are fredholm's stacked Nystrom
determinants (fredholm._log_gaps); this module adds the finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import QuadratureSpec
from .fredholm import IntervalUnion, NystromGrid, _log_gaps, _resolvents, resolvent_quantities
from .kernels import pearcey_pq

__all__ = [
    "QSurface", "ResidualReport", "q_surface", "pearcey_pde_residual",
    "small_interval_checks", "wronskian_coefficient",
]


@dataclass(frozen=True)
class QSurface:
    """Log gap probabilities on a (t, y1, y2) stencil lattice."""

    t_grid: np.ndarray
    y1_grid: np.ndarray
    y2_grid: np.ndarray
    Q: np.ndarray
    h_t: float
    h_y: float

    def scaled(self, factor):
        """Corrupted copy (for negative controls): Q multiplied by factor."""
        return replace(self, Q=self.Q * factor)


@dataclass(frozen=True)
class ResidualReport:
    t_values: np.ndarray
    residuals: np.ndarray
    max_abs: float
    h_t: float
    h_y: float
    y1: float
    y2: float


def q_surface(t_range, E_center: float, E_halfwidth: float, h_t: float,
              h_y: float, m: int = 48, spec: QuadratureSpec | None = None) -> QSurface:
    """Tabulate Q(t, y1, y2) = log gap on the stencil lattice.

    t runs over t_range at spacing h_t; the endpoint grids are
    y1 in E_center - E_halfwidth + h_y * {-2..2}, the offsets the PDE
    stencils reach, and likewise y2 around E_center + E_halfwidth, each
    interval on m >= 8 Gauss-Legendre nodes.  The intervals' Nystrom grids
    are built once, and all the times go through one fredholm._log_gaps call:
    one checked p/q tabulation whose x-only factors the times share, and at
    each time the matrices of a row of intervals (one y1) filled and factored
    as one stack.  The denominators y - x are formed per row and time, since
    holding them all would add 25 m^2 floats to the peak memory.  Gap
    probabilities below 1e-10 are rejected (log accuracy collapses there).
    """
    if not (math.isfinite(h_t) and h_t > 0.0 and math.isfinite(h_y) and h_y > 0.0):
        raise ValueError(f"steps must be positive and finite, got h_t={h_t}, h_y={h_y}")
    spec = spec or QuadratureSpec()
    t_lo, t_hi = t_range
    if not t_lo <= t_hi:
        raise ValueError(f"t_range must have t_lo <= t_hi, got {t_range}")
    n_t = int(round((t_hi - t_lo) / h_t)) + 1
    t_grid = t_lo + h_t * np.arange(n_t)
    offs = h_y * np.arange(-2, 3)
    y1 = E_center - E_halfwidth + offs
    y2 = E_center + E_halfwidth + offs
    pairs = [(a, b) for a in y1 for b in y2]
    if any(b <= a for a, b in pairs):
        raise ValueError("stencil grids overlap: shrink h_y or widen the interval")
    grids = [NystromGrid.build(IntervalUnion(iv), m) for iv in pairs]
    nodes = np.reshape([g.nodes for g in grids], (len(y1), len(y2), m))
    weights = np.reshape([g.weights for g in grids], nodes.shape)
    Q = _log_gaps(t_grid.tolist(), nodes, weights, spec)
    if Q.max() > 1e-12:
        raise ArithmeticError("log gap should be <= 0")
    if Q.min() < math.log(1e-10):
        raise ArithmeticError("gap probability below 1e-10 in the stencil")
    return QSurface(t_grid=t_grid, y1_grid=y1, y2_grid=y2, Q=Q, h_t=h_t, h_y=h_y)


def pearcey_pde_residual(surface: QSurface) -> ResidualReport:
    """Residual of the third-order PDE at every interior stencil point.

    All derivatives are second-order centered; the pure t^3 derivative uses
    the five-point stencil, so two t-values at each end of the grid and the
    outer two y-offsets are consumed by the stencils.  Every time is
    assembled at once from slices of Q: G = dE^2 Q on the 3 x 3 block of
    (y1, y2) points around the centre, dE Q at the centre, and the t-shifts
    [4:], [3:-1], [1:-3], [:-4] of the times [2:-2].
    """
    h, ht = surface.h_y, surface.h_t
    jc = len(surface.y1_grid) // 2
    kc = len(surface.y2_grid) // 2
    y1c, y2c = surface.y1_grid[jc], surface.y2_grid[kc]
    if len(surface.t_grid) < 5:
        raise ValueError("need at least 5 time points for the t^3 stencil")
    Q = surface.Q[:, jc - 2:jc + 3, kc - 2:kc + 3]
    C = Q[:, 1:-1, 1:-1]
    d11 = (Q[:, 2:, 1:-1] - 2 * C + Q[:, :-2, 1:-1]) / h**2
    d22 = (Q[:, 1:-1, 2:] - 2 * C + Q[:, 1:-1, :-2]) / h**2
    d12 = (Q[:, 2:, 2:] - Q[:, 2:, :-2] - Q[:, :-2, 2:] + Q[:, :-2, :-2]) / (4 * h**2)
    G = d11 + 2 * d12 + d22
    dE = ((Q[:, 3, 2] - Q[:, 1, 2]) + (Q[:, 2, 3] - Q[:, 2, 1])) / (2 * h)
    q, g = Q[:, 2, 2], G[:, 1, 1]
    Qt3 = (q[4:] - 2 * q[3:-1] + 2 * q[1:-3] - q[:-4]) / (2 * ht**3)
    Gc = g[2:-2]
    G1 = G[2:-2, 2, 1] - G[2:-2, 0, 1]
    G2 = G[2:-2, 1, 2] - G[2:-2, 1, 0]
    dE_G = (G1 + G2) / (2 * h)
    eps_G = (y1c * G1 + y2c * G2) / (2 * h)
    dt_G = (g[3:-1] - g[1:-3]) / (2 * ht)
    W = (dE[3:-1] - dE[1:-3]) / (2 * ht)
    ts = surface.t_grid[2:-2]
    res = Qt3 + 0.125 * (eps_G - 2 * ts * dt_G - 2 * Gc) - 0.5 * (dE_G * W - Gc * dt_G)
    return ResidualReport(t_values=ts, residuals=res,
                          max_abs=float(np.abs(res).max()), h_t=ht, h_y=h,
                          y1=float(y1c), y2=float(y2c))


def small_interval_checks(t: float, x: float, h_list, m: int = 48,
                          spec: QuadratureSpec | None = None):
    """Leading small-interval coefficients of u over E = [x, x+h].

    Verifies dE u = h (pq)'(x) + O(h^2) and du/dt = (h/2)(p q'' - p''q)(x)
    + O(h^2): returns rows (h, dEu/h, du_dt/h) plus the two kernel-side
    targets; Richardson extrapolation is left to the caller/tests.  The time
    coefficient's sign follows the heat equations dp/dt = -p''/2,
    dq/dt = +q''/2 (to leading order du/dt = int_E (p_t q + p q_t)).  Per h,
    u at E +- eps is one fredholm._resolvents call.
    """
    spec = spec or QuadratureSpec()
    f = pearcey_pq(t, x, spec)
    p, dp, d2p = f.p, f.dp, f.d2p
    qv, dq, d2q = f.q, f.dq, f.d2q
    target_dE = dp * qv + p * dq          # (pq)'(x)
    target_dt = 0.5 * (p * d2q - d2p * qv)
    rows, dt_h = [], 5e-4
    for h in h_list:
        E, eps = IntervalUnion((x, x + h)), h * 0.05
        up, um = _resolvents(t, [E.shifted(eps), E.shifted(-eps)], m, spec)
        dEu = (up.u - um.u) / (2 * eps)
        dut = (resolvent_quantities(t + dt_h, E, m, spec).u
               - resolvent_quantities(t - dt_h, E, m, spec).u) / (2 * dt_h)
        rows.append((h, dEu / h, dut / h))
    return rows, target_dE, target_dt


def wronskian_coefficient(t: float, x: float,
                          spec: QuadratureSpec | None = None) -> float:
    """The non-vanishing coefficient 2pq(pq)'' - 3(p'q')'(p'q'' - p''q')
    at (t, x), expanded through the product rule on tabulated derivatives."""
    f = pearcey_pq(t, x, spec)
    p, dp, d2p = f.p, f.dp, f.d2p
    qv, dq, d2q = f.q, f.dq, f.d2q
    pq_dd = d2p * qv + 2 * dp * dq + p * d2q    # (pq)''
    pdqd_d = d2p * dq + dp * d2q                # (p'q')'
    return 2 * p * qv * pq_dd - 3 * pdqd_d * (dp * d2q - d2p * dq)
