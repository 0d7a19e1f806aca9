"""Composite Gauss-Legendre quadrature on real intervals and complex polylines.

All integrals in this package reduce to sums over directed straight legs
(a, b, panels), each carrying uniform composite Gauss-Legendre panels: the
contour legs of the kernels and every interval of a Nystrom grid.  One
builder serves them all: panels(legs) gives the panels' centres and
half-width vectors, and panel_rule turns them into nodes and weights, with
one order for every panel or one per panel.  Panels converge geometrically
wherever the integrand is analytic in a strip around them, so the callers
size them by width to that strip.  Grading survives only toward a contour
crossing, where the callers split a segment into single panels that double
in width away from it.  A panel's node count can follow its Bernstein ratio
rho, that of the largest ellipse with foci at its ends in which the
integrand stays analytic: N nodes leave an error of order rho^{-2N}.  The
adaptive finite-n tier sizes each panel so (kernels._adaptive_rules).  The
p/q tables keep their own panel arithmetic, which factors each node's
exponentials into a panel and an in-panel part (kernels._pq_quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


@cache
def _gl(n):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Newton on P_n, in extended precision where numpy has one, runs from the
    asymptotic guesses cos(pi (k - 1/4) / (n + 1/2)) (Hale & Townsend, SIAM
    J. Sci. Comput. 35, 2013) until its step is at rounding; the weights are
    2/((1 - x^2) P_n'(x)^2) at the converged nodes.  The guesses are made
    exactly odd, which the recurrence keeps, so the rule is exactly symmetric
    with its centre node at 0 for odd n.  Read-only: cached across calls.
    """
    theta = np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)
    x = np.cos(theta).astype(np.longdouble)
    x = (x - x[::-1]) / 2
    tol = 4 * np.finfo(x.dtype).eps
    for _ in range(20):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= tol:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre Newton did not converge at n={n}",
                              np.abs(step).max())
    _, dp = _legendre(n, x)
    rule = x.astype(float), (2 / ((1 - x * x) * dp * dp)).astype(float)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@cache
def _gl_table(nmax):
    """The Gauss-Legendre rules of every order 1..nmax end to end, as
    (nodes, weights, start) with order n at start[n]:start[n] + n.
    Read-only: cached across calls."""
    rules = [_gl(n) for n in range(1, nmax + 1)]
    table = (np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules]),
             np.concatenate([[0, 0], np.cumsum(np.arange(1, nmax))]))
    for arr in table:
        arr.flags.writeable = False
    return table


def panels(legs):
    """Centres and half-width vectors (centre to end) of the uniform panels
    of directed legs (a, b, panels), in order; real legs give real panels."""
    if not legs:
        return np.empty(0), np.empty(0)
    a, b, p = (np.array(c) for c in zip(*legs))
    step = (b - a) / p
    k = np.repeat(np.arange(len(p)), p)
    j = np.arange(p.sum()) - np.repeat(np.cumsum(p) - p, p)
    return a[k] + (j + 0.5) * step[k], step[k] / 2


def panel_rule(mid, hv, nodes):
    """Nodes and weights of Gauss-Legendre panels with centres mid and
    half-width vectors hv (from panels), in panel order; the weights include
    the direction factor.  nodes is one order for every panel, or an integer
    array of one order per panel, whose rules come from one table per
    multiple of 32."""
    if np.ndim(nodes) == 0:
        x, w = _gl(nodes)
        return (mid[:, None] + hv[:, None] * x).ravel(), (hv[:, None] * w).ravel()
    x, w, start = _gl_table(32 * -(-int(nodes.max()) // 32))
    k = np.repeat(np.arange(len(nodes)), nodes)
    idx = np.arange(nodes.sum()) + np.repeat(start[nodes] - np.cumsum(nodes) + nodes, nodes)
    return mid[k] + hv[k] * x[idx], hv[k] * w[idx]


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour-quadrature resolution: truncation radius L, composite panels
    per ray/segment, and GL nodes per panel.

    The truncation radius and panel count size the contour rules only.  The
    radius is the floor of the double-contour Pearcey kernel's contour
    length and the bound on the finite-n contours' length; each caller
    passes the length it settles on to kernels.build_contours, which takes
    no spec.  The panel count sets the contour panels' widths.  The p/q
    rule takes its length and panels from t and max |x| and only its nodes
    per panel from here (kernels._pq_L, kernels._pq_panels)."""

    truncation_radius: float = 6.0
    panels: int = 8
    nodes_per_panel: int = 32

    def __post_init__(self):
        if not 4.0 <= self.truncation_radius < math.inf:
            raise ValueError("truncation_radius must be finite and >= 4")
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("panels and nodes_per_panel must be >= 1")
        if self.panels * self.nodes_per_panel < 64:
            raise ValueError("panels*nodes_per_panel must be >= 64")

    def refined(self):
        return QuadratureSpec(self.truncation_radius, self.panels,
                              self.nodes_per_panel * 2)


class QuadratureError(RuntimeError):
    """Raised when a quadrature self-check fails; carries the achieved error."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved

