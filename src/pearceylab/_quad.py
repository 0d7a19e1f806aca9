"""Composite Gauss-Legendre quadrature on real intervals and complex polylines.

All contour integrals in this package reduce to sums over directed straight
segments, each carrying uniform composite Gauss-Legendre panels.  Panels
converge geometrically wherever the integrand is analytic in a strip around
them, so the callers size them by width to that strip.  Grading survives only
toward a contour crossing, where the callers split a segment into single
panels that double in width away from it.  A panel's node count can follow
its Bernstein ratio rho, that of the largest ellipse with foci at its ends in
which the integrand stays analytic: N nodes leave an error of order
rho^{-2N}.  The adaptive finite-n tier sizes each panel so
(kernels._adaptive_rules) and builds the rule with sized_panel_rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


@lru_cache(maxsize=32)
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


@lru_cache(maxsize=8)
def _gl_table(nmax):
    """The Gauss-Legendre rules of every order 1..nmax end to end, as
    (nodes, weights, start) with order n at start[n]:start[n] + n.  Built
    from _gl's uncached body, so that it leaves the rule cache as it was.
    Read-only: cached across calls."""
    rules = [_gl.__wrapped__(n) for n in range(1, nmax + 1)]
    table = (np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules]),
             np.concatenate([[0, 0], np.cumsum(np.arange(1, nmax))]))
    for arr in table:
        arr.flags.writeable = False
    return table


def sized_panel_rule(mid, hv, nodes):
    """Nodes and weights of Gauss-Legendre panels with centres mid, complex
    half-width vectors hv (from centre to end) and nodes[k] nodes on panel k,
    in panel order; the weights include the direction factor.  The orders
    come from one table per multiple of 32."""
    x, w, start = _gl_table(32 * -(-int(nodes.max()) // 32))
    k = np.repeat(np.arange(len(nodes)), nodes)
    idx = np.arange(nodes.sum()) + np.repeat(start[nodes] - np.cumsum(nodes) + nodes, nodes)
    return mid[k] + hv[k] * x[idx], hv[k] * w[idx]


def panel_rule(a, b, panels, nodes_per_panel):
    """Composite GL nodes and weights on the real interval [a, b], uniform
    panels."""
    gx, gw = _gl(nodes_per_panel)
    edges = np.linspace(a, b, panels + 1)
    los, his = edges[:-1], edges[1:]
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    x = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    return x, w


@lru_cache(maxsize=64)
def _unit_panels(panels, nodes_per_panel):
    """Uniform composite GL rule on [0, 1].  Read-only: cached across calls."""
    rule = panel_rule(0.0, 1.0, panels, nodes_per_panel)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def segment_rule(z0, z1, panels, nodes_per_panel):
    """Directed complex segment z0 -> z1 with uniform panels; weights include
    the direction factor."""
    s, w = _unit_panels(panels, nodes_per_panel)
    dz = z1 - z0
    return z0 + dz * s, dz * w


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


def thread_map(fn, items, threads=1):
    """Map over independent work items with an optional thread cap; results
    are ordered by index, so the output is thread-count independent."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
