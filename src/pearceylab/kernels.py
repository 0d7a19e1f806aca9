"""Pearcey, Airy, and finite-n Brownian-bridge kernels on descent contours.

Contour conventions
-------------------
The quartic ("X") contour consists of two open branches: one entering from
e^{i pi/4} infinity and leaving to e^{-i pi/4} infinity, the other entering
from e^{i 5pi/4} infinity and leaving to e^{i 3pi/4} infinity.  The companion
vertical line is traversed upward.  Both pass through the same centre; since
the integrand couples them through 1/(U - V), each X branch is indented by a
short vertical chord (right branch passing right of the line, left branch
left of it).  The kernel value is independent of the indentation width
(the integrand is analytic there), which we verify in tests.

The Pearcey kernel truncates the X (the q = 1 case of build_contours) at
|V| = L and the line at |U| = L, with L the p/q truncation length (_pq_L)
floored at spec.truncation_radius, 6 by default, where p and q floor it at
4.5.  Its integrand is entire and the chords keep the two contours apart,
so every leg carries uniform panels: Gauss-Legendre panels converge
geometrically wherever the integrand is analytic in a strip around them,
and grading toward the centre or the chord ends would resolve nothing.

With these orientations the equal-time Pearcey kernel satisfies

    K(x, y) = (p(x)q''(y) - p'(x)q'(y) + p''(x)q(y) - t p(x)q(y)) / (y - x),

with p the X-contour integral and q the vertical-line integral; the kernel
has a positive diagonal and obeys dK/dt = (-p'(x)q(y) + p(x)q'(y))/2.
It is an integrable kernel sum_k F_k(x) G_k(y) / (y - x), as the Airy
kernel is, and both fill their matrices through one _integrable_matrix.

The check that the contours descend sits beside them.  With the q-only
identities u0 - alpha = -1/r, u0 - beta = q/r, z0 - u0 = (q-1)/r, the
action around the quartic saddle depends on q alone (centered_action):

    F(u0 + w) - F(u0) = w^2/2 - w(q-1)/r + p log(1 - r w) + (1-p) log(1 + r w / q),

and _descent_rises samples it along build_contours' line and X.  The
finite-n cusp tier runs that scan once per (q, L), and
scaling.contour_descent_check reports it.

Finite-n kernels use the substitution U = c0*u*sqrt(n)/t0 onto contours
through the quartic saddle u0 near the cusp, and saddle-adapted contours
(vertical line through Re g(z) plus rectangular pole loops) elsewhere.
Because the finite-n V-contour is closed, the position of the U-line is
immaterial up to an explicitly added residue term when the line pierces a
loop; everything is evaluated with a common log-magnitude factored out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from ._quad import QuadratureError, QuadratureSpec, _gl, panel_rule, panels
from .spectral_curve import (CriticalData, find_cusp, group_sizes, solve_stieltjes,
                             TargetConfig)

__all__ = [
    "ContourPath", "PearceyPQ", "FiniteKernelParams",
    "build_contours", "centered_action", "pearcey_pq",
    "pearcey_kernel", "pearcey_kernel_grid", "pearcey_kernel_pq_form",
    "airy_kernel",
    "finite_n_kernel", "finite_n_kernel_scaled", "finite_n_kernel_grid",
    "finite_n_diagonal",
]


# ---------------------------------------------------------------------------
# contour paths


@dataclass(frozen=True)
class ContourPath:
    """Piecewise-linear directed contour; branch_breaks mark where a new
    disconnected branch begins in `nodes`."""

    nodes: tuple
    label: str
    center: complex = 0.0
    branch_breaks: tuple = ()

    def __post_init__(self):
        for a, b in self.segments():
            if a == b:
                raise ValueError("consecutive contour nodes must be distinct")

    def branches(self):
        marks = (0,) + tuple(self.branch_breaks) + (len(self.nodes),)
        for lo, hi in zip(marks[:-1], marks[1:]):
            yield self.nodes[lo:hi]

    def segments(self):
        for br in self.branches():
            for a, b in zip(br[:-1], br[1:]):
                yield a, b


def _corner(q):
    """X-contour corner parameter s = q/(r|q-1|), r = sqrt(q^2 - q + 1);
    infinite at q = 1, where the X has no horizontal continuations."""
    if q == 1.0:
        return math.inf
    return q / (math.sqrt(q * q - q + 1.0) * abs(q - 1.0))


def build_contours(q: float, L: float, center: complex = 0.0, pinch_gap: float = 0.0):
    """Steepest-descent contours for the quartic saddle at `center`.

    Returns (u_contour, v_contour): the vertical line through the centre from
    center - iL to center + iL, and the X-shaped loop pair with corner
    parameter s = q/(r|q-1|): diagonals to the corners center +- D(1 +- i),
    D = min(s, L), and where s < L horizontal continuations of length L
    (outward right for q > 1, outward left for q < 1).  q = 1 is the pure X
    of the Pearcey kernel, with corners at |V - center| = L sqrt 2.  A
    positive pinch_gap indents each V branch away from the line by a
    vertical chord at distance min(pinch_gap, D/2).  A non-finite or
    non-positive q or L raises ValueError.
    """
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    if not 0.0 < L < math.inf:
        raise ValueError("contour length L must be finite and positive")
    diag = min(_corner(q), L)          # diagonal half-extent measured in Re
    d = min(pinch_gap, diag / 2.0)
    u = ContourPath(nodes=(center - 1j * L, center + 1j * L), label="imaginary-axis",
                    center=center)
    chord = [d * (1 + 1j), d * (1 - 1j)] if d > 0 else [0.0]
    arm = [diag * (1 + 1j), *chord, diag * (1 - 1j)]   # corner, chord or centre, corner
    right = [center + z for z in arm]
    left = [center - z for z in arm]
    if q > 1.0 and diag < L:
        right = [right[0] + L] + right + [right[-1] + L]
    if q < 1.0 and diag < L:
        left = [left[0] - L] + left + [left[-1] - L]
    nodes = tuple(right) + tuple(left)
    label = "v-loop-q=1" if q == 1.0 else ("v-loop-q>1" if q > 1 else "v-loop-q<1")
    v = ContourPath(nodes=nodes, label=label, center=center, branch_breaks=(len(right),))
    return u, v


def centered_action(w, q):
    """F(u0 + w) - F(u0) as a function of q alone (complex w allowed)."""
    r = math.sqrt(q * q - q + 1.0)
    p = 1.0 / (1.0 + q**3)
    w = np.asarray(w, dtype=complex)
    return (w * w / 2.0 - w * (q - 1.0) / r
            + p * np.log(1.0 - r * w) + (1.0 - p) * np.log(1.0 + r * w / q))


def _descent_rises(q, u, v, samples):
    """Steepest-descent scan of the contours (u, v) for q: Re F must fall away
    from the saddle along the u-line, and -Re F with arclength distance from
    the centre along every v-segment (horizontal continuations included), each
    sampled at `samples` points.  Returns (rises, checked_points), a rise
    being (label, segment, distance, amount) wherever a sampled value exceeds
    its predecessor by more than 1e-11 (1 + |value|)."""
    center = v.center
    L = max(abs(u.nodes[0] - center), abs(u.nodes[-1] - center))
    runs = []   # (label, segment, distances from the centre, values that must fall)
    for sgn in (1.0, -1.0):
        y = np.linspace(0.0, sgn * L, samples)
        runs.append(("u-line", 0, np.abs(y), centered_action(1j * y, q).real))
    s = np.linspace(0.0, 1.0, samples)
    for branch in v.branches():
        pts = np.array(branch)
        arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts)))])
        i0 = int(np.argmin(np.abs(pts - center)))
        for seg_idx, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
            dist = np.abs(arc[seg_idx] + s * abs(b - a) - arc[i0])
            vals = -centered_action(a + (b - a) * s - center, q).real
            order = np.argsort(dist)
            runs.append((v.label, seg_idx, dist[order], vals[order]))
    rises = []
    for label, seg_idx, dist, vals in runs:
        rise = np.diff(vals)
        for k in np.flatnonzero(rise > 1e-11 * (1.0 + np.abs(vals[:-1]))):
            rises.append((label, seg_idx, float(dist[k + 1]), float(rise[k])))
    return rises, samples * len(runs)


def _legs_rule(legs, nodes_per_panel):
    """Nodes and weights over directed legs (a, b, panels) of uniform panels,
    concatenated in order."""
    return panel_rule(*panels(legs), nodes_per_panel)


def _bernstein_log_rho(mid, hv, p0, p1):
    """log rho of the smallest Bernstein ellipse of the panel with centre mid
    and half-width vector hv that reaches the segment from p0 to p1 (a point
    where p0 == p1), over complex arrays that broadcast together: panels
    mid[:, None], hv[:, None] against segments p0, p1 give a panels x
    segments array.

    In a panel's own coordinate, which maps it onto [-1, 1], E_rho has foci
    +-1 and semi-major axis A = (rho + 1/rho)/2, so rho = A + sqrt(A^2 - 1)
    follows from the least |z - 1| + |z + 1| = 2 A over the segment.  That
    sum is convex along the segment's line and least where the line crosses
    the chord from one focus to the other or to its mirror image:
    s = (s_- d_+ + s_+ d_-)/(d_- + d_+), with s_+- the foci's positions along
    the line and d_+- their distances from it (where both are 0, the point
    nearest the centre).  Clipped to the segment, s gives its least sum."""
    z0 = (p0 - mid) / hv
    e = (p1 - p0) / hv
    ce = e.conjugate()
    up = (1.0 - z0) * ce        # position |e|^2 Re, and distance |e| |Im|, of +1
    um = up - 2.0 * ce          # and of -1
    dp, dm = np.abs(up.imag), np.abs(um.imag)
    d = dp + dm
    s = np.where(d > 0, (um.real * dp + up.real * dm) / np.maximum(d, 1e-300),
                 (up.real + um.real) / 2) / np.maximum(e.real**2 + e.imag**2, 1e-300)
    z = z0 + s.clip(0.0, 1.0) * e
    return np.arccosh(np.maximum((np.abs(z - 1.0) + np.abs(z + 1.0)) / 2, 1.0))


def _gl_error_bound(log_rho, nodes):
    """(64/15) rho^{-2N} / (rho^2 - 1): the error of an N-node Gauss-Legendre
    panel on a function analytic and bounded by 1 inside its Bernstein
    ellipse E_rho (Trefethen, Approximation Theory and Approximation
    Practice, ch. 19); infinite at rho = 1."""
    if log_rho <= 0.0:
        return math.inf
    return 64.0 / 15.0 * math.exp(-2.0 * nodes * log_rho) / math.expm1(2.0 * log_rho)


@lru_cache(maxsize=8)
def _resolving_log_rho(nodes):
    """The log rho below which N = nodes misses 1e-13 (_gl_error_bound)."""
    lo, hi = 0.0, 50.0
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if _gl_error_bound((lo + hi) / 2, nodes) > 1e-13 \
            else (lo, (lo + hi) / 2)
    return hi


def _uniform_leg(a, b, width):
    """Leg (for _legs_rule) from a to b with uniform panels no wider than
    `width`."""
    return (a, b, max(1, math.ceil(abs(b - a) / width)))


def _crossing_legs(far, at, width, inner, outward=False):
    """Legs (for _legs_rule) between `far` and a contour crossing at `at`,
    directed toward the crossing, or away from it if outward.  From the
    crossing, single panels `inner`, 2 inner, 4 inner, ... wide follow until
    they reach `width`; uniform panels no wider than `width` fill the rest."""
    length = abs(far - at)
    unit = (far - at) / length
    edges, w = [0.0], inner
    while w < width and edges[-1] + 2.0 * w < length:
        edges.append(edges[-1] + w)
        w *= 2.0
    legs = [_uniform_leg(far, at + edges[-1] * unit, width)]
    legs += [(at + s1 * unit, at + s0 * unit, 1) for s0, s1 in zip(edges[:-1], edges[1:])]
    return [(b, a, p) for a, b, p in legs] if outward else legs


def _radial_legs(a, b, center, r, fine, coarse):
    """Legs from a to b with uniform panels no wider than `fine` within
    distance r of center and `coarse` beyond.  The distance from center must
    be monotone along the segment unless it stays within r."""
    da, db = abs(a - center), abs(b - center)
    if max(da, db) <= r or min(da, db) >= r:
        return [_uniform_leg(a, b, fine if max(da, db) <= r else coarse)]
    near, e = (a, b - a) if da < db else (b, a - b)
    # the root in [0, 1] of |near - center + s e|^2 = r^2
    o = near - center
    half = (o * e.conjugate()).real
    s = (math.sqrt(half * half - abs(e) ** 2 * (abs(o) ** 2 - r * r)) - half) / abs(e) ** 2
    m = near + s * e
    wa, wb = (fine, coarse) if da < db else (coarse, fine)
    return [_uniform_leg(a, m, wa), _uniform_leg(m, b, wb)]


# entries (V rows x U nodes) per block of the Cauchy contraction: its one
# real buffer of two blocks, inv = 1/|D|^2 (then its square root) above
# e = Im D (then e/|D|^2), stays in a core's L2 cache (64 rows at 512 U
# nodes).  On the contractions of two finite-n diagonal profiles, 2^15 and
# 2^16 time alike and 2^14 and 2^17 are 10-15% slower
_CAUCHY_BLOCK = 1 << 15


def _cauchy_contract(A, kV, kU, B):
    """(A^T C B, |A|^T |C| |B|) for the Cauchy coupling C = 1/(kU - kV)
    between V nodes kV (the rows of A) and U nodes kU (the rows of B): the
    double-contour sum behind the Pearcey and both finite-n kernels, with the
    quadrature weights folded into A and B.  The second term, the absolute
    mass, scales the rounding noise in each entry of the first.

    The U nodes must lie on one vertical line, kU = c + i h with kU.real
    constant (every caller's U contour is one); otherwise ValueError.  Then
    D = kU - kV = a + i e has a = c - Re kV, one value per V row, and C is
    never formed: blocks of V nodes (_CAUCHY_BLOCK coupling entries at a
    time) stream through real buffers holding e and inv = 1/|D|^2, so that
    1/D = (a - i e) inv costs one real GEMM of [inv; e inv] against
    [Re B, Im B] per block, with a applied to its rows afterwards, and
    |C| |B| is sqrt(inv) |B|.
    """
    c = kU.real[0]
    if (kU.real != c).any():
        raise ValueError("U nodes must lie on one vertical line")
    ny = B.shape[1]
    a = (c - kV.real)[:, None]
    a2 = a * a
    B_ri = np.concatenate([B.real, B.imag], axis=1)
    B_abs = np.abs(B)
    # e = Im D by one K=2 GEMM: rows (1, -Im kV) against [Im kU; 1], so each
    # entry is the same single rounded subtraction; one BLAS thread writes a
    # 93 x 352 block in a fifth of the time of a broadcast np.subtract
    right = np.stack([kU.imag, np.ones(len(kU))])
    left = np.stack([np.ones(len(kV)), -kV.imag], axis=1)
    rows = max(1, min(len(kV), _CAUCHY_BLOCK // len(kU)))
    buf = np.empty((2 * rows, len(kU)))
    CB = np.empty((len(kV), ny), dtype=complex)    # (1/D) B, a row per V node
    CB_abs = np.empty((len(kV), ny))               # |1/D| |B|
    for i0 in range(0, len(kV), rows):
        m = min(rows, len(kV) - i0)
        blk = slice(i0, i0 + m)
        ie = buf[:2 * m]
        inv, e = ie[:m], ie[m:]
        np.matmul(left[blk], right, out=e)
        np.square(e, out=inv)      # same bits as np.multiply(e, e), in half the time
        inv += a2[blk]
        np.reciprocal(inv, out=inv)
        e *= inv
        # 1/D = a inv - i e now, and (a inv - i e)(Br + i Bi) takes one real GEMM
        P = ie @ B_ri
        CB.real[blk] = a[blk] * P[:m, :ny] + P[m:, ny:]
        CB.imag[blk] = a[blk] * P[:m, ny:] - P[m:, :ny]
        np.sqrt(inv, out=inv)
        CB_abs[blk] = inv @ B_abs
    return A.T @ CB, np.abs(A).T @ CB_abs


# ---------------------------------------------------------------------------
# Pearcey p/q functions


@dataclass(frozen=True)
class PearceyPQ:
    """p, q and first three derivatives at (t, x), as checked by pq_tables."""

    t: float
    x: float
    p: float
    dp: float
    d2p: float
    d3p: float
    q: float
    dq: float
    d2q: float
    d3q: float

    def p_values(self):
        return np.array([self.p, self.dp, self.d2p, self.d3p])

    def q_values(self):
        return np.array([self.q, self.dq, self.d2q, self.d3q])

    def ode_residuals(self):
        rp = self.d3p - self.t * self.dp + self.x * self.p
        rq = self.d3q - self.t * self.dq - self.x * self.q
        return abs(rp), abs(rq)


def _pq_L(t, x, floor=4.5):
    """Truncation length of the p/q integrals at time t and largest |x|: past
    it the Gaussian decay exp(-v^4/4) outweighs exp(|t| v^2/2) and p's growth
    exp(|x| v/sqrt 2).  The floor sits well past the 3.6 where exp(-v^4/4)
    drops below 1e-17, so that every |t| <= 0.6 with |x| <= 3.7 shares one
    length and a PDE stencil there is one run of _pq_quadrature.
    pearcey_kernel_grid floors its contours at spec.truncation_radius."""
    return max(floor, (4.0 * abs(x)) ** (1.0 / 3.0) + 2.0, math.sqrt(2.0 * abs(t)) + 3.0)


def _pq_panels(t, x, L, spec):
    """Panels per half-line of the p/q rule: 8 nodes per oscillation of the
    integrand on [-L, L], and at least 2."""
    osc = L * (abs(x) / math.sqrt(2.0) + abs(t) * L / 2.0)
    need = int(osc / (2.0 * math.pi) * 8) + 1
    return max(2, -(-need // spec.nodes_per_panel))


def _exp_outer(z, a, xs, out):
    """exp(z a_i x_j) over real arrays a and xs, written into the complex
    array out; for imaginary z by real cos and sin, which cost less than half
    of a complex exp."""
    y = a[:, None] * xs
    if z.real:
        return np.exp(np.multiply(z, y, out=out), out=out)
    y *= z.imag
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


def _separable_sum(c, inner, outer, T):
    """sum_{p,j} c[k, p, j] exp(z (mid_p + hg_j) x) over an array of x, for
    coefficients c of shape (4, panels, nodes_per_panel), given the in-panel
    factors inner = exp(z hg_j x) and the panel factors outer = exp(z mid_p x)
    (_exp_outer): one GEMM against the in-panel factors gives the panel sums
    T[k, p, x], written into the complex array T, which the panel factors
    then weight and add up.  Real c meets the interleaved real and imaginary
    parts of the factors in a real GEMM."""
    c2 = c.reshape(-1, inner.shape[0])
    if np.iscomplexobj(c):
        np.matmul(c2, inner, out=T)
    else:
        np.matmul(c2, inner.view(float), out=T.view(float))
    return np.einsum("kpx,px->kx", T.reshape(*c.shape[:2], -1), outer)


@lru_cache(maxsize=64)
def _pq_rule(t, L, panels, nodes_per_panel):
    """The node set shared by p and q, 2*panels uniform Gauss-Legendre panels
    of half-width h = L/(2 panels) on [-L, L], as (mid, hg, cq, cp): panel
    midpoints, in-panel offsets h g_j (node v = mid_p + h g_j), and the
    coefficients c[k, p, j] = v^k w_j base(v) of q (real Gaussian base) and
    p (complex base; the weights change sign on the positive half, where its
    X-contour branch runs inward).  Read-only: cached across calls, and the
    cache holds the 38-40 rules of one round of the pearcey-fredholm
    benchmark (a rule and its refinement per distinct time), under 1 MB in
    all at the default spec."""
    gx, gw = _gl(nodes_per_panel)
    h = L / (2 * panels)
    mid = -L + h * (2.0 * np.arange(2 * panels) + 1.0)
    v = mid[:, None] + h * gx
    v2 = v * v
    powers = np.stack([np.ones_like(v), v, v2, v2 * v])
    w = h * gw
    cq = powers * (w * np.exp(-v2 * v2 / 4.0 - t * v2 / 2.0))
    sign = np.where(mid < 0.0, 1.0, -1.0)[:, None]
    cp = powers * (sign * w * np.exp(-v2 * v2 / 4.0 - 0.5j * t * v2))
    rule = (mid, h * gx, cq, cp)
    for arr in rule:
        arr.flags.writeable = False
    return rule


# p's X-contour direction e^{i pi/4}, and the prefactors that turn the
# derivative order k's raw sums into p^{(k)} (before its imaginary part) and q^{(k)}
_E8 = np.exp(1j * math.pi / 4.0)
_K = np.arange(4)[:, None]
_P_K = _E8 ** (_K + 1)
_Q_K = -((-1j) ** _K) / (2.0 * math.pi)


def _pq_quadrature(ts, xs, spec):
    """Raw quadrature of p^{(k)}(x), q^{(k)}(x), k < 4, over the array xs,
    yielded as (P, Q) for each time of ts in turn, on rules whose truncation
    length and panel count are set by t and max |x| alone (_pq_L,
    _pq_panels); spec gives only the nodes per panel.  Derivatives insert
    powers of the integration variable; P is real, Q keeps the imaginary part
    the quadrature leaves.

    Both integrals run over the one node set of _pq_rule.  Each exponential
    then factors, exp(z v x) = exp(z mid_p x) exp(z h g_j x) with z = -i for
    q and e^{i pi/4} for p, so a node of x costs 2*panels + nodes_per_panel
    exponentials per function instead of one per rule node.  Those factors
    depend on the rule's (L, panels) and on xs but not on t, so successive
    times on one rule share them: each time adds only its GEMM and panel sum
    against its own coefficients.  Such a run of times is tabulated for p,
    then for q, so that only one function's factors are held at once.  The
    v <-> -v symmetry of the rule is deliberately not folded into cosine and
    sine sums: that would make Im q exactly zero, and pq_tables checks it as
    the quadrature's rounding residue.
    """
    xmax = float(np.abs(xs).max(initial=0.0))
    rules = []
    for t in ts:
        L = _pq_L(t, xmax)
        panels = _pq_panels(t, xmax, L, spec)
        rules.append(((L, panels), _pq_rule(t, L, panels, spec.nodes_per_panel)))
    for _, run in groupby(rules, key=lambda r: r[0]):
        run = [rule for _, rule in run]
        mid, hg = run[0][:2]
        # one set of work arrays per run, which both functions and every time
        # reuse: fresh ones between the times' other allocations fragment the
        # heap and raise the process's peak memory by about 1 MB
        Ps = np.empty((len(run), 4, len(xs)))
        T = np.empty((4 * len(mid), len(xs)), dtype=complex)
        inner = np.empty((len(hg), len(xs)), dtype=complex)
        outer = np.empty((len(mid), len(xs)), dtype=complex)
        _exp_outer(_E8, hg, xs, inner)
        _exp_outer(_E8, mid, xs, outer)
        for P, (_, _, _, cp) in zip(Ps, run):
            np.divide(np.imag(_P_K * _separable_sum(cp, inner, outer, T)), math.pi, out=P)
        _exp_outer(-1j, hg, xs, inner)
        _exp_outer(-1j, mid, xs, outer)
        for P, (_, _, cq, _) in zip(Ps, run):
            yield P, _Q_K * _separable_sum(cq, inner, outer, T)


def _pq_checked(ts, xs, spec):
    """Checked tables (P, Q) of pq_tables, yielded for each time of ts in
    turn from one tabulation on the node array xs (_pq_quadrature); every
    time passes all three checks before its tables are yielded."""
    if not (all(abs(t) <= 50.0 for t in ts) and np.abs(xs).max(initial=0.0) <= 50.0):
        raise ValueError("p/q envelope is |t|, |x| <= 50")
    ends = [int(xs.argmin()), int(xs.argmax())] if xs.size else []
    refined = _pq_quadrature(ts, xs[ends], spec.refined())
    for t, (P, Q), (P2, Q2) in zip(ts, _pq_quadrature(ts, xs, spec), refined):
        scale = np.maximum(1.0, np.maximum(np.abs(P).max(axis=0), np.abs(Q).max(axis=0)))
        if ends:
            err = np.maximum(np.abs(P[:, ends] - P2).max(axis=0),
                             np.abs(Q[:, ends] - Q2).max(axis=0))
            if not (err <= 1e-8 * scale[ends]).all():
                raise QuadratureError(
                    f"p/q quadrature did not converge at t={t}, x in [{xs.min()}, {xs.max()}]",
                    achieved=float(err.max()))
        resid = np.maximum(np.abs(P[3] - t * P[1] + xs * P[0]),
                           np.abs(Q[3] - t * Q[1] - xs * Q[0]))
        if not (resid <= 1e-8 * scale).all():
            raise QuadratureError(f"Pearcey ODE residual {resid.max():.2e} at t={t}",
                                  achieved=float(resid.max()))
        imag = np.abs(Q.imag).max(axis=0)
        if not (imag <= 1e-10 * scale).all():
            raise QuadratureError(f"p/q imaginary part {imag.max():.2e} exceeds tolerance at t={t}",
                                  achieved=float(imag.max()))
        yield P, Q.real


def pq_tables(t, xs, spec=None):
    """Checked p^{(k)}(x), q^{(k)}(x), k = 0..3, tabulated over an array of x.

    Returns real (P, Q) of shape (4, len(xs)); used for Nystrom assembly.
    This is the one-time case of _pq_checked, which tabulates many times on
    one node array and checks each time as this does.  p and q share one
    Gauss-Legendre node set whose exponentials separate into a panel factor
    and an in-panel factor (_pq_quadrature), so a node of x costs
    2*panels + nodes_per_panel exponentials per function, and times
    tabulated together share them.  Every node must satisfy both third-order
    ODEs and carry a negligible imaginary part of q, which the rule leaves
    as rounding residue because its v <-> -v symmetry is not folded into
    real cosine sums; the smallest and largest node must agree with the
    table at spec.refined(), an independent rule of twice the nodes per
    panel.  Checking the extremes suffices because the truncation length and
    panel count are set by t and max |x| (_pq_L, _pq_panels), not by spec's
    truncation radius or panel count, which size the contour rules: at
    |t| <= 0.6 and |x| <= 3.7 the rule is 2 panels per half-line on
    [-4.5, 4.5], 128 nodes at the default 32 per panel.  Tolerances scale with
    max(1, |p^{(k)}|, |q^{(k)}|) at each node.
    """
    return next(_pq_checked((t,), np.asarray(xs, dtype=float), spec or QuadratureSpec()))


def pearcey_pq(t: float, x: float, spec: QuadratureSpec | None = None) -> PearceyPQ:
    """p, q and derivatives to third order at one point: the pq_tables table
    at the single node x, so it carries the refinement, ODE-residual,
    imaginary-part and envelope checks."""
    P, Q = pq_tables(t, [x], spec)
    return PearceyPQ(t, x, *P[:, 0], *Q[:, 0])


# ---------------------------------------------------------------------------
# Pearcey kernel, both representations


def pearcey_kernel_grid(s: float, t: float, xs, ys, spec: QuadratureSpec | None = None):
    """Extended Pearcey kernel K_{s,t}(x, y) on a grid, double-contour form.

    The contours run to the truncation length L of p and q (_pq_L), floored
    at spec.truncation_radius: the U line from -iL to iL, and the q = 1 X of
    build_contours at length L/sqrt 2, whose corners then sit at |V| = L,
    indented by chords at d = min(1, L/6).  The integrand is entire and no
    V node comes closer than d to the line, so uniform Gauss-Legendre
    panels converge geometrically on every leg and nothing is graded.
    Panels are at most 4L/spec.panels wide, narrowed by max|x|/5 or
    max(|s|, |t|)/3 where either exceeds 1: the exponentials then oscillate
    and cancel faster.

    The x- and y-dependent exponentials, weights folded in, go through one
    Cauchy contraction, so a full grid costs little more than a point.
    Includes the Gaussian correction term when s < t.  Raises QuadratureError
    where the contraction's rounding bound, 1e-16 of its absolute mass,
    exceeds 1e-8 max(1, |K|), the tolerance pq_tables keeps, or where the
    imaginary part exceeds 1e-9 (1 + max|K|).  Non-finite s, t, xs or ys
    raise ValueError.
    """
    spec = spec or QuadratureSpec()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if not (math.isfinite(s) and math.isfinite(t) and np.isfinite(xs).all()
            and np.isfinite(ys).all()):
        raise ValueError("pearcey kernel grid needs finite s, t, xs and ys")
    xm = float(np.abs(xs).max()) if xs.size else 0.0
    ym = float(np.abs(ys).max()) if ys.size else 0.0
    L = max(_pq_L(t, ym, spec.truncation_radius), _pq_L(s, xm, spec.truncation_radius))
    width = 4.0 * L / (spec.panels * max(1.0, max(xm, ym) / 5.0, max(abs(s), abs(t)) / 3.0))
    _, x_path = build_contours(1.0, L / math.sqrt(2.0), pinch_gap=min(1.0, L / 6.0))
    U, WU = _legs_rule([_uniform_leg(-1j * L, 1j * L, width)], spec.nodes_per_panel)
    V, WV = _legs_rule([_uniform_leg(a, b, width) for a, b in x_path.segments()],
                       spec.nodes_per_panel)
    A = (WV * np.exp(V**4 / 4.0 - s * V**2 / 2.0))[:, None] * np.exp(np.outer(V, xs))
    B = (WU * np.exp(-U**4 / 4.0 + t * U**2 / 2.0))[:, None] * np.exp(-np.outer(U, ys))
    contraction, mass = _cauchy_contract(A, V, U, B)
    scale = 1.0 / (4.0 * math.pi**2)
    out = -scale * contraction
    gauss = 0.0
    if s < t:
        dx = xs[:, None] - ys[None, :]
        gauss = np.exp(-dx * dx / (2.0 * (t - s))) / math.sqrt(2.0 * math.pi * (t - s))
    noise = 1e-16 * scale * mass
    lost = noise > 1e-8 * np.maximum(1.0, np.abs(out.real - gauss))
    if lost.any():
        raise QuadratureError("pearcey kernel grid lost digits to cancellation",
                              achieved=float(noise[lost].max()))
    imag = float(np.abs(out.imag).max(initial=0.0))
    if imag > 1e-9 * (1.0 + np.abs(out.real).max(initial=0.0)):
        raise QuadratureError("pearcey kernel grid has non-negligible imaginary part",
                              achieved=imag)
    return out.real - gauss


def pearcey_kernel(s: float, t: float, x: float, y: float,
                   spec: QuadratureSpec | None = None) -> float:
    """Extended Pearcey kernel at a point (double contour integral plus the
    Gaussian correction for s < t)."""
    return float(pearcey_kernel_grid(s, t, [x], [y], spec)[0, 0])


def pearcey_kernel_pq_form(t: float, x: float, y: float,
                           spec: QuadratureSpec | None = None) -> float:
    """Equal-time Pearcey kernel through the p/q functions.

    K(x,y) = (p(x)q''(y) - p'(x)q'(y) + p''(x)q(y) - t p(x)q(y)) / (y - x);
    on the diagonal the limit p q''' - p' q'' + p'' q' - t p q' is used.
    """
    return float(pearcey_kernel_matrix(t, [x], [y], spec)[0, 0])


def _coincident(xs, ys):
    """Index of the entries of xs x ys with x == y, where an integrable kernel
    takes its diagonal limit; leading axes of xs and ys stack grids."""
    return np.nonzero(np.abs(ys[..., None, :] - xs[..., :, None])
                      < 1e-13 * (1.0 + np.abs(xs)[..., :, None]))


def _integrable_matrix(F, xs, G, dG, ys, same=None):
    """Matrix of the integrable kernel sum_k F_k(x) G_k(y) / (y - x) over
    xs x ys, from the tables F_k at xs and G_k, G_k' at ys (sequences of
    arrays).  The numerator is one rank-len(F) matrix product, and the
    entries same = _coincident(xs, ys), found here unless given, take the
    limit sum_k F_k(x) G_k'(x), which holds because the numerator vanishes
    on the diagonal.  Leading axes of xs and ys, which every table then
    carries too, stack grids into a stack of matrices, filled in place."""
    if same is None:
        same = _coincident(xs, ys)
    out = np.stack(F, axis=-1) @ np.stack(G, axis=-2)
    den = np.subtract(ys[..., None, :], xs[..., :, None])
    den[same] = 1.0
    out /= den
    ii, jj = same[:-1], same[:-2] + same[-1:]
    out[same] = sum(f[ii] * g[jj] for f, g in zip(F, dG))
    return out


def _pearcey_kernel_from_tables(t, xs, P, ys, Q, same=None):
    """Equal-time kernel matrix from the p-table P at xs and the q-table Q at
    ys, stacked as xs and ys are: the integrable kernel with F = (p, -p', p'')
    and G = (q'' - t q, q', q), whose diagonal limit is
    p q''' - p' q'' + p'' q' - t p q'."""
    return _integrable_matrix((P[0], -P[1], P[2]), xs, (Q[2] - t * Q[0], Q[1], Q[0]),
                              (Q[3] - t * Q[1], Q[2], Q[1]), ys, same)


def pearcey_kernel_matrix(t, xs, ys, spec=None):
    """Equal-time kernel matrix via tabulated p/q families (fast Nystrom fill);
    each distinct node set is tabulated once.

    Entries with x == y use the analytic diagonal limit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    P, Q = pq_tables(t, xs, spec)
    if not np.array_equal(xs, ys):
        _, Q = pq_tables(t, ys, spec)
    return _pearcey_kernel_from_tables(t, xs, P, ys, Q)


# ---------------------------------------------------------------------------
# Airy function and kernel


def airy_kernel(x: float, y: float) -> float:
    """Airy kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y), diagonal by limit:
    airy_kernel_matrix at one point."""
    return float(airy_kernel_matrix([x], [y])[0, 0])


def airy_kernel_matrix(xs, ys):
    """Airy kernel matrix over xs x ys: the integrable kernel with
    F = (Ai', -Ai) and G = (Ai, Ai'), whose diagonal limit is
    Ai'(x)^2 - x Ai(x)^2 since Ai'' = x Ai.  Ai and Ai' come from
    scipy.special.airy, once when ys equals xs."""
    from scipy.special import airy     # imported here: only this kernel needs scipy
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ax, apx, _, _ = airy(xs)
    ay, apy = (ax, apx) if np.array_equal(xs, ys) else airy(ys)[:2]
    return _integrable_matrix((apx, -ax), xs, (ay, apy), (apy, ys * ay), ys)


# ---------------------------------------------------------------------------
# finite-n kernel


@dataclass(frozen=True)
class FiniteKernelParams:
    """Finite-n bridge kernel instance; fractions are rounded to integer group
    sizes n1 + n2 = n by group_sizes, as the Monte Carlo ensembles round them,
    and the critical data uses the effective p = n1/n."""

    n: int
    a: float
    b: float
    p: float
    t_k: float
    t_l: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not self.a > self.b:
            raise ValueError("requires a > b")
        for t in (self.t_k, self.t_l):
            if not 0.0 < t < 1.0:
                raise ValueError("times must lie in (0,1)")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0,1)")
        self.n1     # group_sizes raises ValueError on an empty group

    @cached_property
    def n1(self):
        """Paths to the upper target a."""
        return group_sizes(self.n, (1.0 - self.p, self.p))[1]

    @property
    def n2(self):
        return self.n - self.n1

    @property
    def p_eff(self):
        return self.n1 / self.n

    def critical(self) -> CriticalData:
        return find_cusp(self.a, self.b, self.p_eff)


def _two_target(params, t):
    """The spectral curve's problem behind params at time t: targets (b, a)
    with fractions (1 - p_eff, p_eff)."""
    return TargetConfig(targets=(params.b, params.a),
                        fractions=(1.0 - params.p_eff, params.p_eff), time=t)


def _spectral_z(params, t, coord):
    """Spectral-curve coordinate z = coord/(sqrt(n) c(t)), c(t) = sqrt(t(1-t)/2),
    of a Brownian coordinate (or an array of them) at time t."""
    return coord / (math.sqrt(params.n) * math.sqrt(t * (1.0 - t) / 2.0))


@lru_cache(maxsize=64)
def _descent_checked(q, L):
    """Steepest-descent check of the contours for q at radius L, once per pair."""
    rises, _ = _descent_rises(q, *build_contours(q, L), 64)
    if rises:
        raise ArithmeticError(f"steepest-descent check failed for q={q}: "
                              f"{max(r[3] for r in rises)}")


def _cusp_L(spec, dz_max):
    """Truncation radius of the cusp-tier contours.  For probe points with
    z != z0 the action acquires a linear tilt n (z - z0) Re(v - u0) that beats
    the |v|^{-n} tail decay at large radius, so the radius is capped at 1/dz,
    which maximizes the edge decay rate, and floored at 4:
    L = max(4, min(spec.truncation_radius, 1/dz))."""
    if dz_max > 0:
        return max(min(spec.truncation_radius, 1.0 / dz_max), 4.0)
    return spec.truncation_radius


# the largest open-branch tail (_open_tail) the cusp tier accepts: the
# adaptive tier's per-panel target
_OPEN_TAIL_TOL = 1e-13


def _open_tail(params, crit, L, xs):
    """Size of the V integrand where the cusp-tier X's open branch stops,
    relative to its size at the saddle u0, largest over the V coordinates xs.

    Where the corner parameter s < L (q != 1), build_contours continues one
    X branch horizontally and stops the other, the open one (left for q > 1,
    right for q < 1), at its corners u0 -+ s(1 +- i), whose integrands are
    conjugate in size.  At the cusp point the ratio is e^{-n dF}, dF the real
    part of centered_action at the corners (0.944 at q = 1.913, 0.809 at
    q = 2), and the tail left out measured 2% of it or less at n = 8 and 16.
    0 where no branch is open."""
    s = _corner(crit.q)
    if s >= L:
        return 0.0
    ends = np.array([[crit.u0 + math.copysign(s, 1.0 - crit.q) * (1 + 1j)], [crit.u0]])
    psi = _psi_cusp_real(ends, crit.c0 * math.sqrt(params.n) / crit.t0, params.t_k,
                         np.asarray(xs, dtype=float), params.n1, params.n2,
                         crit.alpha, crit.beta)
    # the V integrand is exp(-psi)
    return math.exp(min(float((psi[1] - psi[0]).max()), 700.0))


def _cusp_rules(crit: CriticalData, n, spec, L):
    """Contour rules through the quartic saddle, truncated at radius L
    (_cusp_L).

    The X's chords keep it a distance d from the U line, d no larger than the
    n^{-1/4}/mu width of the integrand's peak, so every leg carries uniform
    panels sized by width: at most 3 d within 10 d of u0 and 1.5 beyond, at
    spec.panels = 8 and in proportion to 1/spec.panels."""
    q, u0, mu = crit.q, crit.u0, crit.mu
    d = min(0.5, 0.8 / (mu * n ** 0.25), min(_corner(q), L) / 3.0)
    fine, coarse = 24.0 * d / spec.panels, 12.0 / spec.panels
    _, v_path = build_contours(q, L, center=u0, pinch_gap=d)
    v_legs = [leg for a, b in v_path.segments()
              for leg in _radial_legs(a, b, u0, 10.0 * d, fine, coarse)]
    return (_legs_rule(_banded_uline(u0, L, 10.0 * d, fine, coarse), spec.nodes_per_panel),
            _legs_rule(v_legs, spec.nodes_per_panel))


def _psi_cusp(u, kap, t, coord, n1, n2, alpha, beta):
    """Action (t U^2 - 2 coord U)/(1 - t) + n1 log(u - alpha) + n2 log(u - beta),
    U = kap u, at complex u, principal branch (arguments in (-pi, pi], and
    -pi on the negative real axis with imaginary part -0.0).

    The logarithms are taken as log|w| + i atan2(Im w, Re w), the same branch
    as numpy's complex log, which costs 100-240 ns an element (numpy 2.4,
    x86-64) against about 14 ns for the two real ufuncs.  The finite-n tiers
    call it once per point on both rules' nodes, where the integrand needs
    its phase (400 nodes and 0.03 ms at the median benchmark profile point),
    and on a pierced lobe's residue arc; what reads only the integrand's
    size (the adaptive tier's lobe scoring and rule sizing, the cusp tier's
    open-branch bound) calls _psi_cusp_real."""
    U = kap * u
    a, b = u - alpha, u - beta
    return (t * U * U - 2.0 * coord * U) / (1.0 - t) \
        + (n1 * np.log(np.abs(a)) + n2 * np.log(np.abs(b))) \
        + 1j * (n1 * np.arctan2(a.imag, a.real) + n2 * np.arctan2(b.imag, b.real))


def _psi_cusp_real(u, kap, t, coord, n1, n2, alpha, beta):
    """Re _psi_cusp, the same bits in about half the time.

    numpy divides a complex array by a real scalar s as x (1/s) in each part,
    and a real factor multiplies each part exactly, so the real part of the
    polynomial term is Re(t U U) - 2 coord Re U times 1/(1 - t); the
    arguments' two arctan2 are left out.  At the 1,600 to 3,200 points of a
    finite-n point's lobe scoring this takes 0.46 of _psi_cusp's time."""
    U = kap * u
    return ((t * U * U).real - 2.0 * coord * U.real) * (1.0 / (1.0 - t)) \
        + (n1 * np.log(np.abs(u - alpha)) + n2 * np.log(np.abs(u - beta)))


def _psi_cusp_slope(u, kap, t, coord, n1, n2, alpha, beta):
    """(_psi_cusp_real, d/du _psi_cusp) at u in one pass that shares
    u - alpha and u - beta."""
    U = kap * u
    a, b = u - alpha, u - beta
    return (((t * U * U).real - 2.0 * coord * U.real) * (1.0 / (1.0 - t))
            + (n1 * np.log(np.abs(a)) + n2 * np.log(np.abs(b))),
            2.0 * kap * (t * kap * u - coord) / (1.0 - t) + n1 / a + n2 / b)


def _finite_prefactor(params):
    return -1.0 / (2.0 * math.pi**2 * math.sqrt((1.0 - params.t_k) * (1.0 - params.t_l)))


def _finite_contraction(params, rule_u, side_u, rule_v, side_v, xs, ys):
    """Double-contour part of the finite-n kernel on the xs x ys grid plus the
    t_k < t_l Gaussian term; returns (mantissas, log_scale, mass).

    rule_u is the U-line rule (time t_l, coordinate y), rule_v the V-loop rule
    (time t_k, coordinate x); each side is (kappa, alpha, beta) of its action.
    The x- and y-dependence enters through one exponential per node and
    coordinate (EU, EV), and the coupling is
    M = W_V W_U kappa_U kappa_V / (kappa_U U - kappa_V V), so the mantissas
    are prefactor * EV^T M EU: the Cauchy contraction of
    A = W_V kappa_V EV and B = W_U kappa_U EU.  `mass` is |EV|^T |M| |EU|
    (without the prefactor), the scale of the rounding noise in each mantissa.
    """
    (U, WU), (V, WV) = rule_u, rule_v
    kap_u, kap_v = side_u[0], side_v[0]
    t_k, t_l = params.t_k, params.t_l
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    # both actions and tilts in one pass over U's nodes, then V's, each
    # side's kappa, time, alpha and beta repeated over its own nodes
    kap, t, al, be = np.array([(kap_u, t_l, *side_u[1:]),
                               (kap_v, t_k, *side_v[1:])]).T.repeat((len(U), len(V)), axis=1)
    nodes = np.concatenate([U, V])
    psi = _psi_cusp(nodes, kap, t, 0.0, params.n1, params.n2, al, be)
    tilt = 2.0 * kap * nodes / (1.0 - t)
    psi_u, psi_v, tilt_u, tilt_v = psi[:len(U)], psi[len(U):], tilt[:len(U)], tilt[len(U):]
    # common log magnitude taken at the mean coordinate of each side
    cu = (psi_u.real - float(ys.sum() / ys.size) * tilt_u.real).max()
    cv = (-psi_v.real + float(xs.sum() / xs.size) * tilt_v.real).max()
    A = (WV * kap_v)[:, None] * np.exp(-psi_v[:, None] + tilt_v[:, None] * xs - cv)
    B = (WU * kap_u)[:, None] * np.exp(psi_u[:, None] - tilt_u[:, None] * ys - cu)
    contraction, mass = _cauchy_contract(A, kap_v * V, kap_u * U, B)
    vals = _finite_prefactor(params) * contraction
    ls = cu + cv
    if t_k < t_l:
        dt = t_l - t_k
        logext = (-0.5 * math.log(math.pi * dt)
                  - (xs[:, None] - ys[None, :]) ** 2 / dt
                  + xs[:, None] ** 2 / (1.0 - t_k)
                  - ys[None, :] ** 2 / (1.0 - t_l))
        vals = vals - np.exp(np.minimum(logext - ls, 700.0))
    return vals, ls, mass


def _check_mantissas(vals, mass, ls, tier):
    """Raise QuadratureError, carrying the achieved error, where a mantissa is
    within 30 rounding units (1e-14 of its absolute mass) of zero while its
    value still matters, or keeps a non-negligible imaginary part."""
    noise = 1e-14 * mass
    scale = math.exp(min(ls, 700.0))
    lost = (np.abs(vals) < 30 * noise) & (np.abs(vals) * scale > 1e-10)
    if lost.any():
        raise QuadratureError(f"{tier} finite-n kernel lost all significant digits",
                              achieved=float(mass[lost].max() * 1e-16 * scale))
    imag = np.abs(vals.imag)
    bad = imag > np.maximum(2e-7 * (1.0 + np.abs(vals.real)), 30 * noise)
    if bad.any():
        raise QuadratureError(f"{tier} finite-n kernel has non-negligible imaginary part",
                              achieved=float(imag[bad].max()))


def _finite_cusp_grid(params, xs, ys, spec):
    """Cusp-tier finite-n kernel on a grid; returns (values, log_scale).
    Raises QuadratureError, carrying the bound, where the X's open branch
    stops at a non-negligible integrand (_open_tail)."""
    crit = params.critical()
    _descent_checked(round(crit.q, 12), spec.truncation_radius)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    dz_max = max(float(np.abs(_spectral_z(params, t, coords) - crit.z0).max())
                 for t, coords in ((params.t_k, xs), (params.t_l, ys)))
    L = _cusp_L(spec, dz_max)
    tail = _open_tail(params, crit, L, xs)
    if tail > _OPEN_TAIL_TOL:
        raise QuadratureError(f"cusp-tier contour's open branch stops where the integrand "
                              f"is {tail:.3g} of its saddle value", achieved=tail)
    rule_u, rule_v = _cusp_rules(crit, params.n, spec, L)
    # geometric enclosure check: poles must lie strictly inside the V wedges
    reach = min(_corner(crit.q), spec.truncation_radius) + spec.truncation_radius
    if not (0 < crit.alpha - crit.u0 < reach and 0 < crit.u0 - crit.beta < reach):
        raise ArithmeticError("v-loop does not enclose the rescaled targets")
    side = (crit.c0 * math.sqrt(params.n) / crit.t0, crit.alpha, crit.beta)
    vals, ls, mass = _finite_contraction(params, rule_u, side, rule_v, side, xs, ys)
    _check_mantissas(vals, mass, ls, "cusp-tier")
    return vals, ls


def _rect_lobe_legs(x0, x1, h, widths, cross=None):
    """CCW rectangle [x0,x1] x [-h,h] from its lower right corner, with
    uniform panels no wider than widths = (side, top) on its vertical and
    horizontal edges.  cross = (cross_at, inner) when the U-line pierces the
    lobe at Re = cross_at: then the top and bottom edges are split there, and
    their panels grade toward the crossing from `inner` (_crossing_legs)."""
    side, top = widths
    if cross is None:
        pts = [x1 - 1j * h, x1 + 1j * h, x0 + 1j * h, x0 - 1j * h, x1 - 1j * h]
        return [_uniform_leg(a, b, w) for a, b, w in zip(pts[:-1], pts[1:], widths * 2)]
    c, inner = cross
    return ([_uniform_leg(x1 - 1j * h, x1 + 1j * h, side),
             _uniform_leg(x0 + 1j * h, x0 - 1j * h, side)]
            + _crossing_legs(x1 + 1j * h, c + 1j * h, top, inner)
            + _crossing_legs(x0 + 1j * h, c + 1j * h, top, inner, outward=True)
            + _crossing_legs(x0 - 1j * h, c - 1j * h, top, inner)
            + _crossing_legs(x1 - 1j * h, c - 1j * h, top, inner, outward=True))


def _banded_uline(sig, L, band, fine, coarse, cross=None):
    """Legs of the upward line through sig from -iL to iL: uniform panels no
    wider than `fine` over |Im| <= band, the heights beside the V lobes, and
    no wider than `coarse` beyond.  cross = (height, inner) when the line
    crosses a V lobe at +-i height, inside the band: then the band is split
    there, and its panels grade toward both crossings from `inner`."""
    band = min(band, L)
    tails = [_uniform_leg(sig + 1j * a, sig + 1j * b, coarse)
             for a, b in ((-L, -band), (band, L)) if b > a]
    if cross is None:
        return tails[:1] + [_uniform_leg(sig - 1j * band, sig + 1j * band, fine)] + tails[1:]
    hc, inner = cross
    lo, hi = sig - 1j * hc, sig + 1j * hc
    return (tails + _crossing_legs(sig - 1j * band, lo, fine, inner)
            + _crossing_legs(sig, lo, fine, inner, outward=True)
            + _crossing_legs(sig, hi, fine, inner)
            + _crossing_legs(sig + 1j * band, hi, fine, inner, outward=True))


def _panel_node_counts(log_rho, log_f, dlog_f, nodes_per_panel):
    """The fewest nodes N in [6, nodes_per_panel] that meet each panel's
    sizing target (_adaptive_rules), or nodes_per_panel where none does.
    log_f is log |f| at the panel centres relative to the largest on the
    panel's contour, and dlog_f the derivative of log f times the panel's
    half-width vector."""
    K = 30.0 * nodes_per_panel / 32.0
    N2 = 2.0 * np.arange(6, nodes_per_panel + 1)
    w = dlog_f[:, None]
    # near-optimal rho' for N nodes, |w| sinh(log rho') = 2 N, capped at rho
    sh = np.minimum((1.0 / np.maximum(np.abs(dlog_f), 1e-300))[:, None] * N2,
                    np.sinh(log_rho)[:, None])
    grow = np.hypot(w.real * np.sqrt(1.0 + sh * sh), w.imag * sh)
    ok = log_f[:, None] + grow - N2 * np.arcsinh(sh) <= -2.0 * K
    ok[:, -1] = True        # nodes_per_panel where no N meets the target
    return 6 + ok.argmax(axis=1)


def _adaptive_rules(legs_v, legs_u, r, lobes, poles, crossings, actions, nodes_per_panel):
    """The adaptive tier's V rule and U rule (in the U variable, r times the V
    variable) on the uniform panels of legs_v and legs_u, each panel with only
    the Gauss-Legendre nodes its Bernstein ellipse needs.

    The V integrand is singular at the poles and, through 1/(U - V), on the
    U line; the U integrand on the V lobes.  A panel's rho is that of the
    smallest Bernstein ellipse reaching one of these (_bernstein_log_rho).
    The integrand f = exp(log f) also grows off the panel: linearized at the
    centre, log |f| rises on E_rho by at most |(log f)' hv| times the
    ellipse's semi-axes.  f is exp(-psi) on V and exp(psi) on U, actions
    giving _psi_cusp's arguments after u for the V side and the U side.  A
    panel gets the fewest N >= 6 nodes for which, on some
    E_rho' with rho' <= rho, that rise plus log |f| at the centre, relative
    to the largest over its contour's panel centres, minus 2 N log rho'
    stays below -2 K, K = 30 nodes_per_panel / 32: the error bound
    (64/15) M rho'^{-2N} / (rho'^2 - 1) (_gl_error_bound) is then about
    e^{-2K} of the contour's scale.  It gets at most nodes_per_panel nodes.
    Without the rise this is N = ceil(K / log rho), and a finer spec gives
    a finer rule (_panel_node_counts).  A panel ending at one of the
    `crossings` (points, in the V variable, where the contours meet) has
    rho = 1 and keeps nodes_per_panel.

    The rules are checked a priori, with nodes_per_panel nodes on every
    panel.  A V panel must reach 1e-13 against the poles.  A V panel and a
    U panel are coupled accurately when either panel's rule resolves the
    other panel: the Cauchy sum over the resolving panel is then its
    integral, smooth on the other.  Where neither bound reaches 1e-13,
    QuadratureError carries the smaller; two panels that both end at a
    crossing are graded toward it and exempt, and the pair bound is taken
    only over the pairs that are not, so where every flagged panel ends at a
    crossing (as at the pierced points of the benchmark profiles) it is not
    formed.

    Per point this is one pass of ellipse ratios over every panel and
    singular segment, one pass of the action and its slope over both
    contours' panel centres, and one node count per panel: replaying the
    calls of the 100 adaptive points of the two benchmark profiles (in
    process, one BLAS thread, median) takes 0.16 ms at a plain point and
    0.24 ms at a pierced one.
    """
    # both contours' panels in the V variable, V first; singular segments:
    # the U line, the poles, then the lobes' edges
    mid, hv = panels(legs_v + [(a / r, b / r, p) for a, b, p in legs_u])
    ends = np.array([leg[:2] for leg in legs_u]).ravel() / r
    edges = [(x1 - 1j * h, x1 + 1j * h, x0 + 1j * h, x0 - 1j * h) for x0, x1, h in lobes]
    lr = _bernstein_log_rho(
        mid[:, None], hv[:, None],
        np.array([ends[0].real + 1j * ends.imag.min(), *poles, *(c for e in edges for c in e)]),
        np.array([ends[0].real + 1j * ends.imag.max(), *poles,
                  *(c for e in edges for c in e[1:] + e[:1])]))
    nv = sum(p for *_, p in legs_v)
    line, pole = lr[:nv, 0], lr[:nv, 1:1 + len(poles)].min(axis=1)
    lobe = lr[nv:, 1 + len(poles):].min(axis=1)
    # log f and its derivative at both contours' panel centres in one pass,
    # each side's action arguments, sign and variable repeated over its panels
    *action, sign, scale = np.array([(*actions[0], -1.0, 1.0),
                                     (*actions[1], 1.0, r)]).T.repeat((nv, len(mid) - nv), axis=1)
    f, df = _psi_cusp_slope(mid * scale, *action)
    f = sign * f
    f[:nv] -= f[:nv].max()
    f[nv:] -= f[nv:].max()
    nodes = _panel_node_counts(np.concatenate([np.minimum(line, pole), lobe]), f,
                               sign * scale * df * hv, nodes_per_panel)
    # the a-priori check, in log rho: below `least`, 1e-13 needs more nodes
    least, worst = _resolving_log_rho(nodes_per_panel), pole.min()
    flag_v, flag_u = (line < least).nonzero()[0], nv + (lobe < least).nonzero()[0]
    if len(flag_v) and len(flag_u):
        # flagged panels ending at a crossing, to rounding (distances in
        # half-widths): a pair of two such panels is graded toward it and
        # exempt, and only panels in a pair that is not enter the bound
        at_v, at_u = [(np.abs(zc - zc.real.clip(-1.0, 1.0)) < 1e-9).any(axis=1)
                      for zc in ((np.array(crossings) - mid[flag, None]) / hv[flag, None]
                                 for flag in (flag_v, flag_u))]
        keep_v, keep_u = ~at_v | ~at_u.all(), ~at_u | ~at_v.all()
        flag_v, at_v, flag_u, at_u = flag_v[keep_v], at_v[keep_v], flag_u[keep_u], at_u[keep_u]
        if len(flag_v) and len(flag_u):
            # pairs of panels that resolve neither each other's contour
            (mv, hvv), (mu, hu) = (mid[flag_v], hv[flag_v]), (mid[flag_u], hv[flag_u])
            pair = np.maximum(_bernstein_log_rho(mv[:, None], hvv[:, None], mu - hu, mu + hu),
                              _bernstein_log_rho(mu[:, None], hu[:, None], mv - hvv, mv + hvv).T)
            pair[np.outer(at_v, at_u)] = np.inf
            worst = min(worst, pair.min())
    if worst < least:
        raise QuadratureError(f"adaptive-tier panels need more than {nodes_per_panel} "
                              "Gauss-Legendre nodes for 1e-13",
                              achieved=_gl_error_bound(float(worst), nodes_per_panel))
    z, w = panel_rule(mid, hv, nodes)
    split = nodes[:nv].sum()
    return (z[:split], w[:split]), (z[split:] * r, w[split:] * r)


def _adaptive_side(params, t, coord):
    """(kappa, alpha, beta) of one side's action and its Stieltjes branch g."""
    c = math.sqrt(t * (1.0 - t) / 2.0)
    g = solve_stieltjes(_two_target(params, t), _spectral_z(params, t, coord)).g
    return (c * math.sqrt(params.n) / t, params.a * t / c, params.b * t / c), g


def _finite_adaptive(params, x, y, spec):
    """Saddle-adapted finite-n kernel at one point; returns (value, log_scale).

    The U-line runs vertically through the real part of the physical saddle
    of its own action; the V-contour consists of saddle-height rectangles
    around the poles.  When the line pierces a rectangle, the exact residue
    sweep (a 1-D integral of an entire function over the lobe boundary right
    of the line) compensates, so the configuration equals the line-beside-loop
    one.  Everything is evaluated relative to a common log magnitude.

    A lobe beside the line (plain) or two split at it keep a clearance d from
    the line, and Gauss-Legendre panels converge at a rate set by the distance
    of the nearest singularity of 1/(U - V) relative to their width.  So the
    rules carry uniform panels whose widths follow d, 2.5 d at spec.panels = 8
    and in proportion to 1/spec.panels: lobe sides and the line over the
    lobes' heights plus 3 d at most 2.5 d, lobe tops and bottoms 5 d but no
    wider than the lobe height, their distance from the poles, the rest of
    the line 10 d.  A pierced lobe and the line keep these widths but are
    split at the two crossings, where 1/(U - V) is singular; toward each, the
    panels start d/4 wide and double (_crossing_legs).
    Each panel then carries only the Gauss-Legendre nodes its Bernstein
    ellipse needs, between 6 and spec.nodes_per_panel, and the rules are
    checked a priori (_adaptive_rules): at n = 8, lambda = 3 (plain), 226 V
    by 174 U nodes, and at lambda = 0.54132 (pierced) 602 by 482, where
    nodes_per_panel on every panel took 512 by 352 and 960 by 704.  Over the
    101 points of the two benchmark profiles that is 0.40 of the coupling
    entries.
    Measured accuracy, against a rule with panels no wider than d/4 at the
    plain and split points of the two benchmark profiles (n = 8, 9) and at
    n = 50 on the cusp-vs-adaptive overlap (1, -1, 1/2), t = 1/3, |z| <= 0.3,
    and against the tier's rule at QuadratureSpec(8, 24, 64) with
    nodes_per_panel nodes on every panel at the profiles' pierced points and
    at n = 50, t = 1/2 over the supports of (1, 0, 1/9) and (1, -1, 1/2) in
    steps of 0.5: the profiles up to 4.6e-13, the overlap 1e-14, the
    sweeps up to 1.3e-11, except at two points of (1, 0, 1/9) where the
    contraction's absolute mass is 3e6 and 4e7 times the value and rounding
    leaves 1.3e-10 and 7.3e-9 (the references there scatter as much).
    Other points are unmeasured.
    Cost at the median point of the two benchmark profiles (a plain one; in
    process, one BLAS thread): 1.04 ms, of which 0.31 ms is the Cauchy
    contraction.  The rest is the Stieltjes root (0.16 ms), the action and
    exponentials around the contraction (0.11 ms), the rules (0.24 ms), and
    lobe scoring, legs, residue arc and checks (0.18 ms): each distinct
    candidate lobe is scored once, on its top edge and sides, by the real
    part of the action alone.
    """
    n, n1, n2 = params.n, params.n1, params.n2
    sideU, gU = _adaptive_side(params, params.t_l, y)
    sideV, gV = (sideU, gU) if (params.t_k, x) == (params.t_l, y) \
        else _adaptive_side(params, params.t_k, x)
    kapU, alU, beU = sideU
    kapV, alV, beV = sideV
    sig = gU.real
    sig_v = sig * kapU / kapV   # U-line abscissa mapped to the V variable
    ysad = abs(gV.imag)
    L = spec.truncation_radius
    h = ysad + 0.9 / math.sqrt(n)
    d = min(0.22, max(0.04, 1.1 / math.sqrt(n)))
    split_clear = max(2.0 * d, 0.55)

    # candidate V-loop geometries: one lobe around both poles (pierced by the
    # line when it falls inside), or two lobes split at the line; extents hug
    # the poles, heights trade the y^2/2 growth against the pole logarithm.
    # A lobe beside the line keeps the split lobes' clearance d from it:
    # closer, 1/(U-V) is not resolved on the rules.
    h_opts = sorted({round(h, 6), 0.45, 0.7, 1.0})
    margins = (0.45, 1.0)
    split_ok = beV + split_clear < sig_v < alV - split_clear
    # a pierced lobe needs panels graded toward its crossings and a residue
    # arc, so split lobes are preferred while their exponent excess stays
    # within the cancellation headroom: a penalty of ~ln(1e10) exponent units
    pierced_penalty = 22.0
    distinct = {}       # lobe (x0, x1, height) -> its index, in order of first use
    candidates = []     # (its lobe, its second lobe or again the first, pierced)
    for hh in h_opts:
        for mL in margins:
            for mR in margins:
                x0_, x1_ = beV - mL, alV + mR
                if split_ok:
                    candidates.append((distinct.setdefault((x0_, sig_v - d, hh), len(distinct)),
                                       distinct.setdefault((sig_v + d, x1_, hh), len(distinct)),
                                       False))
                if x0_ < sig_v < x1_:
                    lobe, pierced = (x0_, x1_, hh), True
                elif sig_v <= x0_:
                    lobe, pierced = (max(x0_, sig_v + d), x1_, hh), False
                else:
                    lobe, pierced = (x0_, min(x1_, sig_v - d), hh), False
                k = distinct.setdefault(lobe, len(distinct))
                candidates.append((k, k, pierced))
    # score each distinct lobe once (a split lobe depends on one margin, so
    # the up to 48 lobes of the candidates hold at most 32) by the largest
    # -Re psiV over its boundary, sampled at 60 points along its top edge
    # and 20 up each side: Re psiV is even under conjugation to the bit, so
    # the bottom edge would repeat the top's values.  A candidate's exponent
    # excess is the largest over its lobes.
    distinct = list(distinct)
    x0s, x1s, hs = np.array(distinct).T
    # the points of np.linspace(x0s, x1s, 60, axis=1), without its temporaries
    edge = np.arange(60.0) * ((x1s - x0s) / 59)[:, None] + x0s[:, None]
    edge[:, -1] = x1s
    lin = np.arange(20.0) * (2.0 / 19) - 1.0     # np.linspace(-1, 1, 20)
    lin[-1] = 1.0
    side = 1j * (hs[:, None] * lin)
    pts = np.concatenate([edge + 1j * hs[:, None], x0s[:, None] + side, x1s[:, None] + side],
                         axis=1)
    excess = -_psi_cusp_real(pts, kapV, params.t_k, x, n1, n2, alV, beV).min(axis=1)
    first, second, pierced = np.array(candidates).T
    best = candidates[int((np.maximum(excess[first], excess[second])
                           + pierced_penalty * pierced).argmin())]
    lobes, pierced = [distinct[k] for k in dict.fromkeys(best[:2])], best[2]
    h = lobes[0][2]
    # panel widths (see above): lobe sides and the U line beside them pass
    # each other at d; tops and bottoms meet it at a corner or a crossing,
    # and pass the poles at the lobe height
    near = 20.0 * d / spec.panels
    r = kapV / kapU     # V-variable lengths in the U variable
    cross_v = cross_u = None
    if pierced:     # crossings at sig_v +- ih, panels from d/4 at spec.panels = 8
        cross_v, cross_u = (sig_v, near / 10.0), (h * r, near * r / 10.0)
    legs_v = [leg for x0_, x1_, hh in lobes
              for leg in _rect_lobe_legs(x0_, x1_, hh, (near, min(2.0 * near, hh)), cross_v)]
    legs_u = _banded_uline(sig, L, (h + 3.0 * d) * r, near * r, 4.0 * near * r, cross_u)
    rule_v, rule_u = _adaptive_rules(
        legs_v, legs_u, r, lobes, [alV, beV],
        [sig_v - 1j * h, sig_v + 1j * h] if pierced else [],
        ((kapV, params.t_k, x, n1, n2, alV, beV), (kapU, params.t_l, y, n1, n2, alU, beU)),
        spec.nodes_per_panel)
    vals, ls, mass = _finite_contraction(params, rule_u, sideU, rule_v, sideV, [x], [y])
    pref = _finite_prefactor(params)
    if abs(pref) * mass[0, 0] * math.exp(min(ls, 700.0)) < 1e-9:
        # rigorous bound: the whole configuration is negligibly small
        return 0.0, 0.0
    # residue sweep for a pierced lobe: relative to the line placed fully to
    # the right of the lobe, every boundary point whose pole image lies right
    # of the line shifts the U-integral by -2*pi*i exp(PsiU at the image); the
    # compensating arc runs along the lobe's own CCW restriction to the right
    # of the line, i.e. from the bottom crossing to the top crossing: the V
    # rule's own legs there
    if pierced:
        V, WV = rule_v
        right = V.real > sig_v
        arc = np.sum(WV[right] * np.exp(
            _psi_cusp(V[right] * r, kapU, params.t_l, y, n1, n2, alU, beU)
            - _psi_cusp(V[right], kapV, params.t_k, x, n1, n2, alV, beV) - ls))
        vals = vals + pref * 2j * math.pi * kapV * arc
    _check_mantissas(vals, mass, ls, "adaptive")
    return complex(vals[0, 0].real), ls


def _in_cusp_window(params, x, y, spec):
    """Cusp-tier contours keep full precision only where the action's linear
    tilt n (z - z0) stays moderate along the truncated contour and the X's
    open branch stops at a negligible integrand (_open_tail); elsewhere the
    saddle-adapted tier takes over."""
    crit = params.critical()
    t0, z0 = crit.t0, crit.z0
    n = params.n
    if abs(params.t_k - t0) > 0.03 or abs(params.t_l - t0) > 0.03:
        return False
    # two validity limits: cancellation grows like n dz^2, and the truncated
    # contour tail decays no faster than exp(-n(log(sqrt(2)/dz) - 1))
    w_tail = math.sqrt(2.0) * math.exp(-1.0 - 12.0 / n)
    dz_max = 0.0
    for t, coord in ((params.t_k, x), (params.t_l, y)):
        dz = abs(_spectral_z(params, t, coord) - z0)
        if dz > 0.6 or n * dz * dz > 4.5 or dz > w_tail:
            return False
        dz_max = max(dz_max, dz)
    return _open_tail(params, crit, _cusp_L(spec, dz_max), [x]) <= _OPEN_TAIL_TOL


def finite_n_kernel_scaled(params: FiniteKernelParams, x: float, y: float,
                           spec: QuadratureSpec | None = None,
                           contours: str = "auto"):
    """Finite-n kernel as (mantissa, log_scale): value = mantissa*exp(log_scale).

    contours: 'cusp' forces the critical-point contours (valid in the scaling
    window around the cusp), 'adaptive' the saddle-adapted ones, 'auto' picks.
    A non-finite x or y raises ValueError.
    """
    spec = spec or QuadratureSpec()
    if contours not in ("auto", "cusp", "adaptive"):
        raise ValueError("contours must be auto|cusp|adaptive")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"finite-n kernel needs finite x and y, got {x}, {y}")
    use_cusp = contours == "cusp" or (contours == "auto"
                                      and _in_cusp_window(params, x, y, spec))
    if use_cusp:
        vals, ls = _finite_cusp_grid(params, [x], [y], spec)
        return complex(vals[0, 0]), ls
    return _finite_adaptive(params, x, y, spec)


def finite_n_kernel(params: FiniteKernelParams, x: float, y: float,
                    spec: QuadratureSpec | None = None,
                    contours: str = "auto") -> float:
    """Finite-n two-target bridge kernel H_n(x, y; t_k, t_l) in Brownian
    coordinates (targets at a*sqrt(n), b*sqrt(n)).  See finite_n_kernel_scaled
    for an overflow-safe variant; raises OverflowError where the value is not
    a finite double."""
    val, ls = finite_n_kernel_scaled(params, x, y, spec, contours)
    # sign(m) e^{ls + log|m|}: no factor overflows where the product does not,
    # and math.exp raises OverflowError where the product itself does
    re, im = (math.copysign(math.exp(ls + math.log(abs(m))), m) if m else 0.0
              for m in (val.real, val.imag))
    if abs(im) > 1e-8 * (1.0 + abs(re)):
        raise QuadratureError("finite-n kernel value has non-negligible imaginary part",
                              achieved=abs(im))
    return re


def finite_n_kernel_grid(params: FiniteKernelParams, xs, ys,
                         spec: QuadratureSpec | None = None):
    """Cusp-tier kernel values on a grid; returns (values, log_scale).  The
    mantissas carry the adaptive tier's digit-loss and imaginary-part checks.
    Non-finite xs or ys raise ValueError."""
    spec = spec or QuadratureSpec()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("finite-n kernel grid needs finite xs and ys")
    vals, ls = _finite_cusp_grid(params, xs, ys, spec)
    return vals.real, ls


def finite_n_diagonal(n: int, a: float, b: float, p: float, t: float, lams,
                      spec: QuadratureSpec | None = None):
    """Diagonal profile H_n(lam, lam; t, t) over an array of positions (or
    one position), shaped as lams.

    Far outside the equilibrium support the diagonal is exponentially small;
    a point reads 0 only where the adaptive tier's negligibility bound
    certifies it, and any QuadratureError propagates.
    """
    params = FiniteKernelParams(n=n, a=a, b=b, p=p, t_k=t, t_l=t)
    lams = np.asarray(lams, dtype=float)
    return np.array([finite_n_kernel(params, lam, lam, spec)
                     for lam in lams.ravel()]).reshape(lams.shape)
