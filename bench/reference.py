"""Reference values computed without the program's numerical code.

Each function here rebuilds a quantity from its definition with a different
method than pearceylab uses (mpmath quadrature, scipy.special.airy, numpy
polynomial roots and scipy quad, closed-form moments), so that a benchmark
check compares the program against something it could not have produced by
the same mistake.  Everything runs outside the timed phase.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import airy, roots_legendre


# ---------------------------------------------------------------------------
# Pearcey p, q from their defining integrals


def pearcey_pq_mpmath(t, xs, radius=7.0):
    """p^(k) (k < 3) and q^(k) (k < 4) at each x by mpmath quadrature.

    q^(k)(x) = -(-i)^k/(2 pi) int_R v^k exp(-v^4/4 - t v^2/2 - i v x) dv and
    p^(k)(x) = Im(e^{i pi (k+1)/4} (int_{-inf}^0 - int_0^inf) s^k
    exp(-s^4/4 - i t s^2/2 + x e^{i pi/4} s) ds) / pi.  The integrands fall
    below exp(-500) beyond |v| = 7 for |x| <= 10, so the range is cut there.
    Returns (P, Q) with shapes (3, len(xs)) and (4, len(xs)).
    """
    mp.mp.dps = 15
    e = mp.expjpi(0.25)
    tt = mp.mpf(t)
    P = np.empty((3, len(xs)))
    Q = np.empty((4, len(xs)))
    for j, x in enumerate(xs):
        x = mp.mpf(float(x))
        for k in range(4):
            trig = mp.cos if k % 2 == 0 else mp.sin
            integral = mp.quad(lambda v: v**k * mp.exp(-v**4 / 4 - tt * v**2 / 2) * trig(v * x),
                               [-radius, 0, radius])
            # e^{-ivx} = cos(vx) - i sin(vx); only the surviving real part is kept
            Q[k, j] = float(mp.re(-((-1j) ** k) * (integral if k % 2 == 0 else -1j * integral)
                                  / (2 * mp.pi)))
            if k < 3:
                def g(s):
                    return s**k * mp.exp(-s**4 / 4 - 1j * tt * s**2 / 2 + x * e * s)
                D = mp.quad(g, [-radius, 0]) - mp.quad(g, [0, radius])
                P[k, j] = float(mp.im(e ** (k + 1) * D) / mp.pi)
    return P, Q


def gauss_legendre_nodes(a, b, m):
    gx, gw = roots_legendre(m)
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    return mid + half * gx, half * gw


def pearcey_gap_from_pq(t, a, b, m):
    """det(I - K) on (a, b) from an m-node Nystrom matrix whose entries come
    from the mpmath p, q values; K(x, y) = (p q'' - p' q' + p'' q - t p q)/(y - x)
    off the diagonal and p q''' - p' q'' + p'' q' - t p q' on it."""
    x, w = gauss_legendre_nodes(a, b, m)
    P, Q = pearcey_pq_mpmath(t, x)
    num = (np.outer(P[0], Q[2]) - np.outer(P[1], Q[1]) + np.outer(P[2], Q[0])
           - t * np.outer(P[0], Q[0]))
    den = x[None, :] - x[:, None]
    np.fill_diagonal(den, 1.0)
    K = num / den
    np.fill_diagonal(K, P[0] * Q[3] - P[1] * Q[2] + P[2] * Q[1] - t * P[0] * Q[1])
    sw = np.sqrt(w)
    return float(np.linalg.det(np.eye(m) - sw[:, None] * K * sw[None, :])), x, P, Q


# ---------------------------------------------------------------------------
# Airy gap


def airy_gap(s, hi=12.0, m=80):
    """det(I - K_Airy) on (s, hi) with Ai, Ai' from scipy.special.airy; the
    kernel diagonal at 12 is below 1e-25, so the cut costs nothing visible."""
    x, w = gauss_legendre_nodes(s, hi, m)
    ai, aip, _, _ = airy(x)
    den = x[:, None] - x[None, :]
    np.fill_diagonal(den, 1.0)
    K = (np.outer(ai, aip) - np.outer(aip, ai)) / den
    np.fill_diagonal(K, aip * aip - x * ai * ai)
    sw = np.sqrt(w)
    return float(np.linalg.det(np.eye(m) - sw[:, None] * K * sw[None, :]))


# ---------------------------------------------------------------------------
# finite-n moments


def diagonal_moments(n, a, b, p, t):
    """Closed-form moments 0, 1, 2 of the finite-n kernel diagonal.

    Positions are sqrt(n) c(t) times the eigenvalues of A_t + H with
    A_t = diag(bt_i repeated n_i times), so the moments are n,
    sqrt(n) c sum n_i bt_i and n c^2 (sum n_i bt_i^2 + n).  Group sizes follow
    the kernel's rounding n1 = round(p n)."""
    n1 = int(round(p * n))
    sizes = np.array([n - n1, n1], dtype=float)
    s = math.sqrt(2.0 * t / (1.0 - t))
    bt = np.array([b * s, a * s])
    c = math.sqrt(t * (1.0 - t) / 2.0)
    m1 = math.sqrt(n) * c * float(np.sum(sizes * bt))
    m2 = n * c * c * (float(np.sum(sizes * bt * bt)) + n)
    return float(n), m1, m2


def exact_second_moment(sizes, scaled_targets):
    """E Tr M^2 = sum n_i bt_i^2 + n for M = A_t + H."""
    sizes = np.asarray(sizes, dtype=float)
    bt = np.asarray(scaled_targets, dtype=float)
    return float(np.sum(sizes * bt * bt) + sizes.sum())


# ---------------------------------------------------------------------------
# spectral curve: density from the cubic's complex roots, Stieltjes branch
# from its Cauchy transform


class SpectralReference:
    """Equilibrium density and Stieltjes branch for two targets at one time.

    The cubic (g - z)(g - b1)(g - b2) + e1 (g - b2) + e2 (g - b1) = 0 is
    solved through companion-matrix eigenvalues.  Where it has a complex pair
    the density is |Im g|/pi and the branch is the +Im member; elsewhere the
    branch is g(z) = z - int rho(s)/(z - s) ds, the Cauchy transform of that
    density, integrated in s = a + (b - a)(1 - cos th)/2 so that the square-root
    edges become smooth.
    """

    def __init__(self, targets, fractions, t, nodes=4000):
        s = math.sqrt(2.0 * t / (1.0 - t))
        self.bt = tuple(b * s for b in targets)
        self.eps = tuple(fractions)
        self.support = self._find_support()
        th, wth = gauss_legendre_nodes(0.0, math.pi, nodes)
        xs, ws = [], []
        for a, b in self.support:
            xs.append(a + 0.5 * (b - a) * (1.0 - np.cos(th)))
            ws.append(0.5 * (b - a) * np.sin(th) * wth)
        self._s = np.concatenate(xs)
        self._w = np.concatenate(ws) * self.density(self._s)

    def roots(self, z):
        """Roots of the cubic at each z, shape (len(z), 3)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        (b1, b2), (e1, e2) = self.bt, self.eps
        c2 = -(z + b1 + b2)
        c1 = z * (b1 + b2) + b1 * b2 + e1 + e2
        c0 = -z * b1 * b2 - e1 * b2 - e2 * b1
        comp = np.zeros((len(z), 3, 3))
        comp[:, 1, 0] = comp[:, 2, 1] = 1.0
        comp[:, 0, 2], comp[:, 1, 2], comp[:, 2, 2] = -c0, -c1, -c2
        return np.linalg.eigvals(comp)

    def _upper(self, z):
        r = self.roots(z)
        g = r[np.arange(len(r)), np.argmax(r.imag, axis=1)]
        pair = g.imag > 1e-12 * (1.0 + np.abs(r).max(axis=1))
        return g, pair

    def density(self, z):
        g, pair = self._upper(z)
        return np.where(pair, g.imag, 0.0) / math.pi

    def _find_support(self):
        reach = max(abs(b) for b in self.bt) + 4.0
        grid = np.arange(-reach, reach, 2e-3)
        inside = self._upper(grid)[1]
        edges = []
        for i in np.nonzero(inside[1:] != inside[:-1])[0]:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                if self._upper(mid)[1][0] == inside[i]:
                    lo = mid
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
        return tuple(zip(edges[::2], edges[1::2]))

    def in_gap(self, z):
        """True inside the gap between two support intervals."""
        return len(self.support) == 2 and self.support[0][1] < z < self.support[1][0]

    def in_support(self, z):
        return any(a < z < b for a, b in self.support)

    def branch(self, z):
        """Stieltjes branch at each real z (complex array)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        g, pair = self._upper(z)
        outside = z[:, None] - self._s[None, :]
        cauchy = (self._w[None, :] / np.where(outside == 0.0, 1.0, outside)).sum(axis=1)
        return np.where(pair, g, z - cauchy + 0.0j)

    def cdf_table(self, lo, hi, num=4001):
        """Grid and normalized cumulative integral of the density."""
        zg = np.linspace(lo, hi, num)
        dens = self.density(zg)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zg))])
        return zg, cdf / cdf[-1]


def ks_distance(sorted_values, zg, cdf):
    """Two-sided Kolmogorov-Smirnov distance of sorted samples to a CDF table."""
    F = np.interp(sorted_values, zg, cdf, left=0.0, right=1.0)
    m = len(sorted_values)
    return float(max(np.abs(np.arange(1, m + 1) / m - F).max(),
                     np.abs(np.arange(m) / m - F).max()))
