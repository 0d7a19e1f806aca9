"""Generic steepest-descent scaling analysis and the cusp universality harness.

Covers the quartic-saddle machinery around the cusp: the action F and its
derivatives, critical rescaling exponents for an order-l branch point, the
coefficient solver for the change of variables at the quartic point, the
descent report on the kernel contours, the Taylor-remainder bound, and the
finite-n to Pearcey convergence study.

The centered action F(u0 + w) - F(u0), which depends on q alone, and the
descent scan that samples it live in `kernels` beside the contours they
check (`kernels.centered_action`, `kernels._descent_rises`), so the finite-n
kernels check their contours without loading this module;
`contour_descent_check` reports that scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._quad import QuadratureSpec
from .kernels import (FiniteKernelParams, _descent_rises, build_contours, finite_n_kernel_grid,
                      pearcey_kernel_grid)
from .spectral_curve import CriticalData, find_cusp, group_sizes

__all__ = [
    "ActionDerivatives", "ScalingExponents", "ScalingCoefficients",
    "ConvergenceRow", "ConvergenceStudy", "DescentReport", "DegenerateActionError",
    "action_F", "critical_exponents", "solve_scaling",
    "scaling_conditions_residuals", "two_target_action_derivatives",
    "rescale_map", "inverse_rescale_map", "conjugation_factor", "log_conjugation_factor",
    "convergence_study", "remainder_bound_check", "contour_descent_check",
]


class DegenerateActionError(ValueError):
    """Scaling conditions are singular for the supplied action derivatives."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ActionDerivatives:
    """Partial derivatives of a one-parameter action S(x, y | t) at a critical
    point (x_c, y_c, t_c); y is the integration variable."""

    x_c: float
    y_c: float
    t_c: float
    S_y: float
    S_yy: float
    S_yyy: float
    S_yyyy: float
    S_xy: float
    S_ty: float
    S_xyy: float
    S_tyy: float

    def criticality_order(self):
        """Largest l with S_y = ... = d_y^{l+1} S = 0 at the base point."""
        derivs = [self.S_y, self.S_yy, self.S_yyy, self.S_yyyy]
        scale = max(1.0, *(abs(d) for d in derivs))
        l = 0
        while l + 1 < len(derivs) and abs(derivs[l + 1]) < 1e-8 * scale:
            if abs(derivs[l]) >= 1e-8 * scale:
                break
            l += 1
        return l


@dataclass(frozen=True)
class ScalingExponents:
    """Critical exponents for an order-l branch point, as exact fractions."""

    l: int
    gamma_y: Fraction
    gamma_x: Fraction
    gamma_t: Fraction


@dataclass(frozen=True)
class ScalingCoefficients:
    """Change-of-variable coefficients solving the scaling conditions."""

    alpha_t: float
    alpha_x: float
    beta_x: float
    alpha_y: float


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_abs_error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple
    slope: float


@dataclass(frozen=True)
class DescentReport:
    passed: bool
    worst: float
    checked_points: int
    details: tuple


# ---------------------------------------------------------------------------
# the action around the cusp


def action_F(u, crit: CriticalData, order: int = 4):
    """F and derivatives at u (complex allowed) by closed-form differentiation.

    F(u) = u^2/2 - u z0 + p log(u - alpha) + (1-p) log(u - beta);
    returns [F, F', ..., F^(order)], order <= 5.
    """
    if order > 5:
        raise ValueError("order must be <= 5")
    p, al, be, z0 = crit.p, crit.alpha, crit.beta, crit.z0
    ua, ub = u - al, u - be
    if ua == 0 or ub == 0:
        raise ZeroDivisionError("action_F is singular at the target points")
    la = np.log(np.complex128(ua))
    lb = np.log(np.complex128(ub))
    out = [u * u / 2.0 - u * z0 + p * la + (1 - p) * lb]
    if order >= 1:
        out.append(u - z0 + p / ua + (1 - p) / ub)
    if order >= 2:
        out.append(1.0 - p / ua**2 - (1 - p) / ub**2)
    for k in range(3, order + 1):
        sgn = (-1.0) ** (k - 1)
        fact = math.factorial(k - 1)
        out.append(sgn * fact * (p / ua**k + (1 - p) / ub**k))
    return [complex(v) for v in out]


# ---------------------------------------------------------------------------
# exponents and the coefficient solver


def critical_exponents(l: int) -> ScalingExponents:
    """gamma_y = 1/(l+2), gamma_x = (l+1)/(l+2), gamma_t = l/(l+2), exactly."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return ScalingExponents(l=l,
                            gamma_y=Fraction(1, l + 2),
                            gamma_x=Fraction(l + 1, l + 2),
                            gamma_t=Fraction(l, l + 2))


def solve_scaling(derivs: ActionDerivatives, tau: float) -> ScalingCoefficients:
    """Coefficients of the critical change of variables at the quartic
    (l = 2, Pearcey) point.

    These solve the four conditions: alpha_x S_xy + alpha_t tau S_ty = 0,
    (alpha_y^4/24) S_yyyy = -1/4, (alpha_y^2/2)(alpha_t tau S_tyy +
    alpha_x S_xyy) = tau/2, and beta_x alpha_y S_xy = -1.  alpha_y takes the
    positive real root |-6/S_yyyy|^(1/4) (|.| when the sign of S_yyyy is
    non-standard, as in toy actions).  alpha_x is linear in tau.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if derivs.S_yyyy == 0:
        raise DegenerateActionError("vanishing top derivative")
    if derivs.S_xy == 0:
        raise DegenerateActionError("vanishing S_xy")
    alpha_y = abs(-6.0 / derivs.S_yyyy) ** 0.25
    beta_x = -1.0 / (alpha_y * derivs.S_xy)
    D_t = derivs.S_tyy - derivs.S_ty * derivs.S_xyy / derivs.S_xy
    if abs(D_t) < 1e-14 * (abs(derivs.S_tyy) + abs(derivs.S_ty) + 1.0):
        if tau == 0.0:
            return ScalingCoefficients(alpha_t=math.nan, alpha_x=0.0,
                                       beta_x=beta_x, alpha_y=alpha_y)
        raise DegenerateActionError("time coupling is degenerate (S_tyy - S_ty S_xyy/S_xy = 0)")
    alpha_t = 1.0 / (alpha_y**2 * D_t)
    alpha_x = -alpha_t * tau * derivs.S_ty / derivs.S_xy
    return ScalingCoefficients(alpha_t=alpha_t, alpha_x=alpha_x,
                               beta_x=beta_x, alpha_y=alpha_y)


def scaling_conditions_residuals(coeffs: ScalingCoefficients,
                                 derivs: ActionDerivatives, tau: float):
    """Residuals of the four l=2 conditions under re-substitution."""
    c1 = coeffs.alpha_x * derivs.S_xy + coeffs.alpha_t * tau * derivs.S_ty
    c2 = coeffs.alpha_y**4 / 24.0 * derivs.S_yyyy + 0.25
    c3 = (coeffs.alpha_y**2 / 2.0) * (coeffs.alpha_t * tau * derivs.S_tyy
                                      + coeffs.alpha_x * derivs.S_xyy) - tau / 2.0
    c4 = coeffs.beta_x * coeffs.alpha_y * derivs.S_xy + 1.0
    return c1, c2, c3, c4


def two_target_action_derivatives(a: float, b: float, p: float) -> ActionDerivatives:
    """Closed-form partials of the two-target action at its quartic critical
    point (x0, u0, t0).

    S(x, u; t) = u^2/2 - x u/c(t) + p log(u - a phi(t)) + (1-p) log(u - b phi(t))
    with c(t) = sqrt(t(1-t)/2) and phi(t) = sqrt(2t/(1-t)).
    """
    crit = find_cusp(a, b, p)
    t0, x0, u0 = crit.t0, crit.x0, crit.u0
    c = crit.c0
    phi = t0 / c
    cp = (1.0 - 2.0 * t0) / (4.0 * c)
    php = 1.0 / (phi * (1.0 - t0) ** 2)
    ua = u0 - a * phi
    ub = u0 - b * phi
    pa, pb = p, 1.0 - p

    # S(x0, . ; t0) is the cusp action F, so the y-derivatives are F's at u0
    S_y, S_yy, S_yyy, S_yyyy = (d.real for d in action_F(u0, crit)[1:])
    S_xy = -1.0 / c
    S_ty = x0 * cp / c**2 + php * (pa * a / ua**2 + pb * b / ub**2)
    S_xyy = 0.0
    S_tyy = -2.0 * php * (pa * a / ua**3 + pb * b / ub**3)
    return ActionDerivatives(x_c=x0, y_c=u0, t_c=t0, S_y=S_y, S_yy=S_yy,
                             S_yyy=S_yyy, S_yyyy=S_yyyy, S_xy=S_xy, S_ty=S_ty,
                             S_xyy=S_xyy, S_tyy=S_tyy)


# ---------------------------------------------------------------------------
# rescaling map and conjugation


def rescale_map(crit: CriticalData, n: int, tau: float, xi: float):
    """(t, x) of the cusp scaling window: t = t0 + (c0 mu)^2 2 tau/sqrt(n),
    x = c0 (z0 sqrt(n) + A tau + mu xi / n^(1/4))."""
    t = crit.t0 + (crit.c0 * crit.mu) ** 2 * 2.0 * tau / math.sqrt(n)
    x = crit.c0 * (crit.z0 * math.sqrt(n) + crit.bigA * tau + crit.mu * xi / n**0.25)
    if not 0.0 < t < 1.0:
        raise ValueError("rescaled time left (0,1); shrink tau or grow n")
    return t, x


def inverse_rescale_map(crit: CriticalData, n: int, t: float, x: float):
    """Inverse of rescale_map (exact; the map is affine for fixed n)."""
    tau = (t - crit.t0) * math.sqrt(n) / (2.0 * (crit.c0 * crit.mu) ** 2)
    xi = (x / crit.c0 - crit.z0 * math.sqrt(n) - crit.bigA * tau) * n**0.25 / crit.mu
    return tau, xi


def log_conjugation_factor(crit: CriticalData, n: int, tau: float, xi: float) -> float:
    """log D(xi, tau) = -u0 mu xi n^(1/4) - (1/2) sqrt(n) tau u0^2 mu^2
    - (1/2) t0 u0^2 mu^4 tau^2."""
    u0, mu, t0 = crit.u0, crit.mu, crit.t0
    return (-u0 * mu * xi * n**0.25
            - 0.5 * math.sqrt(n) * tau * u0**2 * mu**2
            - 0.5 * t0 * u0**2 * mu**4 * tau**2)


def conjugation_factor(crit: CriticalData, n: int, tau: float, xi: float) -> float:
    return math.exp(log_conjugation_factor(crit, n, tau, xi))


# ---------------------------------------------------------------------------
# remainder bound (quartic Taylor control)


def remainder_bound_check(q: float, delta: float, n: int):
    """Check n|F(u0 + delta/n^(1/4)) - F(u0) - F''''(u0) delta^4/(4! n)|
    <= 64 delta^5 (q + 1/q)^5 / (5 n^(1/4))."""
    r = math.sqrt(q * q - q + 1.0)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    w = delta / n**0.25
    # delta <= n^(1/20) governs where the estimate is USED (the contour
    # neighborhood); the inequality itself only needs the bound below, which
    # keeps the fifth-derivative maximum finite
    if w > min(1.0, q) / (2.0 * r):
        raise ValueError("precondition delta/n^(1/4) <= min(1,q)/(2r) violated")
    # the remainder is the Taylor tail of centered_action from order 5, whose
    # terms shrink by at most r w / min(1, q) <= 1/2 each, so 55 of them reach
    # rounding; centered_action minus its quartic term would leave its own
    # rounding, about 1e-16, which n magnifies past the bound
    p = 1.0 / (1.0 + q**3)
    k = np.arange(5, 60)
    lhs = n * abs(float(np.sum((-p * (r * w) ** k
                                + (1.0 - p) * (-1.0) ** (k - 1) * (r * w / q) ** k) / k)))
    rhs = 64.0 * delta**5 / (5.0 * n**0.25) * (q + 1.0 / q) ** 5
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# descent check


def contour_descent_check(q: float, contour, samples: int = 200,
                          u_contour=None) -> DescentReport:
    """Verify Re F decreases away from the saddle along the u-line, and -Re F
    decreases away from it along every v-segment (including horizontal
    continuations), sampling `samples` >= 8 points per segment: at 2 to 6 a
    rising contour can fall between the samples and pass."""
    if samples < 8:
        raise ValueError("samples must be >= 8: fewer points per segment can miss a rise")
    if u_contour is None:
        u_contour, _ = build_contours(q, QuadratureSpec().truncation_radius, contour.center)
    rises, npts = _descent_rises(q, u_contour, contour, samples)
    return DescentReport(passed=not rises, worst=max((r[3] for r in rises), default=0.0),
                         checked_points=npts, details=tuple(rises[:16]))


# ---------------------------------------------------------------------------
# convergence study


_PROBE = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


def convergence_study(a: float, b: float, p: float, n_list, taus=(0.0,),
                      spec: QuadratureSpec | None = None) -> ConvergenceStudy:
    """Max deviation of the conjugated, rescaled finite-n kernel from the
    Pearcey kernel over the probe grid xi, eta in _PROBE at each time tau of
    taus, for each n; least-squares slope of log(error) against log(n) over
    the last three rows.

    Group sizes n1 + n2 = n are group_sizes' integers; each row uses the
    critical data of its effective fraction n1/n, which converges to p.  The Pearcey target
    is fraction-independent (universality), so rows remain comparable.
    """
    n_list = [int(n) for n in n_list]
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])) or min(n_list) < 16:
        raise ValueError("n_list must be ascending with every n >= 16")
    # the Pearcey target does not depend on n: one grid per time
    targets = [(tau, pearcey_kernel_grid(tau, tau, _PROBE, _PROBE, spec)) for tau in taus]
    rows = []
    for n in n_list:
        p_eff = group_sizes(n, (1.0 - p, p))[1] / n
        crit = find_cusp(a, b, p_eff)
        err = 0.0
        for tau, KP in targets:
            t, _ = rescale_map(crit, n, tau, 0.0)
            xs = np.array([rescale_map(crit, n, tau, xi)[1] for xi in _PROBE])
            params = FiniteKernelParams(n=n, a=a, b=b, p=p_eff, t_k=t, t_l=t)
            vals, ls = finite_n_kernel_grid(params, xs, xs, spec)
            logD = np.array([log_conjugation_factor(crit, n, tau, xi) for xi in _PROBE])
            resc = (crit.c0 * crit.mu * n**-0.25
                    * vals * np.exp(ls + logD[:, None] - logD[None, :]))
            err = max(err, float(np.abs(resc - KP).max()))
        rows.append(ConvergenceRow(n=n, max_abs_error=err))
    tail = rows[-3:] if len(rows) >= 3 else rows
    lx = np.log([r.n for r in tail])
    ly = np.log([max(r.max_abs_error, 1e-300) for r in tail])
    slope = float(np.polyfit(lx, ly, 1)[0]) if len(tail) >= 2 else math.nan
    return ConvergenceStudy(rows=tuple(rows), slope=slope)
