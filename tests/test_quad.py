import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from pearceylab._quad import QuadratureSpec, _gl, _gl_table, _legendre, panel_rule, panels

# every Gauss-Legendre order the package, its tests and the README lines
# build: nodes per panel 32 and 64, Nystrom m and 2m, and the tests' own
USED_ORDERS = (8, 10, 12, 16, 20, 24, 25, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160)
# where the rule differs from the scipy-started oracle: weight indices one
# ulp apart.  Both rules are at rounding and neither is always the correctly
# rounded one: against 40-digit values the oracle's are at 25 and 37 nodes,
# the Newton rule's at 59, 86, 87, 105 and 107
MOVED_WEIGHTS = {25: (9, 15)}


def _gl_oracle(n):
    """The rule as it was built on scipy: roots_legendre's nodes, one Newton
    step on P_n in extended precision, and the weights at the polished nodes."""
    x = roots_legendre(n)[0].astype(np.longdouble)
    p, dp = _legendre(n, x)
    x -= p / dp
    _, dp = _legendre(n, x)
    return x.astype(float), (2 / ((1 - x * x) * dp * dp)).astype(float)


def test_panel_rule_exact_on_polynomials():
    x, w = panel_rule(*panels([(-1.0, 3.0, 4)]), 8)
    assert x.dtype == w.dtype == float
    for k in range(6):
        exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_gauss_legendre_weights_at_rounding(n):
    # e^{20x} on [-1, 1] puts its mass on the end nodes, whose weights
    # scipy's roots_legendre gets wrong by up to 6e-13 relative at n = 32
    # (a 4.6e-14 error here) and 5e-11 at n = 128
    x, w = _gl(n)
    exact = np.sinh(20.0) / 10.0
    assert abs(np.sum(w * np.exp(20.0 * x)) - exact) <= 2e-15 * exact
    assert abs(np.sum(w) - 2.0) <= 4e-16 * n
    assert (np.diff(x) > 0).all() and np.array_equal(x, -x[::-1])


@pytest.mark.parametrize("n", USED_ORDERS)
def test_gauss_legendre_matches_oracle_at_used_orders(n):
    x, w = _gl(n)
    xo, wo = _gl_oracle(n)
    assert np.array_equal(x, xo)
    moved = np.zeros(n, dtype=bool)
    moved[list(MOVED_WEIGHTS.get(n, ()))] = True
    assert np.array_equal(w[~moved], wo[~moved])
    assert (np.abs(w - wo)[moved] == np.spacing(wo[moved])).all()


def test_gauss_legendre_all_orders():
    for n in range(1, 257):
        x, w = _gl.__wrapped__(n)     # uncached: leaves the rule cache as it was
        xo, wo = _gl_oracle(n)
        assert (np.abs(x - xo) <= 1e-15 * np.abs(xo)).all(), n
        assert (np.abs(w - wo) <= 1e-15 * wo).all(), n
        assert (np.diff(x) > 0).all() and np.array_equal(x, -x[::-1]), n
        assert n % 2 == 0 or x[n // 2] == 0.0, n


def test_panel_rule_direction():
    z, w = panel_rule(*panels([(0.0, 1.0 + 1.0j, 3)]), 8)
    assert np.sum(w) == pytest.approx(1.0 + 1.0j, rel=1e-13)
    # reversing the leg flips the integral
    z2, w2 = panel_rule(*panels([(1.0 + 1.0j, 0.0, 3)]), 8)
    assert np.sum(w2) == pytest.approx(-(1.0 + 1.0j), rel=1e-13)


def test_per_panel_orders():
    # one order per panel gathers each panel's rule from one read-only table
    # of orders, in panel order; a constant order gives the uniform rule bit
    # for bit, and no legs give no nodes
    mid, hv = panels([(0.5 - 2.0j, -1.0 + 3.0j, 2), (-1.0 + 3.0j, 2.0, 3)])
    z, w = panel_rule(mid, hv, 32)
    assert np.array_equal(panel_rule(mid, hv, np.full(5, 32)), (z, w))
    nodes = np.array([6, 32, 7, 40, 6])
    z, w = panel_rule(mid, hv, nodes)
    ends = np.cumsum(nodes)
    for k, n in enumerate(nodes):
        x, wk = _gl(n)
        assert np.array_equal(z[ends[k] - n:ends[k]], mid[k] + hv[k] * x)
        assert np.array_equal(w[ends[k] - n:ends[k]], hv[k] * wk)
    table = _gl_table(64)
    assert _gl_table(64) is table and all(not arr.flags.writeable for arr in table)
    assert all(arr.size == 0 for arr in panel_rule(*panels([]), 8))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(truncation_radius=2.0)
    with pytest.raises(ValueError):
        QuadratureSpec(panels=1, nodes_per_panel=4)
    # each factor is checked, not only their product (64 in the first three)
    for bad in [dict(panels=-8, nodes_per_panel=-8), dict(panels=-1, nodes_per_panel=-64),
                dict(panels=-64, nodes_per_panel=-1), dict(truncation_radius=math.nan),
                dict(truncation_radius=math.inf)]:
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    assert QuadratureSpec(4.0, 1, 64).panels == 1
    s = QuadratureSpec()
    assert s.refined().nodes_per_panel == 2 * s.nodes_per_panel
