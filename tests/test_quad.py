import numpy as np
import pytest

from pearceylab._quad import QuadratureSpec, _gl, panel_rule, segment_rule


def test_panel_rule_exact_on_polynomials():
    x, w = panel_rule(-1.0, 3.0, 4, 8)
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


def test_panel_rule_graded_covers_interval():
    x, w = panel_rule(0.0, 2.0, 10, 16, grade_toward="a", inner=1e-6)
    assert np.sum(w) == pytest.approx(2.0, rel=1e-13)
    assert x.min() < 1e-6 and x.max() > 1.9


def test_segment_rule_direction():
    z, w = segment_rule(0.0, 1.0 + 1.0j, 3, 8)
    assert np.sum(w) == pytest.approx(1.0 + 1.0j, rel=1e-13)
    # reversing the segment flips the integral
    z2, w2 = segment_rule(1.0 + 1.0j, 0.0, 3, 8)
    assert np.sum(w2) == pytest.approx(-(1.0 + 1.0j), rel=1e-13)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(truncation_radius=2.0)
    with pytest.raises(ValueError):
        QuadratureSpec(panels=1, nodes_per_panel=4)
    s = QuadratureSpec()
    assert s.refined().nodes_per_panel == 2 * s.nodes_per_panel
    assert s.widened(2.0).truncation_radius == s.truncation_radius + 2.0
