import numpy as np
import pytest

from pearceylab import fredholm, kernels
from pearceylab._quad import QuadratureSpec


@pytest.fixture(scope="session")
def spec():
    return QuadratureSpec()


@pytest.fixture
def pq_calls(monkeypatch):
    """A list that grows by one at each kernels._pq_checked call (one checked
    p/q tabulation), wherever a module holds the function."""
    calls = []
    original = kernels._pq_checked

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in (kernels, fredholm):
        monkeypatch.setattr(mod, "_pq_checked", counted)
    return calls


@pytest.fixture
def rng():
    """A fresh stream per test, so a test's draws do not depend on which
    tests ran before it."""
    return np.random.default_rng(20260808)


def random_abp(rng, lo_p=0.05, hi_p=0.95):
    """Random valid (a, b, p) with a > b and moderate separation."""
    a = rng.uniform(0.3, 2.0)
    b = a - rng.uniform(0.4, 2.5)
    p = rng.uniform(lo_p, hi_p)
    return a, b, p
