import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from betascale import (
    NumericError,
    PointMass,
    QuadratureConfig,
    TabulatedCdf,
    Uniform,
    make_rng,
    power_weight,
    weyl_integral,
    weyl_stieltjes,
)


def frac_power_integral(c, beta, x):
    """Closed form of the order-beta integral of y**(-c): G(c-b)/G(c) x**(b-c)."""
    return gamma_fn(c - beta) / gamma_fn(c) * x ** (beta - c)


# ---------------------------------------------------------------------------
# weyl_integral

def test_power_integrand_order_one():
    val = weyl_integral(power_weight(-2.0), 1.0, 2.0)
    assert val == pytest.approx(0.5, rel=1e-8)


def test_power_integrand_half_order():
    val = weyl_integral(power_weight(-2.0), 0.5, 1.0)
    assert val == pytest.approx(gamma_fn(1.5) / gamma_fn(2.0), rel=1e-8)


def test_order_zero_is_identity():
    for x in (0.3, 1.0, 4.0):
        assert weyl_integral(lambda y: np.exp(-y), 0.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_power_closed_form_random_grid():
    rng = make_rng(42)
    for _ in range(20):
        beta = 0.1 + 1.9 * rng.random()
        c = beta + 0.2 + 2.0 * rng.random()
        x = 0.3 + 2.0 * rng.random()
        val = weyl_integral(power_weight(-c), beta, x)
        ref = frac_power_integral(c, beta, x)
        assert abs(val - ref) <= 1e-6 * abs(ref)


def test_semigroup_property():
    # I_beta (I_c h) == I_{beta+c} h for power integrands
    for beta, c in [(0.5, 0.5), (1.0, 1.0), (0.3, 1.2)]:
        s = beta + c + 0.75
        for x in (0.5, 1.0, 2.0):
            inner = lambda y, _c=c, _s=s: np.vectorize(
                lambda v: frac_power_integral(_s, _c, v))(y)
            lhs = weyl_integral(inner, beta, x)
            rhs = frac_power_integral(s, beta + c, x)
            assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_differentiation_identity():
    # d/dx (I_1 h)(x) = -h(x) for smooth h
    h = lambda y: np.exp(-y)
    for x in (0.5, 1.0, 2.0):
        step = 1e-5
        deriv = (weyl_integral(h, 1.0, x + step) - weyl_integral(h, 1.0, x - step)) / (2 * step)
        assert abs(deriv + math.exp(-x)) <= 1e-6


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_tolerance_failure_reports_estimate():
    cfg = QuadratureConfig(rtol=1e-13, limit=1)
    with pytest.raises(NumericError) as err:
        weyl_integral(lambda y: np.cos(40.0 * y) * np.exp(-y), 0.5, 1.0, cfg=cfg)
    assert err.value.estimate is not None


# ---------------------------------------------------------------------------
# weyl_stieltjes

def test_stieltjes_uniform_order_one_is_sf():
    H = Uniform(0.0, 1.0)
    for x in (0.2, 0.5, 0.8):
        val = weyl_stieltjes(lambda y: np.ones_like(np.asarray(y, dtype=float)), H, 1.0, x)
        assert val == pytest.approx(1.0 - x, rel=1e-8)


def test_stieltjes_uniform_order_two():
    H = Uniform(0.0, 1.0)
    val = weyl_stieltjes(lambda y: np.ones_like(np.asarray(y, dtype=float)), H, 2.0, 0.5)
    assert val == pytest.approx(0.125, rel=1e-8)


def test_stieltjes_pointmass_atom():
    H = PointMass(1.0)
    g = lambda y: np.ones_like(np.asarray(y, dtype=float))
    assert weyl_stieltjes(g, H, 2.0, 0.5) == pytest.approx(0.5, rel=1e-12)
    # below the atom's location nothing contributes
    assert weyl_stieltjes(g, H, 2.0, 1.5) == 0.0


def test_stieltjes_order_zero_is_weighted_density():
    H = Uniform(0.0, 1.0)
    g = power_weight(2.0)
    assert weyl_stieltjes(g, H, 0.0, 0.5) == pytest.approx(0.25, rel=1e-10)


def test_stieltjes_tabulated_singular_order():
    # tabulated uniform, beta <= 1: the affine engine path must match the closed form
    grid = np.linspace(0.0, 1.0, 200)
    H = TabulatedCdf(grid, grid)
    g = lambda y: np.ones_like(np.asarray(y, dtype=float))
    for beta in (0.3, 0.7, 1.0):
        for x in (0.25, 0.5, 0.75):
            ref = (1.0 - x) ** beta / (beta * gamma_fn(beta))
            val = weyl_stieltjes(g, H, beta, x)
            assert val == pytest.approx(ref, rel=5e-4)
