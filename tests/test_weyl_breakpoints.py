"""Weyl-mode breakpoints on an infinite range.

QUADPACK takes no breakpoints on an infinite interval, so a kink or jump of
the integrand there (the upper end of a bounded law, the atom of a point
mass, the Pareto density at xmin) used to be missed at some x.  Each probe
below was off by 6e-7 to 3e-4 before the range was split at the last
breakpoint.
"""

import math

import pytest
from scipy import special as sc

from betascale import (Beta, Pareto, PointMass, Uniform, forward_cdf, forward_pdf,
                       weyl_integral)


def test_weyl_integral_jump_on_infinite_range():
    # h = 1 on (x, 1], 0 beyond: I_beta h (x) = (1 - x)**beta / Gamma(beta + 1)
    h = lambda y: 1.0 if y <= 1.0 else 0.0
    for beta in (0.5, 1.0, 1.5):
        val = weyl_integral(h, beta, 0.3, points=[1.0])
        assert val == pytest.approx(0.7 ** beta / math.gamma(beta + 1.0), rel=1e-12)


def test_pointmass_atom_probe():
    assert forward_cdf(PointMass(1.0), 2.0, 3.0, 0.476) == pytest.approx(
        sc.betainc(2.0, 3.0, 0.476), abs=1e-12)


@pytest.mark.parametrize("x", [0.47, 0.8])
def test_pareto_density_below_xmin_probe(x):
    # B_{2,.7} * Pareto(2, 1) below xmin: pdf = 2/x * x**-2 * E[B^2; B <= x]
    moment = math.exp(sc.betaln(4.0, 0.7) - sc.betaln(2.0, 0.7))
    ref = 2.0 / x * x ** -2.0 * moment * sc.betainc(4.0, 0.7, x)
    assert forward_pdf(Pareto(2.0, 1.0), 2.0, 0.7, x) == pytest.approx(ref, rel=1e-10)


def test_uniform_upper_end_probe():
    x = 0.668
    assert forward_cdf(Uniform(0.0, 1.0), 1.0, 1.0, x) == pytest.approx(x - x * math.log(x),
                                                                         abs=1e-12)


def test_beta_upper_end_probe():
    # Beta(1.5, .5) scaled by B(1, .5) is Uniform(0, 1)
    assert forward_cdf(Beta(1.5, 0.5), 1.0, 0.5, 0.6387) == pytest.approx(0.6387, abs=1e-12)
