"""Hypothesis properties of the forward map over (law, alpha, beta).

* forward_cdf, in weyl and in mixture mode, is a CDF on a sorted grid: its
  values lie in [0, 1] and do not decrease.
* chain_forward composes: B_{a,b} * B_{a+b,c} has the law of B_{a,b+c}, so
  the two-multiplier chain equals the one-step forward CDF with beta = b + c.
* Weyl integrals compose: I_a I_b p_{-c} = I_{a+b} p_{-c}
  = Gamma(c-a-b)/Gamma(c) * x**(a+b-c) for c > a + b.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betascale import (Beta, Exponential, Gamma, Pareto, PointMass, QuadratureConfig, Rayleigh,
                       Uniform, chain_forward, forward_cdf, power_weight, weyl_integral)

_LAWS = [Exponential(1.0), Gamma(2.5, 1.5), Rayleigh(1.0), Pareto(2.0, 1.0),
         Uniform(0.0, 1.0), Beta(2.0, 2.0), Beta(1.5, 0.5), PointMass(1.0)]

# the forward CDF may step down by no more than its weyl-vs-mixture agreement
MONOTONE_SLACK = 1e-6
CHAIN_ABS = 1e-8


def _grid(H):
    # the scaled law lives on [0, upper]: from near 0 to past H's 0.999 quantile
    return np.linspace(0.0, 1.2 * float(H.quantile(0.999)) + 0.1, 13)[1:]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_LAWS))), st.floats(0.3, 4.0), st.floats(0.2, 3.0),
       st.sampled_from(["weyl", "mixture"]))
def test_forward_cdf_is_bounded_and_nondecreasing(law, alpha, beta, mode):
    H = _LAWS[law]
    values = np.asarray(forward_cdf(H, alpha, beta, _grid(H), mode=mode))
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= -MONOTONE_SLACK)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_LAWS))), st.floats(0.3, 4.0), st.floats(0.2, 2.0),
       st.floats(0.2, 2.0), st.floats(0.02, 0.98))
def test_chain_forward_composes_to_one_step(law, a, b, c, q):
    H = _LAWS[law]
    x = float(H.quantile(q))
    chained = chain_forward(H, [(a, b), (a + b, c)], x)
    assert abs(chained - forward_cdf(H, a, b + c, x, mode="mixture")) <= CHAIN_ABS


# relative tolerance alone: under the default atol of 1e-10 an inner value
# far out in the tail, ~1e-16 at y = 1e8 for c = 3.5, may be off by most of
# itself, and the outer kernel weight (y - x)**(a - 1) magnifies that
SEMIGROUP_CFG = QuadratureConfig(atol=0.0, rtol=1e-10)
SEMIGROUP_REL = 1e-9


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.floats(0.2, 1.5), st.floats(0.2, 1.5), st.floats(0.5, 2.5), st.floats(0.1, 5.0))
def test_weyl_integrals_compose(a, b, gap, x):
    c = a + b + gap
    exact = math.exp(math.lgamma(c - a - b) - math.lgamma(c)) * x ** (a + b - c)
    inner = lambda y: weyl_integral(power_weight(-c), b, y, cfg=SEMIGROUP_CFG)
    assert weyl_integral(inner, a, x, cfg=SEMIGROUP_CFG) == pytest.approx(exact, rel=SEMIGROUP_REL)
    assert weyl_integral(power_weight(-c), a + b, x, cfg=SEMIGROUP_CFG) == pytest.approx(
        exact, rel=SEMIGROUP_REL)
