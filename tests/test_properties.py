"""Hypothesis properties of the forward map over (law, alpha, beta).

* forward_cdf, in weyl and in mixture mode, is a CDF on a sorted grid: its
  values lie in [0, 1] and do not decrease.
* chain_forward composes: B_{a,b} * B_{a+b,c} has the law of B_{a,b+c}, so
  the two-multiplier chain equals the one-step forward CDF with beta = b + c.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from betascale import (Beta, Exponential, Gamma, Pareto, PointMass, Rayleigh, Uniform,
                       chain_forward, forward_cdf)

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
