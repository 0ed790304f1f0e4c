"""Hypothesis properties of the forward map over (law, alpha, beta).

* forward_cdf, in weyl and in mixture mode, is a CDF on a sorted grid: its
  values lie in [0, 1] and do not decrease.
* chain_forward composes: B_{a,b} * B_{a+b,c} has the law of B_{a,b+c}, so
  the two-multiplier chain equals the one-step forward CDF with beta = b + c.
  A shuffled chain of links that compose is exactly one mixture forward call,
  the stages of an IterationPlan chain to the forward map they undo, and the
  nested engine, one level per link, agrees with the one-step references.
* Weyl integrals compose: I_a I_b p_{-c} = I_{a+b} p_{-c}
  = Gamma(c-a-b)/Gamma(c) * x**(a+b-c) for c > a + b.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betascale import (Beta, Exponential, Gamma, IterationPlan, Pareto, PointMass,
                       QuadratureConfig, Rayleigh, Uniform, chain_forward, forward_cdf,
                       power_weight, weyl_integral)
from betascale.scaling import _Chained, _merge_links

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


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_LAWS))), st.integers(5, 64),
       st.lists(st.integers(2, 32), min_size=2, max_size=4), st.randoms(use_true_random=False),
       st.floats(0.02, 0.98))
def test_composing_chain_is_one_forward_call(law, a16, b16, rnd, q):
    # links (a, b_1), (a + b_1, b_2), ... in sixteenths, whose sums are exact,
    # so that every order of the merge sums the betas to the same sum(b)
    a, b = a16 / 16, [v / 16 for v in b16]
    links = [(a + sum(b[:i]), v) for i, v in enumerate(b)]
    rnd.shuffle(links)
    H = _LAWS[law]
    x = float(H.quantile(q))
    assert chain_forward(H, links, x) == forward_cdf(H, a, sum(b), x, mode="mixture")


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_LAWS))), st.floats(0.3, 4.0), st.floats(0.2, 4.0),
       st.floats(0.02, 0.98))
def test_plan_stages_chain_to_the_forward_map(law, alpha, beta, q):
    # stage i removes B_{alpha + b_i, lam_i}; together they are B_{alpha, beta}
    plan = IterationPlan.default_for(beta)
    links = [(alpha + t, lam) for lam, t in zip(plan.lams, plan.breakpoints[1:] + [0.0])]
    assert len(_merge_links(links)) == 1
    H = _LAWS[law]
    x = float(H.quantile(q))
    assert abs(chain_forward(H, links, x)
               - forward_cdf(H, alpha, beta, x, mode="mixture")) <= 1e-12


def _nested(H, links, x):
    """chain_forward's CDF at x with every link its own level of the engine."""
    law = H
    for level, (a, b) in enumerate(links, start=1):
        law = _Chained(law, a, b, QuadratureConfig(), f"nested level {level}")
    return float(np.clip(law.cdf(np.array([x])), 0.0, 1.0)[0])


def test_unmerged_chain_levels_compose():
    # the chains of tests/test_node_map.py::test_chain_gamma_beta_closed_form,
    # tests/test_scaling.py::test_chain_forward_composes and
    # test_chain_forward_composes_to_one_step, which chain_forward now merges
    # to one link, nested link by link against the same references and bounds
    a, b, c = 1.3, 0.7, 1.6
    for links in ([(a + b, c), (a, b)], [(a, b), (a + b, c)]):
        for x in (0.05, 0.5, 1.0, 3.0, 8.0):
            assert _nested(Gamma(a + b + c, 1.0), links, x) == pytest.approx(
                float(Gamma(a, 1.0).cdf(x)), rel=1e-10, abs=1e-11)
    assert _nested(Uniform(0.0, 1.0), [(1.5, 0.5), (1.0, 0.5)], 0.4) == pytest.approx(
        forward_cdf(Uniform(0.0, 1.0), 1.0, 1.0, 0.4), abs=1e-6)
    # one (a, b, c, q) from the property's ranges for each law
    cases = [(0.5, 1.7, 0.4, 0.3), (3.2, 0.3, 1.9, 0.9), (1.0, 1.0, 1.0, 0.5),
             (2.0, 0.7, 1.4, 0.2), (0.3, 2.0, 0.2, 0.98), (4.0, 0.2, 2.0, 0.02),
             (1.5, 1.2, 0.6, 0.7), (2.5, 0.6, 0.9, 0.4)]
    for H, (a, b, c, q) in zip(_LAWS, cases):
        x = float(H.quantile(q))
        nested = _nested(H, [(a, b), (a + b, c)], x)
        assert abs(nested - forward_cdf(H, a, b + c, x, mode="mixture")) <= CHAIN_ABS


# relative tolerance alone, tighter than the default: an inner value far
# out in the tail, ~1e-16 at y = 1e8 for c = 3.5, is held to 1e-10 of
# itself, which the outer kernel weight (y - x)**(a - 1) then magnifies
SEMIGROUP_CFG = QuadratureConfig(rtol=1e-10)
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
