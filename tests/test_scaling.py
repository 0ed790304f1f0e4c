import math

import numpy as np
import pytest

from betascale import (
    Beta,
    DomainError,
    Exponential,
    Gamma,
    IterationPlan,
    PointMass,
    ScalingParams,
    StageError,
    TabulatedCdf,
    Uniform,
    chain_forward,
    corollary_check,
    forward_cdf,
    forward_pdf,
    forward_sf,
    forward_tabulated,
    invert_iterative,
    invert_onestep,
    invert_step,
    reg_inc_beta,
    weyl_integral,
)


def uu_sf(x):
    """Survivor of the product of two independent uniforms."""
    return 1.0 - x + x * math.log(x)


def uu_cdf(x):
    return x - x * math.log(x)


# ---------------------------------------------------------------------------
# forward map

def test_forward_cdf_pointmass_is_beta():
    from betascale import QuadratureConfig

    cfg = QuadratureConfig(rtol=1e-12)
    for alpha, beta in [(2.0, 2.0), (1.0, 0.5), (3.0, 1.7)]:
        for x in (0.1, 0.5, 0.9):
            val = forward_cdf(PointMass(1.0), alpha, beta, x, mode="mixture", cfg=cfg)
            assert val == pytest.approx(reg_inc_beta(alpha, beta, x), abs=1e-10)
            # weyl mode integrates across the atom; slightly looser
            direct = forward_cdf(PointMass(1.0), alpha, beta, x)
            assert direct == pytest.approx(reg_inc_beta(alpha, beta, x), abs=1e-8)


def test_forward_cdf_beta_multiplicative():
    # scaling beta(1.5, 0.5) by (1, 0.5) composes to a uniform multiplier
    val = forward_cdf(Beta(1.5, 0.5), 1.0, 0.5, 0.5)
    assert val == pytest.approx(0.5, abs=1e-6)


def test_forward_sf_pareto():
    val = forward_sf(Pareto := __import__("betascale").Pareto(2.0, 1.0), 1.0, 1.0, 2.0)
    assert val == pytest.approx(1.0 / 12.0, rel=1e-8)


def test_forward_sf_product_of_uniforms():
    val = forward_sf(Uniform(0.0, 1.0), 1.0, 1.0, 0.5)
    assert val == pytest.approx(uu_sf(0.5), rel=1e-8)


def test_forward_sf_pareto_one():
    from betascale import Pareto

    assert forward_sf(Pareto(1.0, 1.0), 1.0, 1.0, 4.0) == pytest.approx(1.0 / 8.0, rel=1e-8)


def test_forward_pdf_examples():
    assert forward_pdf(Uniform(0.0, 1.0), 1.0, 1.0, 0.5) == pytest.approx(-math.log(0.5), rel=1e-8)
    assert forward_pdf(PointMass(1.0), 2.0, 2.0, 0.5) == pytest.approx(1.5, rel=1e-10)


def test_forward_pdf_matches_cdf_derivative():
    h = 1e-4
    for x in (0.3, 0.6):
        num = (forward_cdf(Uniform(0.0, 1.0), 1.0, 1.0, x + h)
               - forward_cdf(Uniform(0.0, 1.0), 1.0, 1.0, x - h)) / (2 * h)
        assert forward_pdf(Uniform(0.0, 1.0), 1.0, 1.0, x) == pytest.approx(num, abs=1e-5)


def test_forward_modes_agree():
    from betascale import Pareto

    configs = [
        (Uniform(0.0, 1.0), 1.0, 1.0, 0.4),
        (Exponential(1.0), 2.0, 0.7, 1.5),
        (Pareto(2.0, 1.0), 1.0, 0.5, 3.0),
        (Beta(2.0, 2.0), 1.0, 0.5, 0.6),
    ]
    for H, a, b, x in configs:
        assert forward_cdf(H, a, b, x, mode="weyl") == pytest.approx(
            forward_cdf(H, a, b, x, mode="mixture"), abs=1e-6)


def test_forward_cdf_sf_complement():
    for x in (0.2, 0.5, 0.8):
        c = forward_cdf(Uniform(0.0, 1.0), 1.0, 0.5, x)
        s = forward_sf(Uniform(0.0, 1.0), 1.0, 0.5, x)
        assert abs(c + s - 1.0) <= 1e-8


def test_forward_is_valid_cdf_in_x():
    xs = np.linspace(0.01, 0.999, 60)
    vals = [forward_cdf(Uniform(0.0, 1.0), 2.0, 0.7, x) for x in xs]
    assert all(b2 >= b1 - 1e-10 for b1, b2 in zip(vals, vals[1:]))
    # endpoint limits: the scaled CDF behaves like E[1/B] * x near 0
    assert forward_cdf(Uniform(0.0, 1.0), 2.0, 0.7, 1e-6) <= 1e-5
    assert vals[-1] >= 1.0 - 1e-2


def test_forward_negative_support_rejected():
    with pytest.raises(DomainError):
        forward_cdf(Uniform(-1.0, 1.0), 1.0, 1.0, 0.5)


def test_nested_operator_forward():
    # two-stage fractional form of the survivor map, gaps (lam, beta - lam)
    from betascale.fractional import power_weight

    H = Uniform(0.0, 1.0)
    alpha, beta, lam = 1.0, 1.0, 0.5
    K = math.gamma(alpha + beta) / math.gamma(alpha)
    for x in (0.2, 0.5, 0.8):
        inner = lambda y: np.vectorize(
            lambda v: weyl_integral(lambda z: np.asarray(z) ** (-alpha - lam)
                                    * np.vectorize(H.sf)(z), lam, v, upper=1.0))(y)
        outer = weyl_integral(lambda y: np.asarray(y) ** (-beta) * inner(y),
                              beta - lam, x, upper=1.0)
        nested = K * x ** (alpha + lam) * outer
        assert nested == pytest.approx(forward_sf(H, alpha, beta, x), abs=1e-6)


# ---------------------------------------------------------------------------
# inversion

def test_invert_onestep_product_of_uniforms():
    F = TabulatedCdf(np.linspace(1e-6, 1.0, 400),
                     [uu_cdf(x) for x in np.linspace(1e-6, 1.0, 400)])
    assert invert_onestep(F, 1.0, 1.0, 0.3) == pytest.approx(0.7, abs=1e-3)


def test_invert_iterative_recovers_pointmass():
    # Beta(2, 2) is B_{2,2} * 1: two steps of one unit leave the point mass at 1
    xs = np.linspace(0.05, 0.95, 19)
    rec = invert_iterative(Beta(2.0, 2.0), 2.0, IterationPlan.default_for(2.0), xs)
    assert np.max(np.abs(rec.sf(xs) - 1.0)) <= 1e-3


@pytest.mark.parametrize("alpha,lam", [(0.7, 0.4), (2.0, 0.75), (1.3, 1.0)])
def test_invert_onestep_gamma_is_exact(alpha, lam):
    # Gamma(a + b) * B_{a,b} = Gamma(a): removing B_{alpha,lam} from Gamma(alpha)
    # leaves Gamma(alpha + lam), on the law and on a 600-node table of it
    xs = np.geomspace(0.01, 20.0, 40)
    ref = Gamma(alpha + lam, 1.0).sf(xs)
    F = Gamma(alpha, 1.0)
    assert np.max(np.abs(invert_onestep(F, alpha, lam, xs) - ref)) <= 1e-12
    grid = np.geomspace(1e-3, 40.0, 600)
    table = TabulatedCdf(grid, F.cdf(grid))
    assert np.max(np.abs(invert_onestep(table, alpha, lam, xs) - ref)) <= 1e-4


def test_invert_onestep_uniform_half():
    val = invert_onestep(Uniform(0.0, 1.0), 1.0, 0.5, 0.5)
    assert val == pytest.approx(Beta(1.5, 0.5).sf(0.5), abs=1e-6)


def test_invert_onestep_rejects_beta_above_one():
    with pytest.raises(DomainError, match="invert_iterative"):
        invert_onestep(Uniform(0.0, 1.0), 1.0, 1.7, 0.5)


def test_invert_onestep_monotone_in_x():
    vals = [invert_onestep(Uniform(0.0, 1.0), 1.0, 0.5, x) for x in np.linspace(0.05, 0.95, 19)]
    assert all(b <= a + 1e-4 for a, b in zip(vals, vals[1:]))


def test_invert_step_full_removal():
    F = TabulatedCdf(np.linspace(1e-6, 1.0, 400),
                     [uu_cdf(x) for x in np.linspace(1e-6, 1.0, 400)])
    assert invert_step(F, 1.0, 1.0, 1.0, 0.3) == pytest.approx(0.7, abs=1e-3)


def test_invert_step_beta_pointmass():
    for x in (0.25, 0.5, 0.75):
        assert invert_step(Beta(1.0, 0.5), 1.0, 0.5, 0.5, x) == pytest.approx(1.0, abs=1e-4)


def test_invert_step_matches_onestep_at_full_lambda():
    for x in np.linspace(0.1, 0.9, 10):
        a = invert_step(Uniform(0.0, 1.0), 1.0, 0.5, 0.5, x)
        b = invert_onestep(Uniform(0.0, 1.0), 1.0, 0.5, x)
        assert abs(a - b) <= 1e-6


def test_invert_step_parameter_validation():
    with pytest.raises(DomainError):
        invert_step(Uniform(0.0, 1.0), 1.0, 1.5, 1.0, 0.5)   # lam > beta
    with pytest.raises(DomainError):
        invert_step(Uniform(0.0, 1.0), 1.0, 0.2, 1.5, 0.5)   # beta - lam >= 1


def test_iteration_plan_parsing():
    plan = IterationPlan.parse("1.7,0.85")
    assert tuple(plan.breakpoints) == (1.7, 0.85)
    assert list(plan.lams) == pytest.approx([0.85, 0.85])
    with pytest.raises(DomainError):
        IterationPlan((1.0, 2.0))      # not decreasing
    with pytest.raises(DomainError):
        IterationPlan((3.0, 1.5))      # gap > 1
    with pytest.raises(DomainError, match="'x'"):
        IterationPlan.parse("0.5,x")   # not a number
    with pytest.raises(DomainError, match="'x'"):
        IterationPlan(["0.5", "x"])
    assert IterationPlan(["1.5", 0.75]).breakpoints == [1.5, 0.75]


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_default_plan_rejects_a_beta_that_is_not_finite_and_positive(beta):
    with pytest.raises(DomainError, match=rf"^beta must be finite and positive, not {beta}$"):
        IterationPlan.default_for(beta)


@pytest.mark.parametrize("beta,stages", [(1e-13, 1), (0.5, 1), (1.0, 1), (1.0 + 1e-13, 1),
                                         (1.6, 2), (2.5, 3)])
def test_default_plan_gives_every_positive_beta_a_stage(beta, stages):
    plan = IterationPlan.default_for(beta)
    assert plan.beta == beta and len(plan.lams) == stages
    if stages == 1:
        assert plan.breakpoints == IterationPlan([beta]).breakpoints


def test_invert_iterative_rejects_an_empty_grid():
    with pytest.raises(DomainError, match=r"^grid needs at least one point$"):
        invert_iterative(Exponential(1.0), 1.0, IterationPlan([0.5]), [])


def test_invert_iterative_two_step_recovers_uniform():
    grid = np.geomspace(1e-3, 0.999, 200)
    F = TabulatedCdf(np.linspace(1e-9, 1.0, 800),
                     [uu_cdf(max(x, 1e-9)) for x in np.linspace(1e-9, 1.0, 800)])
    rec = invert_iterative(F, 1.0, IterationPlan((1.0, 0.5)), grid)
    err = max(abs(rec.cdf(x) - x) for x in grid)
    assert err <= 1e-3


def test_invert_iterative_single_breakpoint_matches_onestep():
    grid = np.geomspace(1e-3, 0.999, 120)
    rec = invert_iterative(Uniform(0.0, 1.0), 1.0, IterationPlan((0.5,)), grid)
    for x in (0.2, 0.5, 0.8):
        assert rec.sf(x) == pytest.approx(invert_onestep(Uniform(0.0, 1.0), 1.0, 0.5, x), abs=1e-6)


def test_invert_iterative_beta_above_one_roundtrip():
    F = forward_tabulated(Exponential(1.0), 2.0, 1.7, n_points=260)
    grid = np.geomspace(1e-3, 6.0, 160)
    rec = invert_iterative(F, 2.0, IterationPlan((1.7, 0.85)), grid)
    assert rec.sf(1.0) == pytest.approx(math.exp(-1.0), abs=5e-3)


def test_invert_iterative_stage_error_labeled():
    # garbage input: not a valid scaled law, stages cannot stay monotone
    grid = np.linspace(0.05, 0.95, 40)
    vals = np.clip(np.linspace(0, 1, 40) + 0.3 * np.sin(np.linspace(0, 25, 40)), 0, 1)
    F = TabulatedCdf(np.linspace(0.01, 1.0, 40), np.maximum.accumulate(vals), rectify=True)
    with pytest.raises((StageError, DomainError)):
        invert_iterative(F, 1.0, IterationPlan((1.0, 0.5)), grid, mono_tol=1e-12)


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (1.0, 1.0), (2.0, 0.7)])
@pytest.mark.parametrize("family", ["uniform", "exponential", "beta22"])
def test_roundtrip_forward_then_invert(family, alpha, beta):
    H = {"uniform": Uniform(0.0, 1.0),
         "exponential": Exponential(1.0),
         "beta22": Beta(2.0, 2.0)}[family]
    F = forward_tabulated(H, alpha, beta, n_points=240)
    hi = H.upper if math.isfinite(H.upper) else H.quantile(0.995)
    grid = np.geomspace(max(1e-3, 1e-3 * hi), hi * 0.999, 50)
    plan = IterationPlan.default_for(beta)
    rec = invert_iterative(F, alpha, plan, grid)
    err = max(abs(rec.sf(x) - H.sf(x)) for x in grid)
    assert err <= 5e-3


# ---------------------------------------------------------------------------
# corollary and chains

def test_corollary_check_cases():
    from betascale import Pareto  # noqa: F401

    for H, a, b, x in [
        (Uniform(0.0, 1.0), 1.0, 1.0, 0.5),
        (Exponential(1.0), 2.0, 1.0, 1.0),
        (Beta(2.0, 2.0), 1.0, 0.5, 0.5),
    ]:
        lhs, rhs = corollary_check(H, a, b, x)
        assert abs(lhs - rhs) <= 1e-5


def test_chain_forward_composes():
    alpha, beta, lam, x = 1.0, 1.0, 0.5, 0.4
    chained = chain_forward(Uniform(0.0, 1.0),
                            [ScalingParams(alpha + lam, beta - lam), ScalingParams(alpha, lam)],
                            x)
    direct = forward_cdf(Uniform(0.0, 1.0), alpha, beta, x)
    assert chained == pytest.approx(direct, abs=1e-6)


def test_chain_forward_degenerate():
    assert chain_forward(Uniform(0.0, 1.0), [], 0.4) == pytest.approx(0.4, abs=1e-12)
    one = chain_forward(Uniform(0.0, 1.0), [ScalingParams(1.0, 1.0)], 0.4)
    assert one == pytest.approx(forward_cdf(Uniform(0.0, 1.0), 1.0, 1.0, 0.4), abs=1e-8)
