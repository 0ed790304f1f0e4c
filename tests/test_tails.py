import math

import numpy as np
import pytest
from scipy import special as sc
from scipy.integrate import quad

from betascale import (
    DomainError,
    Exponential,
    NumericError,
    Pareto,
    PointMass,
    Rayleigh,
    ScalingFunction,
    Uniform,
    beta_moment,
    biased_tail_asymptote,
    density_ratio,
    forward_tabulated,
    forward_sf,
    fractional_asymptote,
    general_multiplier_tail,
    max_stability_check,
    mda_classify,
    power_transform_w,
    predict_frechet,
    predict_gumbel,
    predict_weibull,
    rapid_variation_profile,
)
from betascale.fractional import _RELATIVE_CFG


# ---------------------------------------------------------------------------
# Gumbel

def test_gumbel_exponential_prediction():
    pred = predict_gumbel(Exponential(1.0), 1.0, 1.0, 20.0)
    assert pred.prediction == pytest.approx(math.exp(-20.0) / 20.0, rel=1e-12)
    assert 0.85 <= pred.ratio <= 1.15


def test_gumbel_rayleigh_prediction_shrinks():
    ratios = [abs(predict_gumbel(Rayleigh(1.0), 1.0, 1.0, x).ratio - 1.0)
              for x in (6.0, 8.0, 10.0)]
    pred8 = predict_gumbel(Rayleigh(1.0), 1.0, 1.0, 8.0)
    assert pred8.prediction == pytest.approx(math.exp(-32.0) / 64.0, rel=1e-10)
    assert ratios[0] >= ratios[1] >= ratios[2]
    assert ratios[1] <= 0.2


def test_gumbel_ratio_monotone_improvement():
    devs = [abs(predict_gumbel(Exponential(1.0), 1.0, 1.0, x).ratio - 1.0)
            for x in (10.0, 15.0, 20.0)]
    assert devs[0] >= devs[1] >= devs[2]
    assert devs[2] <= 0.15


def test_gumbel_reverse_prediction_cancels():
    # the forward correction K (x w)^(-beta) and its reversal multiply to 1
    pred = predict_gumbel(Exponential(1.0), 1.0, 1.0, 10.0)
    factor = pred.prediction / Exponential(1.0).sf(10.0)
    assert factor * (1.0 / factor) == pytest.approx(1.0, rel=1e-15)


def test_gumbel_scaled_tail_negligible():
    # (x w(x))^beta * sf_scaled(x) -> 0, and sf_scaled is negligible vs sf
    pred = predict_gumbel(Exponential(1.0), 1.0, 1.0, 20.0)
    assert 20.0 * pred.direct < 0.1
    assert pred.direct / Exponential(1.0).sf(20.0) < 0.1


@pytest.mark.parametrize("H, x", [(Rayleigh(1.0), 40.0), (Exponential(1.0), 800.0)])
def test_gumbel_ratio_of_two_underflowed_survivors_raises(H, x):
    # sf_H(x) and sf_X(x) are both 0.0 in floats: the ratio would be NaN
    with pytest.raises(NumericError, match="underflow") as info:
        predict_gumbel(H, 2.0, 0.7, x)
    assert info.value.x == x
    assert math.isfinite(predict_gumbel(H, 2.0, 0.7, x / 4.0).ratio)
    with pytest.raises(NumericError, match="underflow"):
        density_ratio(H, 2.0, 0.7, x, "gumbel")


@pytest.mark.parametrize("alpha, beta", [(2.0, 0.7), (1.0, 2.5), (0.5, 0.3)])
@pytest.mark.parametrize("x", [0.5, 5.0, 40.0, 200.0])
@pytest.mark.parametrize("mode", ["mixture", "weyl"])
def test_exponential_survivor_equals_tricomi_form(alpha, beta, x, mode):
    """For Y ~ Exp(1), P(B Y > x) = G(a+b)/G(a) e^-x U(b, 1-a, x), with U
    Tricomi's confluent hypergeometric function."""
    scale = math.exp(sc.gammaln(alpha + beta) - sc.gammaln(alpha) - x)
    exact = scale * sc.hyperu(beta, 1.0 - alpha, x)
    got = forward_sf(Exponential(1.0), alpha, beta, x, mode=mode, cfg=_RELATIVE_CFG)
    assert got == pytest.approx(exact, rel=2e-9, abs=0.0)


def test_gumbel_rejects_frechet_input():
    with pytest.raises(DomainError):
        predict_gumbel(Pareto(2.0, 1.0), 1.0, 1.0, 10.0)


# ---------------------------------------------------------------------------
# Frechet

def test_frechet_pareto_exact():
    pred = predict_frechet(Pareto(2.0, 1.0), 1.0, 1.0, 2.0)
    assert pred.prediction == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert pred.ratio == pytest.approx(1.0, abs=1e-6)
    pred = predict_frechet(Pareto(1.0, 1.0), 1.0, 1.0, 4.0)
    assert pred.prediction == pytest.approx(1.0 / 8.0, rel=1e-12)
    assert pred.ratio == pytest.approx(1.0, abs=1e-6)


def test_frechet_constant_is_beta_moment():
    pred = predict_frechet(Pareto(2.0, 1.0), 1.0, 1.0, 3.0)
    assert pred.constant == pytest.approx(beta_moment(1.0, 1.0, 2.0), rel=1e-12)


def test_frechet_ratio_constant_across_x():
    vals = [predict_frechet(Pareto(2.0, 1.0), 2.0, 0.7, x).ratio for x in (2.0, 4.0, 8.0)]
    assert max(vals) - min(vals) <= 1e-6


# ---------------------------------------------------------------------------
# Weibull

def test_weibull_product_of_uniforms():
    pred = predict_weibull(Uniform(0.0, 1.0), 1.0, 1.0, 0.01)
    assert pred.prediction == pytest.approx(5e-5, rel=1e-10)
    direct = 0.01 + 0.99 * math.log(0.99)
    assert pred.direct == pytest.approx(direct, rel=1e-6)
    assert pred.ratio == pytest.approx(1.0033, abs=1e-3)


def test_weibull_scaled_index():
    # endpoint-focused grid (including the endpoint itself) so the
    # classifier sees the x -> 1 tail
    grid = 1.0 - np.geomspace(1e-3, 1.0, 250)[::-1]
    grid = np.append(grid[grid > 0], 1.0)
    cls = mda_classify(forward_tabulated(Uniform(0.0, 1.0), 1.0, 1.0, grid=grid))
    assert cls.label == "weibull"
    assert cls.gamma == pytest.approx(2.0, abs=0.1)


def test_weibull_pointmass_gamma_zero():
    pred = predict_weibull(PointMass(1.0), 1.0, 1.0, 1e-3)
    assert pred.ratio == pytest.approx(1.0, abs=0.02)


def test_weibull_rejects_unbounded():
    with pytest.raises(DomainError):
        predict_weibull(Exponential(1.0), 1.0, 1.0, 0.01)


# ---------------------------------------------------------------------------
# density ratios

def test_density_ratio_frechet():
    ratio, limit = density_ratio(Pareto(2.0, 1.0), 1.0, 1.0, 10.0, "frechet")
    assert limit == 2.0
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_density_ratio_weibull():
    ratio, limit = density_ratio(Uniform(0.0, 1.0), 1.0, 1.0, 1e-3, "weibull")
    assert limit == 2.0
    assert ratio == pytest.approx(2.0, rel=0.02)


def test_density_ratio_gumbel():
    ratio, limit = density_ratio(Exponential(1.0), 1.0, 1.0, 20.0, "gumbel")
    assert limit == 1.0
    assert ratio == pytest.approx(1.0, rel=0.15)


# ---------------------------------------------------------------------------
# general multipliers and fractional asymptotes

def test_general_multiplier_reproduces_beta():
    from scipy.special import beta as beta_fn

    alpha, beta = 1.0, 1.0
    C = 1.0 / (beta * beta_fn(alpha, beta))
    gen = general_multiplier_tail(Exponential(1.0), {"C": C, "beta": beta}, 15.0,
                                  mda="gumbel", kind="I")
    pred = predict_gumbel(Exponential(1.0), alpha, beta, 15.0)
    assert gen == pytest.approx(pred.prediction, rel=1e-10)


def test_general_multiplier_sqrt_transform():
    from scipy.special import beta as beta_fn

    # multiplier sqrt(1 - B): survivor ~ C (1-u)^alpha with C = 2^alpha/(alpha B(a,b))
    alpha, beta = 2.0, 1.5
    C = 2.0 ** alpha / (alpha * beta_fn(alpha, beta))
    gen = general_multiplier_tail(Exponential(1.0), {"C": C, "beta": alpha}, 12.0,
                                  mda="gumbel", kind="I")
    ref = C * math.gamma(1.0 + alpha) * Exponential(1.0).sf(12.0) / 12.0 ** alpha
    assert gen == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("H,mda", [(Exponential(1.0), "gumbel"), (Uniform(0.0, 1.0), "weibull"),
                                   (PointMass(1.0), "weibull")])
def test_general_multiplier_j_needs_positive_exponent(H, mda):
    # c*(1-u)**(b-1) is not integrable at b = 0
    with pytest.raises(DomainError):
        general_multiplier_tail(H, {"c": 1.0, "beta": 0.0}, 0.5, mda=mda, kind="J")


def test_rapid_variation_profile_rejects_underflowed_survivor():
    # sf(800) underflows to 0 for the unit exponential: the ratio is undefined
    with pytest.raises(DomainError):
        rapid_variation_profile(Exponential(1.0), None, 1.0, 2.0, [10.0, 800.0])


def test_fractional_asymptote_gumbel_exact():
    out = fractional_asymptote(Exponential(1.0), 2.0, 0.0, 3.0, mda="gumbel", kind="I")
    direct, _ = quad(lambda y: (y - 3.0) * math.exp(-y), 3.0, 40.0)
    assert out == pytest.approx(math.exp(-3.0), rel=1e-8)
    assert direct == pytest.approx(out, rel=1e-8)


def test_fractional_asymptote_frechet_exact():
    out = fractional_asymptote(Pareto(3.0, 1.0), 1.0, 0.0, 5.0, mda="frechet", kind="J")
    assert out == pytest.approx(5.0 ** -3, rel=1e-10)
    direct = Pareto(3.0, 1.0).sf(5.0)
    assert direct / out == pytest.approx(1.0, abs=1e-8)


def test_fractional_asymptote_weibull_exact():
    # J operator against the uniform density: (1/G(2)) int (y - 0.9) dy
    out = fractional_asymptote(Uniform(0.0, 1.0), 2.0, 0.0, 0.1, mda="weibull", kind="J")
    assert out == pytest.approx(0.005, rel=1e-10)
    direct, _ = quad(lambda y: (y - 0.9), 0.9, 1.0)
    assert direct / out == pytest.approx(1.0, abs=1e-8)


def test_fractional_asymptote_constraint():
    with pytest.raises(DomainError):
        fractional_asymptote(Pareto(2.0, 1.0), 2.0, 1.5, 5.0, mda="frechet", kind="J")


# ---------------------------------------------------------------------------
# rapid variation, power transforms, biased tails

def test_rapid_variation_exponential():
    prof = rapid_variation_profile(Exponential(1.0), ScalingFunction.constant(1.0),
                                   1.0, 2.0, [10.0])
    assert prof[0] == pytest.approx(10.0 * math.exp(-10.0), rel=1e-10)


def test_rapid_variation_decreasing():
    prof = rapid_variation_profile(Rayleigh(1.0), mda_classify(Rayleigh(1.0)).w,
                                   2.0, 1.5, [4.0, 6.0, 8.0])
    assert prof[0] > prof[1] > prof[2]
    assert prof[-1] < 1e-2


def test_rapid_variation_finite_endpoint_rejected():
    with pytest.raises(DomainError):
        rapid_variation_profile(Uniform(0.0, 1.0), ScalingFunction.constant(1.0),
                                1.0, 2.0, [0.5])


def test_power_transform_identity():
    w = ScalingFunction.power(0.5, 2.0)
    same = power_transform_w(w, 1.0)
    assert same(3.0) == pytest.approx(w(3.0), rel=1e-12)


def test_power_transform_rayleigh_square():
    # squaring a rayleigh gives an exponential with rate 1/2
    w = power_transform_w(ScalingFunction.power(0.5, 2.0), 2.0)
    for x in (1.0, 5.0, 20.0):
        assert w(x) == pytest.approx(0.5, rel=1e-12)


def test_power_transform_sqrt_of_constant():
    w = power_transform_w(ScalingFunction.constant(3.0), 0.5)
    assert w(2.0) == pytest.approx(2.0 * 3.0 * 2.0, rel=1e-12)  # 2 beta x


def test_biased_tail_exponential_excess():
    out = biased_tail_asymptote(Exponential(1.0), 1.0, 1.0, 5.0, kind="stationary_excess")
    direct, _ = quad(lambda y: math.exp(-y), 5.0, 60.0)
    assert out == pytest.approx(math.exp(-5.0), rel=1e-10)
    assert direct == pytest.approx(out, rel=1e-8)


def test_biased_tail_size_biased_trivial():
    out = biased_tail_asymptote(Exponential(1.0), 0.0, 1.0, 4.0, kind="size_biased")
    assert out == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_biased_tail_rayleigh_excess_quadrature():
    out = biased_tail_asymptote(Rayleigh(1.0), 2.0, 1.0, 6.0, kind="stationary_excess")
    direct, _ = quad(lambda y: y * math.exp(-y * y / 2.0), 6.0, 30.0)
    assert direct == pytest.approx(out, rel=0.10)


# ---------------------------------------------------------------------------
# max stability

@pytest.mark.parametrize("dist", [Uniform(0.0, 1.0), Pareto(2.0, 1.0), Exponential(1.0)],
                         ids=["weibull", "frechet", "gumbel"])
def test_max_stability(dist):
    assert max_stability_check(dist, 10000) <= 0.01


@pytest.mark.parametrize("n", [10, 1000])
def test_max_stability_degenerate_law_raises(n):
    # a point mass's normalised maximum is the constant c: a_n = r_upper - c = 0
    with pytest.raises(DomainError, match="a_n = 0.0 is not positive"):
        max_stability_check(PointMass(2.0), n)


# ---------------------------------------------------------------------------
# domain: a tail argument lies in (0, inf), or in (0, 1) as a fraction below
# a finite endpoint; a sample size is finite and >= 1

BAD_TAIL_ARGUMENTS = {
    "weibull x=0": lambda: predict_weibull(Uniform(0.0, 1.0), 1.0, 1.0, 0.0),
    "weibull x=-0.1": lambda: predict_weibull(Uniform(0.0, 1.0), 1.0, 1.0, -0.1),
    "weibull x=1": lambda: predict_weibull(Uniform(0.0, 1.0), 1.0, 1.0, 1.0),
    "density ratio weibull x=0": lambda: density_ratio(Uniform(0.0, 1.0), 1.0, 1.0, 0.0, "weibull"),
    "gumbel x=inf": lambda: predict_gumbel(Exponential(1.0), 1.0, 1.0, math.inf),
    "frechet x=-2": lambda: predict_frechet(Pareto(2.0, 1.0), 1.0, 1.0, -2.0),
    "fractional x=nan": lambda: fractional_asymptote(Exponential(1.0), 0.5, 0.0, math.nan,
                                                     "gumbel", "J"),
    "general multiplier x=nan": lambda: general_multiplier_tail(
        Exponential(1.0), {"C": 1.0, "beta": 1.0}, math.nan, "gumbel", "I"),
    "biased x=nan": lambda: biased_tail_asymptote(Exponential(1.0), 1.0, 1.0, math.nan,
                                                  "size_biased"),
    "biased x=0": lambda: biased_tail_asymptote(Rayleigh(1.0), 2.0, 1.0, 0.0, "stationary_excess"),
}


@pytest.mark.parametrize("name", BAD_TAIL_ARGUMENTS)
def test_tail_argument_outside_its_range_raises(name):
    with pytest.raises(DomainError, match="tail argument x must lie in"):
        BAD_TAIL_ARGUMENTS[name]()


@pytest.mark.parametrize("n", [0, 0.5, math.inf, math.nan])
def test_max_stability_needs_a_finite_sample_size(n):
    # n = 0 once ended in a ZeroDivisionError
    with pytest.raises(DomainError, match="sample size n must be finite and >= 1"):
        max_stability_check(Exponential(1.0), n)


NAN_PARAMETERS = {
    "fractional beta=nan": lambda: fractional_asymptote(Exponential(1.0), math.nan, 0.0, 2.0,
                                                        "gumbel", "J"),
    "biased q=nan": lambda: biased_tail_asymptote(Exponential(1.0), math.nan, 1.0, 2.0,
                                                  "size_biased"),
    "general multiplier beta=nan": lambda: general_multiplier_tail(
        Exponential(1.0), {"C": 1.0, "beta": math.nan}, 2.0, "gumbel", "I"),
    "general multiplier C=nan": lambda: general_multiplier_tail(
        Exponential(1.0), {"C": math.nan, "beta": 1.0}, 2.0, "gumbel", "I"),
    "general multiplier c=nan": lambda: general_multiplier_tail(
        Exponential(1.0), {"c": math.nan, "beta": 1.0}, 2.0, "gumbel", "J"),
    "fractional c=nan": lambda: fractional_asymptote(Exponential(1.0), 0.5, math.nan, 2.0,
                                                     "gumbel", "J"),
    "power transform p=nan": lambda: power_transform_w(ScalingFunction.power(1.0, 2.0), math.nan),
    "rapid variation x_grid with nan": lambda: rapid_variation_profile(
        Exponential(1.0), None, 1.0, 2.0, [1.0, math.nan, 3.0]),
}


@pytest.mark.parametrize("name", NAN_PARAMETERS)
def test_nan_parameter_raises(name):
    # each of these once returned a number or NaN: 1 ** nan is 1 in Python
    with pytest.raises(DomainError):
        NAN_PARAMETERS[name]()
