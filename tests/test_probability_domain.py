"""quantile and isf take probabilities in [0, 1]: NaN raises DomainError for
every law, and so does a value beyond [0, 1], except for the tabulated and
Kotz laws, which take it as the nearer end (tests/test_sample_arrays.py
holds them to that).  The CLI maps the error to exit code 1.  A law's own
parameters, and those of the special functions, must be finite; NaN and
infinity raise DomainError."""

import json
import math

import numpy as np
import pytest

from betascale import (Beta, DomainError, Exponential, Gamma, Kotz, Pareto, PointMass,
                       Rayleigh, TabulatedCdf, Uniform, WeibullTailModel, beta_moment,
                       ln_gamma, reg_inc_beta)
from betascale.cli import main

STRICT = {
    "uniform": lambda: Uniform(0.0, 1.0),
    "beta": lambda: Beta(2.0, 3.0),
    "gamma": lambda: Gamma(2.5, 1.5),
    "exponential": lambda: Exponential(1.0),
    "pareto": lambda: Pareto(2.0, 1.0),
    "rayleigh": lambda: Rayleigh(1.0),
    "pointmass": lambda: PointMass(0.7),
}
CLAMPED = {
    "weibull kotz": lambda: Kotz(1.0, 0.0, 1.0, 2.0),
    "kotz": lambda: Kotz(5.0, 2.0, 1.0, 2.0),
    "tabulated": lambda: TabulatedCdf(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11)),
}
MATCH = r"probabilities in \[0, 1\]"


@pytest.mark.parametrize("name", list(STRICT) + list(CLAMPED))
def test_nan_probability_raises(name):
    law = {**STRICT, **CLAMPED}[name]()
    for q in (math.nan, [0.5, math.nan], [[0.1], [math.nan]]):
        with pytest.raises(DomainError, match=MATCH):
            law.quantile(q)
        with pytest.raises(DomainError, match=MATCH):
            law.isf(q)


@pytest.mark.parametrize("name", STRICT)
def test_out_of_range_probability_raises(name):
    law = STRICT[name]()
    for q in (-0.2, 1.5, -math.inf, math.inf, [0.5, 2.0], [[0.1], [-1e-300]]):
        with pytest.raises(DomainError, match=MATCH):
            law.quantile(q)
        with pytest.raises(DomainError, match=MATCH):
            law.isf(q)


@pytest.mark.parametrize("name", CLAMPED)
def test_out_of_range_probability_takes_the_nearer_end(name):
    law = CLAMPED[name]()
    with np.errstate(divide="ignore"):
        assert np.array_equal(law.quantile([-0.5, 2.0]), law.quantile([0.0, 1.0]))
        assert np.array_equal(law.isf([-0.5, 3.0]), law.isf([0.0, 1.0]))


@pytest.mark.parametrize("name", list(STRICT) + list(CLAMPED))
def test_endpoints_and_interior_still_evaluate(name):
    law = {**STRICT, **CLAMPED}[name]()
    with np.errstate(divide="ignore"):
        q = law.quantile([0.0, 0.3, 1.0])
        s = law.isf([1.0, 0.7, 0.0])
    assert q.shape == (3,) and not np.isnan(q).any()
    assert s.shape == (3,) and not np.isnan(s).any()
    assert type(law.quantile(0.3)) is float


def test_weibull_tail_model_quantile():
    model = WeibullTailModel(1.0, 2.0)
    assert model.quantile(0.5) == pytest.approx(math.sqrt(math.log(2.0)))
    for q in (1.5, math.nan):
        with pytest.raises(DomainError, match=MATCH):
            model.quantile(q)


def test_cli_quantile_out_of_range_exits_1(tmp_path, capsys):
    dist = tmp_path / "expo.json"
    dist.write_text(json.dumps({"family": "exponential", "rate": 1.0}))
    code = main(["dist", "eval", "--dist", str(dist), "--what", "quantile", "--x", "1.5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "probabilities in [0, 1]" in captured.err


NAN, INF = math.nan, math.inf
NONFINITE_PARAMETERS = {
    "gamma shape nan": lambda: Gamma(NAN, 1.0),
    "gamma rate inf": lambda: Gamma(2.0, INF),
    "beta nan": lambda: Beta(NAN, 1.0),
    "beta inf": lambda: Beta(1.0, INF),
    "exponential nan": lambda: Exponential(NAN),
    "exponential inf": lambda: Exponential(INF),
    "pareto nan": lambda: Pareto(NAN),
    "pareto xmin inf": lambda: Pareto(2.0, INF),
    "rayleigh nan": lambda: Rayleigh(NAN),
    "rayleigh inf": lambda: Rayleigh(INF),
    "kotz M nan": lambda: Kotz(NAN, 0.0, 1.0, 2.0),
    "kotz N nan": lambda: Kotz(1.0, NAN, 1.0, 2.0),
    "kotz N -inf": lambda: Kotz(1.0, -INF, 1.0, 2.0),
    "kotz theta inf": lambda: Kotz(1.0, 0.0, 1.0, INF),
    "uniform b inf": lambda: Uniform(0.0, INF),
    "uniform a -inf": lambda: Uniform(-INF, 1.0),
    "uniform a nan": lambda: Uniform(NAN, 1.0),
    "weibull tail model nan": lambda: WeibullTailModel(NAN, 1.0),
    "weibull tail model inf": lambda: WeibullTailModel(1.0, INF),
    "beta_moment nan": lambda: beta_moment(NAN, 1.0, 1.0),
    "beta_moment order inf": lambda: beta_moment(1.0, 1.0, INF),
    "reg_inc_beta nan": lambda: reg_inc_beta(NAN, 1.0, 0.5),
    "reg_inc_beta x nan": lambda: reg_inc_beta(1.0, 1.0, [0.5, NAN]),
    "ln_gamma nan": lambda: ln_gamma([2.0, NAN]),
}


@pytest.mark.parametrize("name", NONFINITE_PARAMETERS)
def test_nonfinite_parameter_raises(name):
    # each check once read v <= 0, which NaN passes: Gamma(nan, 1).cdf(0.5)
    # was nan, Exponential(inf).cdf(0.5) was 1.0
    with pytest.raises(DomainError):
        NONFINITE_PARAMETERS[name]()
