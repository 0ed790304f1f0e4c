"""quantile and isf take probabilities in [0, 1]: NaN raises DomainError for
every law, and so does a value beyond [0, 1], except for the tabulated and
Kotz laws, which take it as the nearer end (tests/test_sample_arrays.py
holds them to that).  The CLI maps the error to exit code 1."""

import json
import math

import numpy as np
import pytest

from betascale import (Beta, DomainError, Exponential, Gamma, Kotz, Pareto, PointMass,
                       Rayleigh, TabulatedCdf, Uniform, WeibullTailModel)
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
