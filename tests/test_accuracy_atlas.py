"""The accuracy atlas: values far below 1 against mpmath, at one relative gate.

QuadratureConfig holds an integral's error estimate to rtol*|value|,
QUADPACK's epsrel rule with no absolute term, so a tiny value must keep its
leading digits.  The atlas holds points where an absolute
target would let them go: the cdf of the sweep's laws at small x in both
modes, a survivor of order 1e-40 and a weyl integral of order 1e-17.  Their
mpmath references are stored in tests/data/accuracy_atlas.json, so that no
test runs mpmath per point.
"""

import json
import os

import mpmath as mp
import numpy as np
import pytest

from betascale import (Exponential, NumericError, QuadratureConfig, forward_cdf, forward_sf,
                       power_weight, weyl_integral)
from test_engine import _LAWS
from test_mixture import SWEEP_PARAMS, mp_mixture

ATLAS = os.path.join(os.path.dirname(__file__), "data", "accuracy_atlas.json")
ATLAS_REL = 1e-8
SMALL_X = (1e-6, 1e-4)
# mixture mode's far-tail survivor: Exponential(1) under B(1, 2.5) at x = 80,
# G(a+b)/G(a) e^-x U(b, 1-a, x) in Tricomi's form
TAIL_SF = (1.0, 2.5, 80.0)
# weyl_integral of y**c at order beta and point x: G(-c-beta)/G(-c) x**(beta+c)
POWER = (-3.5, 1.5, 1e8)


def small_x_key(i, H, alpha, beta, x):
    """The atlas key of the cdf of _LAWS[i] = H under B(alpha, beta) at x."""
    return f"cdf {i} {type(H).__name__} {alpha} {beta} x={x}"


def atlas_references():
    """The mpmath reference of every atlas point, keyed as in the atlas file.
    A change to the atlas's points captures tests/data/accuracy_atlas.json
    again, from the tests directory with the library on the path:

        python -c "import json, test_accuracy_atlas as t; json.dump(t.atlas_references(),
                   open('data/accuracy_atlas.json', 'w'), indent=1, sort_keys=True)"
    """
    out = {}
    for i, H in enumerate(_LAWS):
        for alpha, beta in SWEEP_PARAMS:
            for x in SMALL_X:
                out[small_x_key(i, H, alpha, beta, x)] = mp_mixture(H, alpha, beta, x, "cdf")
    with mp.workdps(30):
        a, b, x = map(mp.mpf, TAIL_SF)
        out["tail sf"] = float(mp.gamma(a + b) / mp.gamma(a) * mp.exp(-x) * mp.hyperu(b, 1 - a, x))
        c, beta, x = map(mp.mpf, POWER)
        out["power weyl"] = float(mp.gamma(-c - beta) / mp.gamma(-c) * x ** (beta + c))
    return out


def atlas_errors(mode):
    """{key: relative error} of the atlas points of ``mode``: the small-x
    cdf points in that mode, and the far-tail survivor (mixture) or the
    power weyl integral (weyl)."""
    with open(ATLAS) as fh:
        refs = json.load(fh)
    got = {}
    for i, H in enumerate(_LAWS):
        for alpha, beta in SWEEP_PARAMS:
            values = forward_cdf(H, alpha, beta, np.array(SMALL_X), mode=mode)
            got.update({small_x_key(i, H, alpha, beta, x): v for x, v in zip(SMALL_X, values)})
    if mode == "mixture":
        got["tail sf"] = forward_sf(Exponential(1.0), *TAIL_SF, mode="mixture")
    else:
        c, beta, x = POWER
        got["power weyl"] = weyl_integral(power_weight(c), beta, x)
    return {f"{key} {mode}": abs(v - refs[key]) / refs[key] for key, v in got.items()}


def atlas_report():
    """{mode: (worst relative error, its key)} over the atlas."""
    return {mode: max((e, k) for k, e in atlas_errors(mode).items())
            for mode in ("weyl", "mixture")}


@pytest.mark.parametrize("mode", ["weyl", "mixture"])
def test_atlas_points_meet_the_relative_gate(mode):
    errors = atlas_errors(mode)
    over = {k: e for k, e in errors.items() if not e <= ATLAS_REL}
    assert not over, over


# ---------------------------------------------------------------------------
# the check's contract: err <= rtol*|value|

def test_check_has_no_absolute_floor():
    with pytest.raises(NumericError, match="exceeds tolerance"):
        QuadratureConfig().check(1e-20, 1e-15, "probe")


@pytest.mark.parametrize("value,err", [(1e-20, 1e-29), (0.0, 0.0)])
def test_check_passes_within_the_relative_target(value, err):
    QuadratureConfig().check(value, err, "probe")
