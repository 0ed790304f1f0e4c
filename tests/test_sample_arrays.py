"""Array paths of the sample-based layers against scalar and brute-force
references: the Kendall count, tabulated and Kotz quantiles, the arc
half-widths and the importance sampler's standard error."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from betascale import (
    DomainError,
    EllipticalModel,
    Kotz,
    Rayleigh,
    SampleBatch,
    TabulatedCdf,
    conditional_density_point,
    kendall_rho,
    make_rng,
)
from betascale.elliptical import _exceed_montecarlo, _half_widths
from betascale.estimation import _inversions, _top_order_stats


# ---------------------------------------------------------------------------
# Kendall's tau

def brute_tau(u, v):
    """O(n^2) tau-a: (concordant - discordant) / (n choose 2), ties count 0."""
    n = len(u)
    s = sum(np.sign(u[i] - u[j]) * np.sign(v[i] - v[j])
            for i in range(n) for j in range(i + 1, n))
    return s / (n * (n - 1) // 2)


tie_heavy = st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(tie_heavy)
def test_kendall_matches_brute_force_with_ties(uv):
    u, v = (np.array(c, dtype=float) for c in uv)
    if np.all(u == u[0]) or np.all(v == v[0]):
        with pytest.raises(DomainError):
            kendall_rho(SampleBatch(u, v))
        return
    tau, rho = kendall_rho(SampleBatch(u, v))
    assert tau == pytest.approx(brute_tau(u, v), abs=1e-15)
    assert rho == math.sin(math.pi * tau / 2.0)


@pytest.mark.parametrize("u, v, which", [
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "u"),
    ([1.0, 2.0, 3.0], [0.0, -0.0, 0.0], "v"),
    ([5.0, 5.0], [5.0, 5.0], "u"),
])
def test_kendall_all_tied_raises(u, v, which):
    with pytest.raises(DomainError, match=f"all {which} values tied"):
        kendall_rho(SampleBatch(u, v))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=70))
def test_inversions_brute_force(ranks):
    r = np.array(ranks)
    n = r.size
    ranks = np.unique(r, return_inverse=True)[1]
    expect = sum(int(ranks[i] > ranks[j]) for i in range(n) for j in range(i + 1, n))
    assert _inversions(ranks) == expect


def test_kendall_large_sample_against_brute_force_blocks():
    """A 3000-pair sample with heavy ties against the O(n^2) count."""
    rng = make_rng(17)
    u = np.round(rng.normal(size=3000), 1)
    v = np.round(u + rng.normal(size=3000), 1)
    du = np.sign(u[:, None] - u[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    expect = np.triu(du * dv, 1).sum() / (3000 * 2999 // 2)
    assert kendall_rho(SampleBatch(u, v))[0] == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------------------
# tabulated quantiles

def scalar_bisection(tab, u):
    """The per-point bisection the array form runs on all points at once."""
    if u <= tab.values[0]:
        return tab.grid[0]
    if u >= tab.values[-1]:
        return tab.grid[-1]
    lo, hi = tab.grid[0], tab.grid[-1]
    while hi - lo > 1e-10 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if tab._interp(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def tab():
    grid = np.linspace(0.0, 7.0, 200)
    return TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2))


def test_tabulated_quantile_bitwise_equal_to_scalar(tab):
    u = np.concatenate([make_rng(3).random(300),
                        [0.0, 1.0, -0.5, 2.0, tab.values[0], tab.values[-1], 1e-300,
                         np.nextafter(tab.values[-1], 0.0), 0.5]])
    out = tab.quantile(u)
    ref = np.array([scalar_bisection(tab, x) for x in u])
    singles = np.array([tab.quantile(float(x)) for x in u])
    assert np.array_equal(out, ref)
    assert np.array_equal(singles, ref)
    assert out[-9] == tab.grid[0] and out[-8] == tab.grid[-1]


def test_tabulated_quantile_shapes(tab):
    q = tab.quantile(np.float64(0.3))
    assert type(q) is float
    assert q == scalar_bisection(tab, 0.3)
    u = make_rng(4).random((7, 5))
    out = tab.quantile(u)
    assert out.shape == (7, 5)
    assert np.array_equal(out.ravel(), tab.quantile(u.ravel()))
    assert tab.quantile(np.array([])).shape == (0,)


# ---------------------------------------------------------------------------
# Kotz quantiles

def brentq_quantile(k, u):
    if u <= 0.0:
        return k.x0
    target = math.log1p(-u)
    hi = max(1.0, 2.0 * k.x0 + 1.0)
    while k._log_tail(hi) > target:
        hi *= 2.0
    return brentq(lambda x: k._log_tail(x) - target, k.x0 + 1e-300, hi,
                  xtol=1e-13, rtol=8.9e-16)


@pytest.mark.parametrize("m, r, theta", [(2.0, 1.0, 2.0), (3.0, 0.5, 0.7), (1.5, 2.0, 1.0)])
def test_kotz_quantile_closed_form_n0(m, r, theta):
    k = Kotz(m, 0.0, r, theta)
    u = make_rng(5).random(2000)
    exact = (np.log(m / (1.0 - u)) / r) ** (1.0 / theta)
    np.testing.assert_allclose(k.quantile(u), exact, rtol=1e-12, atol=0)
    s = np.geomspace(1e-300, 0.999, 500)
    np.testing.assert_allclose(k.isf(s), (np.log(m / s) / r) ** (1.0 / theta), rtol=1e-12, atol=0)


@pytest.mark.parametrize("params", [(5.0, 2.0, 1.0, 2.0), (3.0, -1.0, 0.5, 0.7),
                                    (50.0, 3.0, 2.0, 1.5)])
def test_kotz_quantile_against_scalar_brentq(params):
    k = Kotz(*params)
    u = np.concatenate([make_rng(6).random(300), [1e-12, 0.5, 1.0 - 1e-12]])
    ref = np.array([brentq_quantile(k, x) for x in u])
    out = k.quantile(u)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 + 8.9e-16 * ref.max())
    # the roots solve sf(x) = 1 - u
    np.testing.assert_allclose(k.sf(out[:-1]), 1.0 - u[:-1], rtol=1e-9)


def test_kotz_quantile_edges():
    k = Kotz(5.0, 2.0, 1.0, 2.0)
    assert k.quantile(0.0) == k.x0 and k.quantile(-1.0) == k.x0
    assert k.isf(1.0) == k.x0 and k.isf(3.0) == k.x0
    assert k.quantile(1.0) == math.inf and k.isf(0.0) == math.inf
    assert type(k.quantile(0.5)) is float and type(k.isf(0.5)) is float
    x = k.isf(1e-300)
    assert math.isfinite(x) and x > 20.0
    assert k._log_tail(x) == pytest.approx(math.log(1e-300), rel=1e-14)
    assert k.quantile(make_rng(7).random((4, 3))).shape == (4, 3)


# ---------------------------------------------------------------------------
# importance sampler

def _half_width(level, r):
    """Scalar reference: half-width of the angle arc {phi: r*cos(phi) > level}."""
    if r <= 0.0:
        return math.pi if level < 0 else 0.0
    ratio = level / r
    if ratio >= 1.0:
        return 0.0
    if ratio <= -1.0:
        return math.pi
    return math.acos(ratio)


@pytest.mark.parametrize("level", [-2.0, -0.5, 0.0, 0.5, 2.0])
def test_half_widths_match_scalar(level):
    r = np.array([0.0, -1.0, 0.25, 0.5, 1.0, 2.0, 4.0, abs(level), 1e-300, 1e300])
    out = _half_widths(level, r)
    ref = np.array([_half_width(level, x) for x in r])
    np.testing.assert_allclose(out, ref, rtol=0, atol=4.5e-16)


def test_importance_se_matches_seed_spread():
    """The reported standard error against the spread of the estimate over
    40 seeds; the sample sd of 40 values is itself ~11% uncertain, so the
    ratio must lie within [1/1.35, 1.35].  The old (1 - est)**2 form reads
    ~1.5 here."""
    m = EllipticalModel(0.5, Rayleigh(1.0))
    res = np.array([_exceed_montecarlo(m, 6.0, 3.6, 20_000, seed) for seed in range(40)])
    ratio = np.median(res[:, 1]) / np.std(res[:, 0], ddof=1)
    assert 1.0 / 1.35 <= ratio <= 1.35


def test_point_density_array_matches_scalar():
    m = EllipticalModel(0.3, Kotz(5.0, 2.0, 1.0, 2.0))
    t = np.linspace(-4.0, 4.0, 17)
    out = conditional_density_point(m, 2.5, t)
    assert np.array_equal(out, [conditional_density_point(m, 2.5, float(x)) for x in t])
    assert conditional_density_point(m, 2.5, t.reshape(1, 17)).shape == (1, 17)
    bounded = EllipticalModel(0.3, TabulatedCdf(np.linspace(0, 3, 50), np.linspace(0, 1, 50)))
    dens = conditional_density_point(bounded, 2.5, np.array([0.0, 50.0]), w=lambda x: 1.0)
    assert dens[0] > 0.0 and dens[1] == 0.0


def test_top_order_stats_equals_full_sort():
    radii = make_rng(8).normal(size=5001)
    top, n, k, dropped = _top_order_stats(radii, 300)
    assert np.array_equal(top, np.sort(radii[radii > 0])[-300:])


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, betascale.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_cli_import_needs_only_numpy_and_scipy_special():
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.linalg")
    code = f"import sys, betascale.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_quad_bindings_resolve_to_scipy_on_access():
    # perfbench/tracer.py wraps each quadrature layer's module-level quad
    code = ("import sys, scipy.integrate\n"
            "from betascale import elliptical, fractional, scaling\n"
            "print([m.quad is scipy.integrate.quad for m in (fractional, scaling, elliptical)])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[True, True, True]"
    from betascale import fractional
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        fractional.nope
