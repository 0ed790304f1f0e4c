"""TabulatedCdf's numpy PCHIP against scipy's PchipInterpolator as the oracle:
values, derivatives, sf_pdf, quantiles, sample streams and the round trips
of the iterative inversion, all bit for bit."""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from betascale import (Beta, EllipticalModel, Exponential, IterationPlan, TabulatedCdf,
                       Uniform, forward_tabulated, invert_iterative, make_rng,
                       sample_elliptical)

LAWS = (Uniform(0.0, 1.0), Exponential(1.0), Beta(2.0, 2.0))
PARAMS = ((1.0, 0.5), (1.0, 1.0), (2.0, 0.7))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def random_table(seed):
    """A grid with uneven steps over a random decade and a CDF with flat runs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 80))
    grid = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-3.0, 3.0)
    steps = rng.exponential(size=n) * (rng.random(n) < 0.6)
    values = np.cumsum(steps)
    values = values / max(values[-1], 1.0) * rng.uniform(0.3, 1.0)
    return TabulatedCdf(grid, values)


def criterion3_tables():
    """The tables of criterion 3: the product-of-uniforms CDF and the
    forward tabulations of Uniform, Exponential and Beta(2,2)."""
    x = np.linspace(1e-9, 1.0, 800)
    yield "product of uniforms", TabulatedCdf(x, x - x * np.log(x))
    for H in LAWS:
        for a, b in PARAMS:
            yield f"{type(H).__name__} a={a:g} b={b:g}", forward_tabulated(H, a, b, n_points=240)


@pytest.fixture(scope="module")
def tables():
    out = dict(criterion3_tables())
    out.update({f"random {s}": random_table(s) for s in range(40)})
    out["4 points"] = TabulatedCdf([0.0, 0.5, 2.0, 2.5], [0.0, 0.1, 0.1, 1.0])
    out["4 points, one flat end"] = TabulatedCdf([1.0, 2.0, 3.0, 7.0], [0.2, 0.2, 0.9, 1.0])
    return out


def scipy_pchip(tab):
    return PchipInterpolator(tab.grid, tab.values, extrapolate=False)


def test_values_and_derivative_equal_scipy(tables):
    for name, tab in tables.items():
        p = scipy_pchip(tab)
        g = tab.grid
        v = np.concatenate([make_rng(7, 0).uniform(g[0], g[-1], 2000), g[::-1]])
        assert same_bits(tab._interp(v), p(v)), name
        assert same_bits(tab._deriv(v), p.derivative()(v)), name


def test_every_knot_and_both_ends_equal_scipy(tables):
    for name, tab in tables.items():
        p, d = scipy_pchip(tab), scipy_pchip(tab).derivative()
        for v in tab.grid:
            assert same_bits(tab._interp(v), p(v)) and same_bits(tab._deriv(v), d(v)), (name, v)
        ends = np.array([tab.grid[0], tab.grid[-1]])
        assert same_bits(tab._interp(ends), p(ends)), name
        assert same_bits(tab.cdf(ends), [tab.values[0], tab.values[-1]]), name
        assert same_bits(tab.pdf(ends), np.maximum(d(ends), 0.0)), name


def test_sf_pdf_bit_equal_to_sf_and_pdf(tables):
    for name, tab in tables.items():
        g = tab.grid
        x = np.concatenate([make_rng(8, 0).uniform(g[0] - 1.0, g[-1] + 1.0, 2000), g,
                            np.nextafter(g[[0, 0, -1, -1]], [-np.inf, np.inf] * 2),
                            [-np.inf, np.inf]])
        sf, pdf = tab.sf_pdf(x)
        assert same_bits(sf, tab.sf(x)) and same_bits(pdf, tab.pdf(x)), name
        # a 2-D x: rows inside one piece take one lookup, other rows one per point
        cells = g[:-1, None] + np.diff(g)[:, None] * np.linspace(0.05, 0.95, 8)
        for y in (cells, x[:2000].reshape(-1, 16)):
            sf, pdf = tab.sf_pdf(y)
            assert same_bits(sf, tab.sf(y)) and same_bits(pdf, tab.pdf(y)), name


def scipy_quantile(tab, u):
    """TabulatedCdf.quantile's bisection, written out on scipy's interpolant."""
    p = scipy_pchip(tab)
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    out = np.where(u <= tab.values[0], tab.grid[0], tab.grid[-1])
    inside = (u > tab.values[0]) & (u < tab.values[-1])
    lo = np.full(u.shape, tab.grid[0])
    hi = np.full(u.shape, tab.grid[-1])
    live = inside.copy()
    while live.any():
        done = live & ~(hi - lo > 1e-10 * np.maximum(1.0, np.abs(hi)))
        out[done] = 0.5 * (lo[done] + hi[done])
        live &= ~done
        mid = 0.5 * (lo + hi)
        right = np.zeros(u.shape, dtype=bool)
        right[live] = p(mid[live]) < u[live]
        lo = np.where(live & right, mid, lo)
        hi = np.where(live & ~right, mid, hi)
    return out


def test_quantiles_equal_a_scipy_bisection(tables):
    for name in ("product of uniforms", "Exponential a=2 b=0.7", "random 3", "4 points"):
        tab = tables[name]
        u = np.concatenate([make_rng(9, 0).random(500), tab.values[[0, -1]], [0.0, 1.0, 0.5]])
        assert same_bits(tab.quantile(u), scipy_quantile(tab, u)), name
        assert same_bits(tab.sample(300, seed=4, stream=1),
                         scipy_quantile(tab, make_rng(4, 1).random(300))), name


def test_tabulated_radial_streams_equal_scipy():
    grid = np.linspace(0.0, 7.0, 200)
    model = EllipticalModel(0.5, TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2)))
    ref = EllipticalModel(0.5, TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2)))
    ref.radial._interp = scipy_pchip(ref.radial)
    for stream in (0, 1):
        assert same_bits(sample_elliptical(model, 2000, 11, stream=stream),
                         sample_elliptical(ref, 2000, 11, stream=stream))


def _scipy_deriv(self, v):
    return scipy_pchip(self).derivative()(v)


def _scipy_sf_pdf(self, x):
    """sf_pdf as two scipy evaluations under the masks of sf and pdf."""
    g, p = self.grid, scipy_pchip(self)
    v = np.clip(x, g[0], g[-1])
    cdf, pdf = p(v), p.derivative()(v)
    below, above = x < g[0], x > g[-1]
    sf = 1.0 - np.where(below, 0.0, np.where(x >= g[-1], self.values[-1], cdf))
    return sf, np.where(below | above, 0.0, np.maximum(pdf, 0.0))


@pytest.mark.parametrize("law, alpha, beta", [(Exponential(1.0), 1.0, 0.5),
                                              (Beta(2.0, 2.0), 2.0, 0.7)])
def test_round_trip_equal_under_scipy_pchip(monkeypatch, law, alpha, beta):
    F = forward_tabulated(law, alpha, beta, n_points=240)
    hi = law.upper if math.isfinite(law.upper) else float(law.quantile(0.995))
    grid = np.geomspace(max(1e-3, 1e-3 * hi), hi * 0.999, 50)
    plan = IterationPlan.default_for(beta)
    ours = invert_iterative(F, alpha, plan, grid)
    monkeypatch.setattr(TabulatedCdf, "_interp", lambda self, v: scipy_pchip(self)(v))
    monkeypatch.setattr(TabulatedCdf, "_deriv", _scipy_deriv)
    monkeypatch.setattr(TabulatedCdf, "sf_pdf", _scipy_sf_pdf)
    theirs = invert_iterative(F, alpha, plan, grid)
    assert same_bits(ours.values, theirs.values)
    assert same_bits(ours.sf(grid), theirs.sf(grid))
