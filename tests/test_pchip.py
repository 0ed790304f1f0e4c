"""TabulatedCdf's numpy PCHIP against scipy's PchipInterpolator as the oracle:
values, derivatives, sf_pdf and the round trips of the iterative inversion
bit for bit; quantiles and sample streams as roots of scipy's interpolant."""

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
    # the cubic on [grid[0], grid[-1]); at grid[-1] the CDF is values[-1]
    for name, tab in tables.items():
        p = scipy_pchip(tab)
        g = tab.grid
        v = np.concatenate([make_rng(7, 0).uniform(g[0], g[-1], 2000), g[-2::-1]])
        assert same_bits(tab.cdf(v), p(v)), name
        v = np.append(v, g[-1])
        assert same_bits(tab.pdf(v), np.maximum(p.derivative()(v), 0.0)), name


def test_every_knot_and_both_ends_equal_scipy(tables):
    for name, tab in tables.items():
        p, d = scipy_pchip(tab), scipy_pchip(tab).derivative()
        for v in tab.grid[:-1]:
            assert same_bits(tab.cdf(v), p(v)), (name, v)
        for v in tab.grid:
            assert same_bits(tab.pdf(v), np.maximum(d(v), 0.0)), (name, v)
        ends = np.array([tab.grid[0], tab.grid[-1]])
        assert same_bits(tab.cdf(ends), [tab.values[0], tab.values[-1]]), name
        assert same_bits(tab.pdf(ends), np.maximum(d(ends), 0.0)), name


def test_sf_pdf_bit_equal_to_sf_and_pdf(tables):
    for name, tab in tables.items():
        g = tab.grid
        x = np.concatenate([make_rng(8, 0).uniform(g[0] - 1.0, g[-1] + 1.0, 2000), g,
                            np.nextafter(g[[0, 0, -1, -1]], [-np.inf, np.inf] * 2),
                            [-np.inf, np.inf]])
        # a 2-D x: rows inside one piece take one lookup, other rows one per point
        cells = g[:-1, None] + np.diff(g)[:, None] * np.linspace(0.05, 0.95, 8)
        for y in (x, cells, x[:2000].reshape(-1, 16)):
            sf, pdf = tab.sf_pdf(y)
            assert same_bits(sf, tab.sf(y)) and same_bits(pdf, tab.pdf(y)), name
            # the end rules against scipy's interpolant under explicit masks
            ref_sf, ref_pdf = _scipy_sf_pdf(tab, y)
            assert same_bits(sf, ref_sf) and same_bits(pdf, ref_pdf), name


def scipy_quantile(tab, u):
    """The bisection quantile of earlier versions, to width
    1e-10 * max(1, |hi|), written out on scipy's interpolant."""
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


def scipy_root(tab, u):
    """The least float x on the piece [grid[k-1], grid[k]] (values[k-1] < u
    <= values[k]) where scipy's interpolant reaches u, by bisection until no
    float lies between the ends; the end rules below values[0] and from
    values[-1] on."""
    p = scipy_pchip(tab)
    g, v = tab.grid, tab.values
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    out = np.where(u <= v[0], g[0], g[-1])
    inside = np.flatnonzero((u > v[0]) & (u < v[-1]))
    k = np.searchsorted(v, u[inside], "left")
    lo, hi = g[k - 1], g[k]
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        right = live & (p(mid) < u[inside])
        lo = np.where(right, mid, lo)
        hi = np.where(live & ~right, mid, hi)
    out[inside] = hi
    return out


def assert_solves_scipy_pchip(tab, u, q, cdf_abs, name):
    """The quantiles q of u against scipy's interpolant: the end rules, q on
    its piece [grid[k-1], grid[k]] where values[k-1] < u <= values[k],
    |PCHIP(q) - u| <= cdf_abs, and where the density exceeds 1e-6, q within
    the earlier bisection's stop width 1e-10 * max(1, |q|) of it."""
    g, v = tab.grid, tab.values
    u = np.clip(u, 0.0, 1.0)
    assert same_bits(q[u <= v[0]], np.full((u <= v[0]).sum(), g[0])), name
    assert same_bits(q[u >= v[-1]], np.full((u >= v[-1]).sum(), g[-1])), name
    inside = (u > v[0]) & (u < v[-1])
    k = np.searchsorted(v, u[inside], "left")
    assert np.all((g[k - 1] <= q[inside]) & (q[inside] <= g[k])), name
    err = np.abs(scipy_pchip(tab)(q[inside]) - u[inside])
    assert err.max(initial=0.0) <= cdf_abs, (name, err.max())
    steep = inside & (tab.pdf(q) > 1e-6)
    gap = np.abs(q - scipy_quantile(tab, u))[steep]
    assert np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(q[steep]))), (name, gap.max())


def test_quantiles_solve_scipy_pchip(tables):
    # two criterion-3 tables to 2 ulp of 1, the others to 1e-13
    for name, cdf_abs in (("product of uniforms", 4.4e-16), ("Exponential a=2 b=0.7", 4.4e-16),
                          ("random 3", 1e-13), ("4 points", 1e-13)):
        tab = tables[name]
        u = np.concatenate([make_rng(9, 0).random(500), tab.values[[0, -1]], [0.0, 1.0, 0.5]])
        assert_solves_scipy_pchip(tab, u, tab.quantile(u), cdf_abs, name)
        sample = tab.sample(300, seed=4, stream=1)
        u = make_rng(4, 1).random(300)
        assert same_bits(sample, tab.quantile(u)), name
        assert_solves_scipy_pchip(tab, u, sample, cdf_abs, name)


def test_quantiles_of_random_tables_at_every_knot(tables):
    """Forty tables with flat runs, at every knot value and 1 ulp to either
    side of it: |PCHIP(q) - u| stays within 2 ulp of 1 plus the density's
    share of 4 ulp of q."""
    for s in range(40):
        name = f"random {s}"
        tab = tables[name]
        v = tab.values
        u = np.concatenate([v, np.nextafter(v, -1.0), np.nextafter(v, 2.0),
                            make_rng(10, s).random(200)])
        q = tab.quantile(u)
        u = np.clip(u, 0.0, 1.0)
        bound = 4.4e-16 + 4.0 * tab.pdf(q) * np.spacing(q)
        inside = (u > v[0]) & (u < v[-1])
        err = np.abs(scipy_pchip(tab)(q) - u)
        assert np.all(err[inside] <= bound[inside]), (name, (err - bound)[inside].max())
        assert_solves_scipy_pchip(tab, u, q, 1e-12, name)


def criterion3_quantile_report():
    """The worst |PCHIP(q) - u| of the quantiles q of 2,000 uniforms on each
    criterion-3 table, and the most Newton rounds one table's call took."""
    worst, rounds = 0.0, 0
    for _, tab in criterion3_tables():
        v = tab.values
        u = make_rng(12, 0).random(2000)
        u = u[(u > v[0]) & (u < v[-1])]
        worst = max(worst, np.abs(scipy_pchip(tab)(tab.quantile(u)) - u).max())
        rounds = max(rounds, tab._piece_roots(np.searchsorted(v, u, "left"), u)[1])
    return worst, rounds


def test_criterion3_quantiles_take_few_newton_rounds():
    # 14 rounds at most when this was written, against ~36 for a bisection
    # of the whole grid to 1e-10
    worst, rounds = criterion3_quantile_report()
    assert worst <= 4.4e-16
    assert rounds <= 16


def test_quantile_near_a_double_root_at_the_left_knot():
    # the first piece of x**3 on 50 knots is 0.0255 s**2 - 0.25 s**3, flat at
    # its left knot: Newton from the linear start took 495 rounds at 1e-300
    g = np.linspace(0.0, 1.0, 50)
    tab = TabulatedCdf(g, g ** 3)
    for u in (1e-300, 1e-16):
        k = np.searchsorted(tab.values, [u], "left")
        assert tab._piece_roots(k, np.array([u]))[1] <= 8, u
        assert abs(tab.cdf(tab.quantile(u)) - u) <= 1e-15 * u, u


def test_quantile_at_a_knot_value_is_that_knot(tables):
    # a piece flat at its right knot, with u that knot's value, halved its
    # bracket one bit a round: random 1 at values[2] took 54 rounds and gave
    # 21.848631866562435 for the knot 21.84863188621034
    for s in range(40):
        tab = tables[f"random {s}"]
        v = tab.values
        u = v[(v > v[0]) & (v < v[-1])]
        k = np.searchsorted(v, u, "left")  # the left knot of a flat run
        assert tab._piece_roots(k, u)[1] <= 1, s
        assert np.array_equal(tab.quantile(u), tab.grid[k]), s


def test_tabulated_radial_streams_equal_scipy():
    """Elliptical draws from a tabulated radial law against the same draws
    with each radius the root of scipy's interpolant.  A radius may differ
    by 4 ulp plus 2 ulp of 1 in the CDF over the density; each coordinate
    then moves by at most that, plus the rounding of the pair."""
    grid = np.linspace(0.0, 7.0, 200)
    model = EllipticalModel(0.5, TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2)))
    ref = EllipticalModel(0.5, TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2)))
    radii = []
    ref.radial.quantile = lambda u: radii.append(scipy_root(ref.radial, u)) or radii[-1]
    for stream in (0, 1):
        ours, theirs = (sample_elliptical(m, 2000, 11, stream=stream) for m in (model, ref))
        r = radii[-1]
        with np.errstate(divide="ignore"):
            tol = 8.0 * np.spacing(r) + 4.4e-16 / ref.radial.pdf(r)
        assert np.all(np.abs(ours - theirs) <= tol[:, None])


def _scipy_cdf(self, x):
    """cdf as a scipy evaluation under masks: 0 below the grid, values[-1]
    from grid[-1] on."""
    g, x = self.grid, np.asarray(x, dtype=float)
    cdf = scipy_pchip(self)(np.clip(x, g[0], g[-1]))
    out = np.where(x < g[0], 0.0, np.where(x >= g[-1], self.values[-1], cdf))
    return float(out) if out.ndim == 0 else out


def _scipy_sf_pdf(self, x):
    """sf_pdf as two scipy evaluations under the masks of cdf and pdf."""
    g = self.grid
    pdf = scipy_pchip(self).derivative()(np.clip(x, g[0], g[-1]))
    return 1.0 - _scipy_cdf(self, x), np.where((x < g[0]) | (x > g[-1]), 0.0,
                                               np.maximum(pdf, 0.0))


@pytest.mark.parametrize("law, alpha, beta", [(Exponential(1.0), 1.0, 0.5),
                                              (Beta(2.0, 2.0), 2.0, 0.7)])
def test_round_trip_equal_under_scipy_pchip(monkeypatch, law, alpha, beta):
    F = forward_tabulated(law, alpha, beta, n_points=240)
    hi = law.upper if math.isfinite(law.upper) else float(law.quantile(0.995))
    grid = np.geomspace(max(1e-3, 1e-3 * hi), hi * 0.999, 50)
    plan = IterationPlan.default_for(beta)
    ours = invert_iterative(F, alpha, plan, grid)
    monkeypatch.setattr(TabulatedCdf, "cdf", _scipy_cdf)
    monkeypatch.setattr(TabulatedCdf, "sf_pdf", _scipy_sf_pdf)
    theirs = invert_iterative(F, alpha, plan, grid)
    assert same_bits(ours.values, theirs.values)
    assert same_bits(ours.sf(grid), theirs.sf(grid))
