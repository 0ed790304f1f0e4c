"""The Kumaraswamy node map of the mixture engine, its exact constant pieces,
the nested chain of mixtures, and the fused two-integral inversion stage."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sc

from betascale import (Beta, Distribution, Exponential, Gamma, NumericError, PointMass,
                       QuadratureConfig, Uniform, chain_forward, forward_cdf, forward_pdf,
                       forward_sf, forward_tabulated)
from betascale.fractional import kernel_integral_cells
from betascale.scaling import _full_step, _mixture, _node_map

GRID = (0.3, 1.0, 2.0, 4.5)


class _One(Distribution):
    """g = 1 everywhere: the engine then integrates the node map's weight alone."""

    def cdf(self, x):
        return np.ones(np.shape(x))


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta", GRID)
def test_weight_integrates_to_one(alpha, beta):
    # a tolerance below the weight's own quadrature error, so that what is
    # left is the map: E[1] = 1 exactly under Beta(alpha, beta)
    cfg = QuadratureConfig(atol=1e-14, rtol=1e-14)
    vals = _mixture(_One(), alpha, beta, np.array([0.2, 1.0, 7.0]), "cdf", cfg)
    assert np.max(np.abs(vals - 1.0)) <= 1e-13


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta", GRID)
def test_node_map_against_mpmath(alpha, beta):
    # b = Q_K(s) and weight = f_B(b) / f_K(b), near both ends too
    s = np.array([1e-200, 1e-12, 1e-3, 0.2, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 2.0 ** -40])
    b, weight = _node_map(alpha, beta, s)
    with mp.workdps(400):
        a_, b_ = mp.mpf(alpha), mp.mpf(beta)
        for si, bi, wi in zip(s, b, weight):
            ref_b = (1 - (1 - mp.mpf(si)) ** (1 / b_)) ** (1 / a_)
            f_beta = ref_b ** (a_ - 1) * (1 - ref_b) ** (b_ - 1) / mp.beta(a_, b_)
            f_kuma = a_ * b_ * ref_b ** (a_ - 1) * (1 - ref_b ** a_) ** (b_ - 1)
            assert bi == pytest.approx(float(ref_b), rel=1e-13)
            # the weight holds (1 - b) / (1 - b**alpha): near s = 1 both are
            # far below the resolution of b itself
            assert wi == pytest.approx(float(f_beta / f_kuma), rel=1e-12)


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta", GRID)
def test_node_map_ends_are_finite(alpha, beta):
    s = np.array([0.0, 5e-324, 1e-300, 1e-17, 0.5, 1.0 - 2.0 ** -53, 1.0])
    with np.errstate(over="raise", invalid="raise"):
        b, weight = _node_map(alpha, beta, s)
    assert np.all(np.isfinite(b)) and np.all(np.isfinite(weight))
    assert np.all((b >= 0.0) & (b <= 1.0)) and np.all(np.diff(b) >= 0.0)
    scale = 1.0 / (alpha * beta * sc.beta(alpha, beta))
    # (1 - b) / (1 - b**alpha) is 1 at b = 0 and 1/alpha at b = 1
    assert b[0] == 0.0 and weight[0] == pytest.approx(scale, rel=1e-14)
    assert b[-1] == 1.0 and weight[-1] == pytest.approx(alpha ** (1.0 - beta) * scale, rel=1e-14)


@pytest.mark.parametrize("alpha", (0.3, 2.0, 4.5))
@pytest.mark.parametrize("beta", (0.3, 0.7, 2.4))
def test_gamma_and_beta_algebra(alpha, beta):
    # B_{a,b} * Gamma(a+b) = Gamma(a) and B_{a,b} * Beta(a+b, c) = Beta(a, b+c)
    cases = ((Gamma(alpha + beta, 1.0), Gamma(alpha, 1.0), np.geomspace(1e-3, 30.0, 12)),
             (Beta(alpha + beta, 1.5), Beta(alpha, beta + 1.5), np.geomspace(1e-3, 0.999, 12)))
    for H, law, xs in cases:
        for fn, ref in ((forward_cdf, law.cdf), (forward_sf, law.sf), (forward_pdf, law.pdf)):
            vals = fn(H, alpha, beta, xs, mode="mixture")
            assert np.max(np.abs(vals - ref(xs))) <= 1e-6


def test_pointmass_is_exact_betainc():
    xs = np.linspace(0.02, 0.98, 49)
    assert np.array_equal(forward_cdf(PointMass(1.0), 2.0, 3.0, xs, mode="mixture"),
                          sc.betainc(2.0, 3.0, xs))
    assert np.array_equal(forward_sf(PointMass(1.0), 2.0, 3.0, xs, mode="mixture"),
                          sc.betaincc(2.0, 3.0, xs))
    assert np.array_equal(forward_pdf(PointMass(1.0), 2.0, 3.0, xs, mode="mixture"),
                          np.zeros(xs.size))


@pytest.mark.parametrize("alpha", (1.7, 2.0, 4.5))
@pytest.mark.parametrize("beta", (0.3, 0.7, 2.4))
def test_uniform_closed_form_near_origin(alpha, beta):
    # CDF of B_{a,b} * Uniform(0, 1) for a > 1; x/r_H = x is the lower cut
    xs = np.geomspace(1e-4, 0.99, 40)
    c = math.exp(sc.betaln(alpha - 1.0, beta) - sc.betaln(alpha, beta))
    ref = sc.betainc(alpha, beta, xs) + xs * c * (1.0 - sc.betainc(alpha - 1.0, beta, xs))
    vals = forward_cdf(Uniform(0.0, 1.0), alpha, beta, xs, mode="mixture")
    assert np.max(np.abs(vals - ref)) <= 1e-10


# ---------------------------------------------------------------------------
# chain_forward

def test_chain_gamma_beta_closed_form():
    # B_{a,b} * B_{a+b,c} * Gamma(a+b+c) = Gamma(a), in either order
    a, b, c = 1.3, 0.7, 1.6
    xs = (0.05, 0.5, 1.0, 3.0, 8.0)
    for params in ([(a + b, c), (a, b)], [(a, b), (a + b, c)]):
        vals = [chain_forward(Gamma(a + b + c, 1.0), params, x) for x in xs]
        assert vals == pytest.approx([float(Gamma(a, 1.0).cdf(x)) for x in xs],
                                     rel=1e-10, abs=1e-11)


def test_chain_array_matches_per_point_calls():
    # an array x returns an array of x's shape, a scalar x a float.  The
    # engine's qk21 sums (a BLAS matrix-vector product) may round a node row
    # differently with the batch size, so the two agree to a few ulps, not bitwise
    xs = np.array([[0.05, 0.5, 1.0], [2.0, 3.5, 8.0]])
    for H, params in ((Exponential(1.0), [(1.0, 0.5), (2.0, 0.7)]),
                      (Uniform(0.0, 1.0), [(2.0, 0.7)]), (Gamma(2.0, 1.0), [])):
        out = chain_forward(H, params, xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        ref = [chain_forward(H, params, float(x)) for x in xs.ravel()]
        assert all(isinstance(r, float) for r in ref)
        np.testing.assert_allclose(out.ravel(), ref, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_chain_checks_every_level():
    cfg = QuadratureConfig(atol=1e-15, rtol=1e-15, limit=2)
    with pytest.raises(NumericError, match=r"^chain_forward level \d at x=[0-9.e+-]+: ") as err:
        chain_forward(Exponential(1.0), [(1.0, 0.5), (2.0, 0.7)], 1.3, cfg=cfg)
    assert err.value.estimate is not None
    with pytest.raises(NumericError, match=r"^chain_forward level 1 at x=1\.3: "):
        chain_forward(Exponential(1.0), [(2.0, 0.7)], 1.3, cfg=cfg)


def test_chain_bounded_law():
    # two factors of a bounded law: the chain is 1 at and above r_H
    assert chain_forward(Uniform(0.0, 1.0), [(1.0, 1.0), (2.0, 0.5)], 1.0) == 1.0
    one = chain_forward(Uniform(0.0, 1.0), [(2.0, 0.7)], 0.3)
    assert one == pytest.approx(forward_cdf(Uniform(0.0, 1.0), 2.0, 0.7, 0.3), abs=1e-10)


# ---------------------------------------------------------------------------
# one node pass per inversion stage

def _tabulated():
    return forward_tabulated(Exponential(1.0), 1.0, 1.5, n_points=120)


def test_sf_pdf_bit_equal_to_sf_and_pdf():
    F = _tabulated()
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-0.1, 1.1 * F.upper, 5000), F.grid,
                        [F.grid[0] - 1e-12, F.upper + 1e-12, 0.0]])
    sf, pdf = F.sf_pdf(x)
    assert np.array_equal(sf, F.sf(x)) and np.array_equal(pdf, F.pdf(x))


def test_cells_stacked_rows_match_single_rows():
    F = _tabulated()
    xs = np.concatenate([np.geomspace(1e-3, 0.9 * F.upper, 40), [F.upper]])
    one = lambda y: y ** -2.5 * F.sf(y)
    two = lambda y: y ** -1.5 * F.pdf(y)
    cfg = QuadratureConfig(atol=1.0)
    for beta in (0.3, 1.0):
        r1, r2 = kernel_integral_cells(lambda y: np.stack([one(y), two(y)]), F.grid, beta, xs,
                                       F.upper, cfg, what=("one", "two"))
        assert np.array_equal(r1, kernel_integral_cells(one, F.grid, beta, xs, F.upper, cfg))
        assert np.array_equal(r2, kernel_integral_cells(two, F.grid, beta, xs, F.upper, cfg))
        s1, s2 = kernel_integral_cells(lambda y: np.stack([one(y), two(y)]), F.grid, beta,
                                       float(xs[3]), F.upper, cfg, what=("one", "two"))
        assert type(s1) is float and (s1, s2) == (r1[3], r2[3])


def test_cells_stacked_rows_checked_in_grid_order():
    F = _tabulated()
    xs = np.geomspace(1e-2, 4.0, 12)

    class Fail(QuadratureConfig):
        def check(self, value, err, what):
            if re.match(rf"two at x={xs[4]}$|one at x={xs[7]}$", what):
                raise NumericError(f"{what}: forced", estimate=value)

    with pytest.raises(NumericError, match=rf"^two at x={xs[4]}: forced"):
        kernel_integral_cells(lambda y: np.stack([F.sf(y), F.pdf(y)]), F.grid, 0.5, xs,
                              F.upper, Fail(), what=("one", "two"))


def test_fused_stage_bit_equal_to_two_passes():
    # the stage's two integrals as two separate cell passes, as sf and pdf
    F = _tabulated()
    cfg = QuadratureConfig(atol=1e-6, rtol=1e-6)
    grid = np.union1d(np.geomspace(1e-3, 6.0, 40), F.grid[::7])
    for base, lam in ((1.5, 0.5), (2.0, 0.2)):
        delta = 1.0 - lam
        t1 = kernel_integral_cells(lambda y: y ** (-base - 1.0) * F.sf(y), F.grid, delta, grid,
                                   F.upper, cfg)
        t2 = kernel_integral_cells(lambda y: y ** -base * F.pdf(y), F.grid, delta, grid,
                                   F.upper, cfg)
        K = math.exp(sc.gammaln(base) - sc.gammaln(base + lam))
        ref = np.clip(K * grid ** (base + lam) * (base * t1 + t2), 0.0, 1.0)
        assert np.array_equal(_full_step(F, base, lam, grid, cfg), ref)
