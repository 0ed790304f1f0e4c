"""The Kumaraswamy node map of the mixture engine, its exact constant pieces,
the nested chain of mixtures, and the one-lookup (sf, pdf) of a tabulated
law that an inversion stage integrates."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sc

import betascale.fractional as fr
import betascale.scaling as scaling
from betascale import (Beta, DomainError, Distribution, Exponential, Gamma, NumericError, Pareto,
                       PointMass, QuadratureConfig, Rayleigh, Uniform, chain_forward, forward_cdf,
                       forward_pdf, forward_sf, forward_tabulated)
from betascale.scaling import _Chained, _cut_scale, _merge_links, _mixture, _node_map

GRID = (0.3, 1.0, 2.0, 4.5)


class _One(Distribution):
    """g = 1 everywhere: the engine then integrates the node map's weight alone."""

    def cdf(self, x):
        return np.ones(np.shape(x))


@pytest.mark.parametrize("alpha", GRID)
@pytest.mark.parametrize("beta", GRID)
def test_weight_integrates_to_one(alpha, beta):
    # a tolerance below the weight's own quadrature error, so that what is
    # left is the map: E[1] = 1 exactly under Beta(alpha, beta).  At the
    # value 1, rtol 2e-14 is the target of an absolute 1e-14 plus rtol 1e-14
    cfg = QuadratureConfig(rtol=2e-14)
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
    # the density of B_{2,3}, 12 x (1 - x)**2
    assert forward_pdf(PointMass(1.0), 2.0, 3.0, xs, mode="mixture") == pytest.approx(
        12.0 * xs * (1.0 - xs) ** 2, rel=1e-13)


@pytest.mark.parametrize("c", (1.0, 2.5))
@pytest.mark.parametrize("alpha,beta", ((2.0, 3.0), (0.7, 0.4), (1.5, 1.0)))
def test_pointmass_density_matches_weyl(c, alpha, beta):
    # f_B(x/c)/c below c in both modes, weyl's through its exact atom formula
    xs = c * np.linspace(0.01, 0.99, 25)
    assert forward_pdf(PointMass(c), alpha, beta, xs, mode="mixture") == pytest.approx(
        forward_pdf(PointMass(c), alpha, beta, xs, mode="weyl"), rel=1e-12)
    assert forward_pdf(PointMass(1.0), 2.0, 3.0, 0.5, mode="mixture") == pytest.approx(1.5)


@pytest.mark.parametrize("alpha", (1.7, 2.0, 4.5))
@pytest.mark.parametrize("beta", (0.3, 0.7, 2.4))
def test_uniform_closed_form_near_origin(alpha, beta):
    # CDF of B_{a,b} * Uniform(0, 1) for a > 1; x/r_H = x is the lower cut
    xs = np.geomspace(1e-4, 0.99, 40)
    c = math.exp(sc.betaln(alpha - 1.0, beta) - sc.betaln(alpha, beta))
    ref = sc.betainc(alpha, beta, xs) + xs * c * (1.0 - sc.betainc(alpha - 1.0, beta, xs))
    vals = forward_cdf(Uniform(0.0, 1.0), alpha, beta, xs, mode="mixture")
    assert np.max(np.abs(vals - ref)) <= 1e-10


def test_cut_scale_of_each_law():
    # the median where l_H = 0, a chain level's inner scale, and no cut for
    # a law with l_H > 0 or without a quantile
    assert _cut_scale(Exponential(1.0)) == pytest.approx(math.log(2.0), rel=1e-15)
    assert _cut_scale(Pareto(2.0, 1.0)) == math.inf
    assert _cut_scale(_One()) == math.inf
    level = _Chained(Rayleigh(1.0), 2.0, 0.7, QuadratureConfig(), "probe")
    assert _cut_scale(level) == _cut_scale(Rayleigh(1.0))
    assert _cut_scale(level) == pytest.approx(math.sqrt(2.0 * math.log(2.0)), rel=1e-15)


def test_mixture_pieces_either_side_of_the_cut(monkeypatch):
    # below the median m a point runs [0, s_c] in s and [s_c, 1] in log s,
    # s_c = K(x/m); at or above m its whole range runs in s; a bounded law's
    # range [K(x/r_H), 1] runs in log s
    seen, engine = [], scaling._gauss_kronrod

    def spy(fn, owner, lo, hi, *args, **kwargs):
        seen.append((owner.tolist(), lo.tolist(), hi.tolist()))
        return engine(fn, owner, lo, hi, *args, **kwargs)

    monkeypatch.setattr(scaling, "_gauss_kronrod", spy)
    alpha, beta = 2.0, 0.7
    K = lambda b: -math.expm1(beta * math.log1p(-b ** alpha))
    forward_cdf(Exponential(1.0), alpha, beta, np.array([0.1, 2.0]), mode="mixture")
    forward_cdf(Uniform(0.0, 2.0), alpha, beta, np.array([0.1]), mode="mixture")
    (owner, lo, hi), (owner_u, lo_u, hi_u) = seen
    s_c = K(0.1 / math.log(2.0))
    assert owner == [0, 1, 0] and lo[:2] == [0.0, 0.0] and hi[1:] == [1.0, 0.0]
    assert hi[0] == pytest.approx(s_c, rel=1e-14)
    assert lo[2] == pytest.approx(math.log(s_c), rel=1e-14)
    assert owner_u == [0] and hi_u == [0.0]
    assert lo_u[0] == pytest.approx(math.log(K(0.05)), rel=1e-14)


@pytest.mark.parametrize("x", (1e-100, 1e-170, 1e-300))
def test_mixture_below_the_least_normal_s(x):
    # K(x/r_H) and K(x/m) lie below the least normal double from x ~ 1e-154
    # at alpha = 2: the log ends are floored there, which drops at most that
    # much mass.  B*E for E ~ Exponential(1) has the cdf x E[1/B] - O(x**2)
    # and the density E[1/B] at 0+, E[1/B] = (alpha + beta - 1)/(alpha - 1)
    alpha, beta = 2.0, 0.7
    c = math.exp(sc.betaln(alpha - 1.0, beta) - sc.betaln(alpha, beta))
    uniform = sc.betainc(alpha, beta, x) + x * c * (1.0 - sc.betainc(alpha - 1.0, beta, x))
    assert forward_cdf(Uniform(0.0, 1.0), alpha, beta, x, mode="mixture") == pytest.approx(
        uniform, rel=1e-10)
    inverse_mean = (alpha + beta - 1.0) / (alpha - 1.0)
    assert forward_cdf(Exponential(1.0), alpha, beta, x, mode="mixture") == pytest.approx(
        x * inverse_mean, rel=1e-10)
    assert forward_pdf(Exponential(1.0), alpha, beta, x, mode="mixture") == pytest.approx(
        inverse_mean, rel=1e-10)


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


# two Uniform(0, 1) multipliers B_{1,1}, which do not compose: each is its
# own level of the engine, and the inner level's CDF the outer's integrand
UNIFORM_LINKS = [(1.0, 1.0), (1.0, 1.0)]


def exponential_chain_cdf(x):
    """P(U1*U2*E <= x) for E ~ Exponential(1) in mpmath: W = 1/(U1*U2) has
    the density ln(w)/w**2 on (1, inf), so the survivor is
    int_1^inf e^(-x*w) ln(w)/w**2 dw, and the cdf the same integral of
    1 - e^(-x*w), without cancellation at small x."""
    with mp.workdps(30):
        x = mp.mpf(x)
        return float(mp.quad(lambda w: -mp.expm1(-x * w) * mp.log(w) / w ** 2,
                             [1, 2, 10, 100, mp.inf]))


@pytest.mark.parametrize("law", ["point mass", "uniform", "exponential"])
def test_unmerged_chain_meets_the_default_rtol(law):
    # against exact references at the default config: the worst relative
    # errors are 2.2e-16 (point mass), 2.8e-15 (uniform) and 2.8e-11
    # (exponential), so the nested levels need no tighter target
    assert _merge_links(UNIFORM_LINKS) == UNIFORM_LINKS
    if law == "exponential":
        H, x = Exponential(1.0), np.geomspace(1e-3, 8.0, 12)
        ref = np.array([exponential_chain_cdf(v) for v in x])
    else:
        x = np.geomspace(1e-3, 0.999, 30)
        lx = np.log(x)
        # U1*U2 has the cdf x - x ln x, U1*U2*U3 the cdf x (1 - ln x + ln^2 x / 2)
        H, ref = ((PointMass(1.0), x - x * lx) if law == "point mass"
                  else (Uniform(0.0, 1.0), x * (1.0 - lx + lx * lx / 2.0)))
    got = chain_forward(H, UNIFORM_LINKS, x)
    assert np.max(np.abs(got / ref - 1.0)) <= QuadratureConfig().rtol


def test_chain_array_matches_per_point_calls():
    # an array x returns an array of x's shape, a scalar x a float, and the
    # engine sums each node row on its own, so the two agree bit for bit
    xs = np.array([[0.05, 0.5, 1.0], [2.0, 3.5, 8.0]])
    for H, params in ((Exponential(1.0), [(1.0, 0.5), (2.0, 0.7)]),
                      (Uniform(0.0, 1.0), [(2.0, 0.7)]), (Gamma(2.0, 1.0), [])):
        out = chain_forward(H, params, xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        ref = [chain_forward(H, params, float(x)) for x in xs.ravel()]
        assert all(isinstance(r, float) for r in ref)
        assert np.array_equal(out.ravel(), ref)


@pytest.mark.parametrize("mode", ["weyl", "mixture"])
def test_forward_array_bit_equal_to_point_calls(mode):
    # a point's value does not depend on which other points share its call
    xs = np.array([0.2, 0.5, 1.0, 2.0, 3.5, 8.0])
    for H in (Exponential(1.0), Beta(2.0, 3.0), Gamma(2.7, 1.0), Pareto(2.0, 1.0)):
        for fn in (forward_cdf, forward_sf, forward_pdf):
            out = fn(H, 1.5, 0.7, xs, mode=mode)
            assert np.array_equal(out, [fn(H, 1.5, 0.7, float(x), mode=mode) for x in xs])


def test_chain_checks_every_level():
    cfg = QuadratureConfig(rtol=1e-15, limit=2)
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


def test_links_merge_in_list_order_within_the_plan_slack():
    # 0.1 + 0.2 misses 0.3 by one ulp, inside the 1e-12 relative slack
    assert _merge_links([(0.3, 0.5), (0.1, 0.2)]) == [(0.1, 0.2 + 0.5)]
    far = [(0.3 * (1.0 + 1e-9), 0.5), (0.1, 0.2)]
    assert _merge_links(far) == far
    # links need not be adjacent, and merged links merge again
    assert _merge_links([(1.0, 1.0), (5.0, 1.0), (2.0, 3.0)]) == [(1.0, 5.0)]
    # (1, 1) matches both links at 2: the first in list order takes it
    assert _merge_links([(2.0, 0.5), (1.0, 1.0), (2.0, 1.0)]) == [(1.0, 1.5), (2.0, 1.0)]


def test_chain_rejects_a_law_below_zero():
    with pytest.raises(DomainError, match=r"^beta scaling requires a law on \[0, inf\)$"):
        chain_forward(Uniform(-1.0, 1.0), [(1.0, 1.0)], 0.5)


def test_chain_rejects_what_is_not_a_distribution():
    for params in ([(1.0, 1.0)], []):
        with pytest.raises(DomainError, match="^H must be a distribution$"):
            chain_forward(lambda y: y, params, 0.5)


# a chain whose links compose to one multiplier, and one whose links do not
CHAIN_REPORT = (("compose to one", [(2.0, 0.7), (2.7, 0.4), (3.1, 0.5)]),
                ("do not compose", [(1.0, 0.5), (2.0, 0.7)]))


def chain_report(H=Pareto(2.0, 1.0), x=0.4):
    """(label, links, ms, qk21 calls) of chain_forward(H, links, x) for each
    chain of CHAIN_REPORT; one qk21 call is one round of the engine."""
    calls, qk21 = [], fr._qk21
    fr._qk21 = lambda f, half: calls.append(1) or qk21(f, half)
    try:
        report = []
        for label, links in CHAIN_REPORT:
            calls.clear()
            start = time.perf_counter()
            chain_forward(H, links, x)
            report.append((label, links, (time.perf_counter() - start) * 1e3, len(calls)))
        return report
    finally:
        fr._qk21 = qk21


def test_composing_chain_costs_one_engine_call(monkeypatch):
    # B_{2,.7} * B_{2.7,.4} * B_{3.1,.5} is B_{2,1.6}: one run of the engine
    calls, engine = [], scaling._gauss_kronrod
    monkeypatch.setattr(scaling, "_gauss_kronrod",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    H, x = Pareto(2.0, 1.0), 0.4
    value = chain_forward(H, CHAIN_REPORT[0][1], x)
    assert len(calls) == 1
    assert value == pytest.approx(forward_cdf(H, 2.0, 1.6, x, mode="mixture"), rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# (sf, pdf) from one lookup per node

def _tabulated():
    return forward_tabulated(Exponential(1.0), 1.0, 1.5, n_points=120)


def test_sf_pdf_bit_equal_to_sf_and_pdf():
    F = _tabulated()
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-0.1, 1.1 * F.upper, 5000), F.grid,
                        [F.grid[0] - 1e-12, F.upper + 1e-12, 0.0]])
    sf, pdf = F.sf_pdf(x)
    assert np.array_equal(sf, F.sf(x)) and np.array_equal(pdf, F.pdf(x))
