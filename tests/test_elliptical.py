import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtr

import betascale.elliptical as elliptical
import betascale.fractional as fractional
from betascale import (
    DomainError,
    EllipticalModel,
    Exponential,
    Gamma,
    Kotz,
    NoDensityError,
    NumericError,
    PointMass,
    QuadratureConfig,
    Rayleigh,
    TabulatedCdf,
    conditional_density_point,
    conditional_sf_exceed,
    convergence_diagnostic,
    gaussian_approx_sf,
    mda_classify,
    sample_elliptical,
)

GAUSS = EllipticalModel(rho=0.0, radial=Rayleigh(1.0))


def phi(t):
    return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# sampling

def test_unit_circle_sampling():
    pairs = sample_elliptical(EllipticalModel(0.0, PointMass(1.0)), 500, seed=3)
    r2 = pairs[:, 0] ** 2 + pairs[:, 1] ** 2
    assert np.max(np.abs(r2 - 1.0)) <= 1e-12


def test_squared_coordinate_moment():
    pairs = sample_elliptical(EllipticalModel(0.0, PointMass(1.0)), 100000, seed=4)
    assert abs(np.mean(pairs[:, 0] ** 2) - 0.5) <= 0.01


def test_correlation_sign():
    for rho in (0.5, -0.5):
        pairs = sample_elliptical(EllipticalModel(rho, Rayleigh(1.0)), 100000, seed=5)
        emp = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert math.copysign(1.0, emp) == math.copysign(1.0, rho)


def test_u_v_same_distribution():
    pairs = sample_elliptical(EllipticalModel(0.4, Rayleigh(1.0)), 100000, seed=6)
    ks = stats.ks_2samp(pairs[:, 0], pairs[:, 1]).statistic
    assert ks <= 0.02


def test_squared_angle_is_arcsine():
    pairs = sample_elliptical(EllipticalModel(0.0, Rayleigh(1.0)), 100000, seed=8)
    u, v = pairs[:, 0], pairs[:, 1]
    o1sq = u ** 2 / (u ** 2 + v ** 2)
    ks = stats.kstest(o1sq, lambda t: stats.beta(0.5, 0.5).cdf(t)).statistic
    assert ks <= 0.02


# ---------------------------------------------------------------------------
# point conditioning

def test_rayleigh_point_density_is_gaussian():
    for x in (1.0, 5.0, 10.0):
        for t in np.linspace(-3.0, 3.0, 13):
            val = conditional_density_point(GAUSS, x, float(t))
            assert abs(val - phi(t)) <= 1e-8


def test_point_density_symmetric():
    m = EllipticalModel(0.3, Gamma(2.0, 1.0))
    for t in (0.5, 1.0, 2.5):
        a = conditional_density_point(m, 2.0, t)
        b = conditional_density_point(m, 2.0, -t)
        assert abs(a - b) <= 1e-10


def test_kotz_point_density_near_gaussian_at_large_x():
    m = EllipticalModel(0.0, Kotz(1.0, 0.0, 1.0, 1.0))
    ts = np.linspace(-3.0, 3.0, 61)
    sup = max(abs(conditional_density_point(m, 15.0, float(t)) - phi(t)) for t in ts)
    assert sup <= 0.05


def test_point_density_integrates_to_one():
    for m in (GAUSS, EllipticalModel(0.2, Gamma(3.0, 1.0))):
        total, _ = quad(lambda t: conditional_density_point(m, 2.0, t), -12.0, 12.0,
                        limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_point_density_requires_density():
    with pytest.raises((NoDensityError, DomainError)):
        conditional_density_point(EllipticalModel(0.0, PointMass(1.0)), 0.5, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_conditioning_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        conditional_density_point(GAUSS, bad, 0.0)
    for method in ("quadrature", "montecarlo"):
        for x, y in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DomainError, match="finite"):
                conditional_sf_exceed(GAUSS, x, y, method=method, n=100)


@pytest.mark.parametrize("x,y", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                 (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf)])
def test_gaussian_approx_rejects_nonfinite(x, y):
    with pytest.raises(DomainError, match="finite"):
        gaussian_approx_sf(GAUSS, x, y)


# ---------------------------------------------------------------------------
# exceedance conditioning

def test_exceed_gauss_symmetry():
    for x in (0.5, 1.0, 2.0):
        assert conditional_sf_exceed(GAUSS, x, 0.0) == pytest.approx(0.5, abs=1e-8)


def test_exceed_gauss_independence():
    val = conditional_sf_exceed(GAUSS, 1.0, 1.0)
    assert val == pytest.approx(1.0 - ndtr(1.0), abs=1e-8)


def test_exceed_approaches_half_at_center():
    m = EllipticalModel(0.5, Rayleigh(1.0))
    val = conditional_sf_exceed(m, 2.0, 1.0)
    assert abs(val - 0.5) <= 0.1


def test_exceed_methods_agree():
    m = EllipticalModel(0.5, Rayleigh(1.0))
    for x, y in [(1.0, 1.0), (2.0, 1.5)]:
        q = conditional_sf_exceed(m, x, y, method="quadrature")
        mc = conditional_sf_exceed(m, x, y, method="montecarlo", n=200000, seed=13)
        se = math.sqrt(max(q * (1 - q), 1e-12) / 200000)
        assert abs(q - mc) <= max(0.02, 3 * se / math.sqrt(max(m.radial.sf(x), 1e-12)))


def test_exceed_pointmass_arc_geometry():
    # unit-circle radial: exact arc-overlap solution
    m = EllipticalModel(0.0, PointMass(1.0))
    val = conditional_sf_exceed(m, 0.5, 0.5)
    a = math.acos(0.5)
    assert val == pytest.approx((a - (math.pi / 2 - a)) / (2 * a), abs=1e-10)
    # P(U > 0.5) = 1/3: the Monte Carlo estimate holds the same geometry
    est, se = elliptical._exceed_montecarlo(m, 0.5, 0.5, 100_000, 5)
    assert abs(est - val) <= 4 * se


@pytest.mark.parametrize("x", [-1.0, 1.0, 2.0, 3.0, 3.5])
def test_exceed_montecarlo_has_full_sample_precision_at_every_level(x):
    # every draw lands in U > x, so the error is that of n draws wherever
    # P(U > x) lies; plain rejection kept only that share of them and, with
    # this seed, missed by 0.090 at x = 3 and 0.188 at x = 3.5.  Below 0 the
    # radii are unconditioned
    m = EllipticalModel(0.5, Rayleigh(1.0))
    y = 0.5 * x + 0.3
    q = conditional_sf_exceed(m, x, y)
    mc = conditional_sf_exceed(m, x, y, method="montecarlo", n=100_000, seed=5)
    se = math.sqrt(q * (1 - q) / 100_000)
    assert abs(mc - q) <= max(4 * se, 1e-2)


def _gauss_exceed_ref(rho, x, y):
    """P(V > y | U > x) for a standard bivariate normal (U, V) of correlation
    rho, by mpmath: int_x^inf phi(u) Phi_bar((y - rho*u)/sqrt(1 - rho^2)) du
    over Phi_bar(x)."""
    with mp.workdps(30):
        r = mp.mpf(rho)
        rc = mp.sqrt(1 - r * r)
        num = mp.quad(lambda u: mp.npdf(u) * mp.ncdf((r * u - y) / rc), [x, x + 2, mp.inf])
        return float(num / mp.ncdf(-mp.mpf(x)))


@pytest.mark.parametrize("rho", [0.5, -0.3, 0.0, 0.9])
def test_exceed_quadrature_matches_the_gaussian_oracle(rho):
    # a Rayleigh(1) radial makes (U, V) standard bivariate normal; the worst
    # of these 28 cases is 1.04e-10 relative
    m = EllipticalModel(rho, Rayleigh(1.0))
    for x, y in ((1.0, 0.5), (-0.5, 0.3), (2.0, 1.0), (4.0, 2.5), (3.0, -1.0), (0.0, 0.0),
                 (6.0, 3.0)):
        assert conditional_sf_exceed(m, x, y, method="quadrature") == pytest.approx(
            _gauss_exceed_ref(rho, x, y), rel=fractional._RELATIVE_CFG.rtol)


def test_quadrature_failure_names_the_conditioning_level():
    # the integrals' own lower limit is the x of the message: 0 for both here
    m = EllipticalModel(0.5, Kotz(2.0, 1.0, 0.5, 2.0))
    tight = QuadratureConfig(rtol=1e-15, limit=1)
    with pytest.raises(NumericError, match=r"^arc mass given U > -0\.5 at x=0\.0: "):
        conditional_sf_exceed(m, -0.5, 0.3, cfg=tight)
    with pytest.raises(NumericError, match=r"^conditional normalizer given U = 2\.0 at x=0\.0: "):
        conditional_density_point(m, 2.0, 0.0, cfg=tight)


# the exceedance cases whose engine rounds are counted, here and in CI
EXCEED_CASES = [(R, rho, x, y) for R in (Rayleigh(1.0), Kotz(2.0, 1.0, 0.5, 2.0), Exponential(1.0))
                for rho in (0.0, 0.5)
                for x, y in ((0.5, 0.2), (1.0, 0.5), (2.0, 1.0), (-0.5, 0.3), (3.0, -1.0))]


def exceedance_qk21_calls():
    """Mean qk21 calls per exceedance quadrature over EXCEED_CASES."""
    calls, qk21 = [], fractional._qk21
    fractional._qk21 = lambda f, half: calls.append(1) or qk21(f, half)
    try:
        for R, rho, x, y in EXCEED_CASES:
            conditional_sf_exceed(EllipticalModel(rho, R), x, y, method="quadrature")
    finally:
        fractional._qk21 = qk21
    return len(calls) / len(EXCEED_CASES)


def test_exceedance_quadrature_takes_few_engine_rounds():
    # 11.6 with the kernel integral's start rules, 16.0 under the
    # elliptical layer's own one-part start
    assert exceedance_qk21_calls() <= 12.0


def test_exceed_deep_tail_importance_sampling():
    m = EllipticalModel(0.5, Rayleigh(1.0))
    val = conditional_sf_exceed(m, 6.0, 3.0, method="montecarlo", n=100000, seed=17)
    assert 0.0 < val < 1.0


# ---------------------------------------------------------------------------
# Gaussian approximation and diagnostics

def test_gaussian_approx_rho_zero_rayleigh():
    for x in (1.0, 4.0, 9.0):
        for y in (0.0, 0.7, 2.2):
            assert gaussian_approx_sf(GAUSS, x, y) == pytest.approx(1.0 - ndtr(y), rel=1e-10)


def test_gaussian_approx_center():
    m = EllipticalModel(0.5, Rayleigh(1.0))
    assert gaussian_approx_sf(m, 3.0, 1.5) == pytest.approx(0.5, abs=1e-12)


def test_gaussian_approx_vs_exceed_kotz():
    m = EllipticalModel(0.5, Kotz(1.0, 0.0, 1.0, 2.0))
    x = 6.0
    # y at the 0.9 approximation quantile
    from scipy.special import ndtri

    w = mda_classify(m.radial).w
    cx = math.sqrt(w(x) / x)
    y = 0.5 * x + math.sqrt(1 - 0.25) * ndtri(0.9) / cx
    approx = gaussian_approx_sf(m, x, y)
    mc = conditional_sf_exceed(m, x, y, method="montecarlo", n=400000, seed=23)
    assert abs(approx - mc) <= 0.03


def test_gaussian_approx_requires_gumbel():
    with pytest.raises(DomainError):
        gaussian_approx_sf(EllipticalModel(0.0, PointMass(1.0)), 1.0, 0.5)


def test_convergence_diagnostic_rayleigh_noise_floor():
    exceed, point = convergence_diagnostic(GAUSS, [2.0, 4.0], n=100000, seed=31)
    noise = 3.0 / math.sqrt(100000)
    assert np.all(point <= noise + 1e-3)
    assert np.all(exceed <= noise + 1e-3)


def test_convergence_diagnostic_kotz_improves():
    m = EllipticalModel(0.0, Kotz(1.0, 0.0, 1.0, 1.0))
    exceed, point = convergence_diagnostic(m, [5.0, 10.0, 15.0], n=100000, seed=32)
    noise = 3.0 / math.sqrt(100000)
    assert exceed[-1] <= 0.05
    assert point[-1] <= 0.05
    assert all(b <= a + noise for a, b in zip(exceed, exceed[1:]))
    assert all(b <= a + noise for a, b in zip(point, point[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_convergence_diagnostic_checks_levels_before_sampling(bad, monkeypatch):
    monkeypatch.setattr(elliptical, "_importance_draws", lambda *a: pytest.fail("sampled"))
    with pytest.raises(DomainError, match="positive and finite"):
        convergence_diagnostic(GAUSS, [2.0, bad])


def test_convergence_diagnostic_pointmass_rejected():
    with pytest.raises((DomainError, NoDensityError)):
        convergence_diagnostic(EllipticalModel(0.0, PointMass(1.0)), [1.0, 2.0])


def test_abs_u_marginal_classifies_gumbel():
    pairs = sample_elliptical(GAUSS, 100000, seed=41)
    au = np.sort(np.abs(pairs[:, 0]))
    grid = np.quantile(au, np.linspace(0.01, 0.999, 250))
    grid = np.unique(grid)
    emp = np.searchsorted(au, grid, side="right") / au.size
    tab = TabulatedCdf(grid, emp, rectify=True)
    assert mda_classify(tab).label == "gumbel"
