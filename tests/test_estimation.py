import math

import numpy as np
import pytest
from scipy.special import ndtr

from betascale import (
    DomainError,
    EllipticalModel,
    EstimatorConfig,
    Rayleigh,
    PointMass,
    SampleBatch,
    StageError,
    gg_theta,
    h_hat,
    kendall_rho,
    pipeline,
    pseudo_radii,
    psi_hat,
    quantile_hat,
    r_hat,
    sample_elliptical,
    w_hat,
)
from betascale.estimation import TailFitResult
from betascale.distributions import make_rng


def weibull_exact_radii(n, theta, r):
    """Order statistics placed at the exact quantiles of sf = exp(-r x**theta).

    The i-th largest sits at sf level i/n; the i = n level is the lower
    endpoint 0, which would be dropped as nonpositive and shift the
    effective n, so it is nudged to a tiny positive value (only the top
    k_n statistics enter the estimators).
    """
    i = np.arange(1, n + 1)
    radii = (np.log(n / i) / r) ** (1.0 / theta)
    radii[-1] = 1e-12
    return radii


# ---------------------------------------------------------------------------
# Kendall's tau and rho


def test_kendall_three_points():
    tau, rho = kendall_rho(SampleBatch([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]))
    assert tau == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rho == pytest.approx(0.5, abs=1e-15)


def test_kendall_concordant():
    u = np.arange(1.0, 11.0)
    tau, rho = kendall_rho(SampleBatch(u, u ** 3))
    assert tau == 1.0
    assert rho == 1.0


def test_kendall_independent_sample():
    rng = make_rng(5, stream=0)
    batch = SampleBatch(rng.standard_normal(100000), rng.standard_normal(100000))
    tau, rho = kendall_rho(batch)
    assert abs(rho) <= 0.02


def test_kendall_all_u_tied():
    with pytest.raises(DomainError):
        kendall_rho(SampleBatch([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def test_kendall_monotone_transform_invariance():
    rng = make_rng(6, stream=0)
    u = rng.standard_normal(400)
    v = 0.7 * u + rng.standard_normal(400)
    tau0, rho0 = kendall_rho(SampleBatch(u, v))
    tau1, rho1 = kendall_rho(SampleBatch(np.exp(u), np.arctan(v)))
    assert tau1 == tau0
    assert rho1 == rho0


def test_kendall_agrees_with_scipy():
    from scipy import stats

    rng = make_rng(7, stream=0)
    u = rng.standard_normal(300)
    v = 0.3 * u + rng.standard_normal(300)
    tau, _ = kendall_rho(SampleBatch(u, v))
    ref = stats.kendalltau(u, v).statistic
    assert tau == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# pseudo-radii


def test_pseudo_radii_pythagoras():
    r1, r2 = pseudo_radii(SampleBatch([3.0, 1.0], [4.0, 0.0]), 0.0)
    assert r1[0] == 3.0
    assert r2[0] == pytest.approx(5.0, abs=1e-14)


def test_pseudo_radii_on_regression_line():
    _, r2 = pseudo_radii(SampleBatch([2.0, 1.0], [1.0, 0.5]), 0.5)
    assert r2[0] == pytest.approx(2.0, abs=1e-14)


def test_pseudo_radii_dominate_u():
    rng = make_rng(8, stream=0)
    batch = SampleBatch(rng.standard_normal(200), rng.standard_normal(200))
    r1, r2 = pseudo_radii(batch, 0.3)
    assert np.all(r2 >= np.abs(r1) - 1e-12)


def test_pseudo_radii_on_circle_recover_radius():
    rho = 0.6
    pairs = sample_elliptical(EllipticalModel(rho, PointMass(1.0)), 500, seed=9)
    _, r2 = pseudo_radii(SampleBatch.from_pairs(pairs), rho)
    assert np.max(np.abs(r2 - 1.0)) <= 1e-10


def test_pseudo_radii_reject_degenerate_rho():
    with pytest.raises(DomainError):
        pseudo_radii(SampleBatch([1.0, 2.0], [1.0, 2.0]), 1.0)


# ---------------------------------------------------------------------------
# tail exponent and scale


def test_gg_theta_exact_small_case():
    # n = 4, k_n = 2 worked by hand: the i = 2 term has log(4/2) < 1 and is
    # excluded, the i = 1 term gives the ratio exactly
    radii = weibull_exact_radii(4, 2.0, 1.0)
    assert gg_theta(radii, 2) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [50, 500, 5000])
def test_exact_quantile_grid(theta, r, n):
    radii = weibull_exact_radii(n, theta, r)
    for k in (max(2, n // 50), max(3, n // 10), n // 3):
        est = gg_theta(radii, k)
        assert est == pytest.approx(theta, abs=1e-10)
        assert r_hat(radii, theta, k) == pytest.approx(r, abs=1e-10)


def test_gg_theta_scale_invariance():
    rng = make_rng(10, stream=0)
    radii = Rayleigh(1.0).sample(2000, seed=10)
    k = 150
    base = gg_theta(radii, k)
    assert gg_theta(17.3 * radii, k) == pytest.approx(base, rel=1e-13)


def test_gg_theta_simulated_rayleigh():
    n = 100000
    radii = Rayleigh(1.0).sample(n, seed=11) * math.sqrt(0.5)  # sf = exp(-x^2)
    theta = gg_theta(radii, int(math.ceil(n ** 0.6)))
    assert 1.8 <= theta <= 2.2


def test_gg_theta_simulated_exponential():
    from betascale import Exponential

    n = 100000
    radii = Exponential(1.0).sample(n, seed=12)
    theta = gg_theta(radii, int(math.ceil(n ** 0.6)))
    assert 0.9 <= theta <= 1.1


def test_gg_theta_degenerate():
    with pytest.raises(Exception):
        gg_theta(np.ones(100), 10)


def test_r_hat_simulated():
    n = 100000
    radii = Rayleigh(1.0).sample(n, seed=13)  # sf = exp(-0.5 x^2)
    r = r_hat(radii, 2.0, int(math.ceil(n ** 0.6)))
    assert 0.4 <= r <= 0.6


def test_r_hat_theta_one_form():
    # with theta = 1 each summand is log(n/i) / R_{n-i+1:n}
    radii = weibull_exact_radii(100, 1.0, 3.0)
    assert r_hat(radii, 1.0, 20) == pytest.approx(3.0, abs=1e-10)


def test_r_hat_requires_positive_theta():
    with pytest.raises(DomainError):
        r_hat(np.arange(1.0, 50.0), 0.0, 5)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_r_hat_rejects_a_non_finite_theta(theta):
    with pytest.raises(DomainError, match="theta must be positive and finite"):
        r_hat(np.arange(1.0, 50.0), theta, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fit", [lambda radii: gg_theta(radii, 5),
                                 lambda radii: r_hat(radii, 2.0, 5)], ids=["gg_theta", "r_hat"])
def test_tail_fit_rejects_non_finite_radii(fit, bad):
    """A NaN radius is not dropped as if it were nonpositive."""
    radii = np.arange(1.0, 50.0)
    radii[7] = bad
    with pytest.raises(DomainError, match="radii must be finite"):
        fit(radii)


# ---------------------------------------------------------------------------
# plug-in estimators


FIT = TailFitResult(theta=2.0, r=0.5, source="R1", k_n=10, n_used=100)


def test_w_hat_examples():
    assert w_hat(FIT, 3.0) == pytest.approx(3.0, abs=1e-14)
    assert h_hat(FIT, 3.0) == pytest.approx(1.0, abs=1e-14)
    flat = TailFitResult(theta=1.0, r=2.0, source="R1", k_n=10, n_used=100)
    assert w_hat(flat, 0.3) == pytest.approx(2.0, abs=1e-14)
    assert w_hat(flat, 42.0) == pytest.approx(2.0, abs=1e-14)


def test_w_hat_rejects_nonpositive_x():
    with pytest.raises(DomainError):
        w_hat(FIT, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_w_hat_rejects_nonfinite_x(x):
    with pytest.raises(DomainError, match="finite"):
        w_hat(FIT, x)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_psi_hat_rejects_nonfinite_y(y):
    # a non-finite x already fails in w_hat
    with pytest.raises(DomainError, match="finite"):
        psi_hat(FIT, 0.5, 3.0, y)


def test_psi_hat_center():
    assert psi_hat(FIT, 0.37, 4.0, 0.37 * 4.0) == pytest.approx(0.5, abs=1e-14)


def test_psi_hat_gaussian_value():
    # theta=2, r=0.5 gives h(x) = 1 for every x
    assert psi_hat(FIT, 0.0, 2.0, 1.959964) == pytest.approx(0.025, abs=1e-6)


def test_quantile_hat_examples():
    assert quantile_hat(FIT, 0.4, 5.0, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert quantile_hat(FIT, 0.0, 2.0, 0.975) == pytest.approx(1.959964, abs=1e-5)
    with pytest.raises(DomainError):
        quantile_hat(FIT, 0.0, 2.0, 1.0)


def test_psi_quantile_round_trip():
    for s in (0.01, 0.31, 0.5, 0.9, 0.999):
        y = quantile_hat(FIT, 0.5, 6.0, s)
        assert psi_hat(FIT, 0.5, 6.0, y) == pytest.approx(1.0 - s, abs=1e-10)


def test_quantile_hat_monotone_in_s():
    ss = np.linspace(0.05, 0.95, 19)
    ys = [quantile_hat(FIT, 0.5, 6.0, s) for s in ss]
    assert np.all(np.diff(ys) > 0)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_simulated_elliptical():
    pairs = sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 100000, seed=7)
    res = pipeline(SampleBatch.from_pairs(pairs), EstimatorConfig(radius_source="R2"))
    assert 0.45 <= res.rho <= 0.55
    assert 1.7 <= res.fit.theta <= 2.3
    assert not res.warnings


def test_pipeline_sources_agree():
    pairs = sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 100000, seed=7)
    batch = SampleBatch.from_pairs(pairs)
    t1 = pipeline(batch, EstimatorConfig(radius_source="R1")).fit.theta
    t2 = pipeline(batch, EstimatorConfig(radius_source="R2")).fit.theta
    assert abs(t1 - t2) <= 0.3


def test_pipeline_small_sample_warns():
    pairs = sample_elliptical(EllipticalModel(0.3, Rayleigh(1.0)), 60, seed=14)
    res = pipeline(SampleBatch.from_pairs(pairs))
    assert any("n < 100" in w for w in res.warnings)


def test_pipeline_bound_estimators():
    pairs = sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 100000, seed=7)
    res = pipeline(SampleBatch.from_pairs(pairs), EstimatorConfig(radius_source="R2"))
    x = 3.0
    assert res.psi(x, res.rho * x) == pytest.approx(0.5, abs=1e-12)
    y = res.theta_fn(x, 0.9)
    assert res.psi(x, y) == pytest.approx(0.1, abs=1e-10)


def test_pipeline_stage_error_label():
    with pytest.raises(StageError) as exc:
        pipeline(SampleBatch([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert exc.value.stage == "kendall"


def test_pipeline_unknown_source():
    with pytest.raises(DomainError):
        pipeline(SampleBatch([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]),
                 EstimatorConfig(radius_source="R9"))


@pytest.mark.parametrize("cfg", [EstimatorConfig(radius_source="R9"), EstimatorConfig(k_n=0)])
def test_pipeline_rejects_a_bad_config_before_any_stage(monkeypatch, cfg):
    def kendall_must_not_run(batch):
        raise AssertionError("kendall_rho ran before the config was checked")

    monkeypatch.setattr("betascale.estimation.kendall_rho", kendall_must_not_run)
    batch = SampleBatch.from_pairs(sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 300,
                                                     seed=3))
    with pytest.raises(DomainError):
        pipeline(batch, cfg)


def test_resolve_k_names_a_nonpositive_k_n():
    for k_n in (0, -3):
        with pytest.raises(DomainError, match=f"k_n must be a positive integer, got {k_n}"):
            EstimatorConfig(k_n=k_n).resolve_k(1000)
    with pytest.raises(DomainError, match="sample too small"):
        EstimatorConfig().resolve_k(2)
    assert EstimatorConfig(k_n=5).resolve_k(1000) == 5
    assert EstimatorConfig(k_n=500).resolve_k(1000) == 333


@pytest.mark.parametrize("k_n", [10.5, 10.0, "10"])
def test_resolve_k_rejects_a_non_integer_k_n(k_n):
    with pytest.raises(DomainError, match=f"k_n must be a positive integer, got {k_n}"):
        EstimatorConfig(k_n=k_n).resolve_k(1000)
    assert EstimatorConfig(k_n=np.int64(5)).resolve_k(1000) == 5


@pytest.mark.parametrize("pairs", [np.arange(6.0), np.ones((4, 3)), np.ones((3, 2, 2))],
                         ids=["1-d", "three columns", "3-d"])
def test_from_pairs_needs_an_n_by_2_array(pairs):
    with pytest.raises(DomainError, match=r"pairs must be an \(n, 2\) array"):
        SampleBatch.from_pairs(pairs)


def test_pipeline_warns_when_k_n_is_capped():
    batch = SampleBatch.from_pairs(sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 300,
                                                     seed=3))
    res = pipeline(batch, EstimatorConfig(k_n=100000, radius_source="R2"))
    assert res.fit.k_n == 100
    assert res.warnings == ["k_n=100000 capped at n // 3 = 100"]
    assert not pipeline(batch, EstimatorConfig(k_n=100, radius_source="R2")).warnings
    assert not pipeline(batch, EstimatorConfig(radius_source="R2")).warnings


def composed_fit(batch, cfg):
    """The stages one call each, as pipeline composed them before it took the
    radii of one source only and the top order statistics once:
    kendall_rho -> (R1, R2) -> gg_theta -> r_hat, then a count of the
    positive radii.  R2 is written out so that pseudo_radii is not the oracle
    of itself."""
    k = cfg.resolve_k(batch.n)
    tau, rho = kendall_rho(batch)
    resid = (batch.v - rho * batch.u) / math.sqrt(1.0 - rho ** 2)
    radii = {"R1": batch.u.copy(), "R2": np.sqrt(batch.u ** 2 + resid ** 2),
             "V": batch.v}[cfg.radius_source.upper()]
    theta = gg_theta(radii, k)
    r = r_hat(radii, theta, k)
    pos = int(np.sum(radii > 0))
    return tau, rho, theta, r, min(k, pos - 1), pos, radii.size - pos


@pytest.mark.parametrize("source", ["R1", "R2", "V", "r2"])
@pytest.mark.parametrize("n, k_n", [(20000, None), (90, None), (300, 100000), (400, 7)])
def test_pipeline_equals_the_composed_stages(source, n, k_n):
    pairs = sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), n, seed=n)
    batch = SampleBatch.from_pairs(pairs)
    cfg = EstimatorConfig(k_n=k_n, radius_source=source)
    res = pipeline(batch, cfg)
    tau, rho, theta, r, k, pos, dropped = composed_fit(batch, cfg)
    assert (res.tau, res.rho, res.fit.theta, res.fit.r) == (tau, rho, theta, r)
    assert (res.fit.k_n, res.fit.n_used, res.fit.n_dropped) == (k, pos, dropped)
    assert res.fit.source == source.upper()
    expect = []
    if n < 100:
        expect.append("small sample: n < 100; tail estimates are unreliable")
    if k_n is not None and k_n > n // 3:
        expect.append(f"k_n={k_n} capped at n // 3 = {n // 3}")
    if dropped:
        expect.append(f"excluded {dropped} nonpositive radii from tail fitting")
    assert res.warnings == expect
    assert (source.upper() == "R2") == (dropped == 0)     # u and v take both signs


@pytest.mark.parametrize("source", ["R1", "R2", "V"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pipeline_radius_stage_needs_abs_rho_below_one_for_every_source(source, sign):
    u = np.arange(1.0, 31.0)
    batch = SampleBatch(u, sign * u)
    assert kendall_rho(batch) == (sign, sign)
    with pytest.raises(StageError, match="need \\|rho\\| < 1") as exc:
        pipeline(batch, EstimatorConfig(radius_source=source))
    assert exc.value.stage == "radii"
