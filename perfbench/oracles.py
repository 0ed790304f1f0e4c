"""Independent oracles and the check records behind max_err_ratio / pass_frac.

Every bound below is an existing acceptance or tier-1 tolerance; the source
is named next to each constant.  None is loosened for the benchmark.

Closed forms used as references (none goes through betascale's quadrature):

* Gamma algebra: B_{a,b} * Gamma(a+b, rate) ~ Gamma(a, rate).
* Beta algebra:  B_{a,b} * Beta(a+b, c)     ~ Beta(a, b+c).
* Pareto(g, xmin): sf(x) = (1 - I_c'(a,b)) + c**-g * B(a+g,b)/B(a,b) * I_c'(a+g,b),
  c = x/xmin, c' = min(c, 1)  (for x >= xmin this is E[B**g] c**-g).
* Uniform(0,1), a > 1: cdf(x) = I_x(a,b) + x*B(a-1,b)/B(a,b)*(1 - I_x(a-1,b)),
  pdf(x) = B(a-1,b)/B(a,b)*(1 - I_x(a-1,b)); a = b = 1 is the product of
  two uniforms, cdf x - x ln x, evaluated in high precision near 1.
* Exponential(1) with a = b = 1: sf = E_2(x), pdf = E_1(x).
* Point mass at c: cdf(x) = I_{x/c}(a, b).
* Rayleigh: no closed form; an mpmath quadrature of E[H(x/B)] at 30 digits.
* Gaussian pairs (Rayleigh radial): P(V > y | U > x) by a one-dimensional
  integral of phi(u) * Phi_bar((y - rho u)/sqrt(1 - rho^2)).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special as sc
from scipy.integrate import quad

# -- bounds (source in the comment) -----------------------------------------
PARETO_ABS = 1e-8          # criterion 2: Pareto forward sf 1/(3x^2)
POINTMASS_ABS = 1e-10      # criterion 2: point mass (mixture) vs betainc
POINTMASS_WEYL_ABS = 1e-8  # test_forward_cdf_pointmass_is_beta, weyl mode
BETA_ABS = 1e-6            # criterion 2: Beta(1.5,.5)*B(1,.5) = Uniform
MODES_ABS = 1e-6           # test_forward_modes_agree: weyl vs mixture (any law's cdf)
VALUE_REL = 1e-8           # test_forward_sf_product_of_uniforms, _pdf_examples (Uniform)
PDF_DERIV_ABS = 1e-5       # test_forward_pdf_matches_cdf_derivative (any density)
TAIL_REL = 1e-6            # test_weibull_product_of_uniforms (direct tail value), criterion 4
FRECHET_RATIO_ABS = 1e-6   # criterion 4: Frechet prediction ratio
GUMBEL_RATIO_ABS = 0.15    # criterion 5: Gumbel prediction ratio at x >= 20
DENSITY_REL = {"frechet": 0.05,   # criterion 4
               "gumbel": 0.15,    # test_density_ratio_gumbel
               "weibull": 0.02}   # test_density_ratio_weibull
ROUNDTRIP_ABS = 5e-3       # criterion 3: forward_tabulated -> invert_iterative
ONESTEP_ABS = 1e-3         # criterion 3: inversion of the product-of-uniforms table
PSI_ABS = 0.05             # criterion 9: psi_hat vs the conditional survivor
BAND_RHO = (0.45, 0.55)    # criterion 9 bands
BAND_THETA = (1.7, 2.3)
BAND_R = (0.35, 0.65)
TAB_QUANTILE_ABS = 1e-9    # test_tabulated_quantile_bisection
QUANTILE_TOL = 1e-8        # test_quantile_roundtrip (abs and rel)


def mc_bound(q, n, kept):
    """test_exceed_methods_agree: Monte Carlo vs quadrature.  The test
    divides the standard error by sqrt(sf(x)) because plain rejection keeps
    that share of the n draws; the importance sampler the library switches to
    below P(U > x) = 1e-4 keeps all of them, so pass kept = 1 there (with
    the test's sf(x) the bound would exceed 1 and the check could not fail)."""
    se = math.sqrt(max(q * (1 - q), 1e-12) / n)
    return max(0.02, 3 * se / math.sqrt(max(kept, 1e-12)))


def diagnostic_bound(n):
    """test_convergence_diagnostic_rayleigh_noise_floor."""
    return 3.0 / math.sqrt(n) + 1e-3


# -- check records -----------------------------------------------------------

class Check:
    """One oracle comparison.  ``ratio`` = err / tol feeds max_err_ratio.

    Only deterministic numerical comparisons have a ratio.  A pass/fail flag
    (exit code, byte-for-byte replay) has none, and neither has a check whose
    error is sampling noise from the seed's draws (``sampled``: estimator
    bands, Monte Carlo vs quadrature, plug-in estimates vs exact values): that
    noise would swamp the engine's accuracy.  Both still decide ``ok``."""

    __slots__ = ("what", "err", "tol", "numeric")

    def __init__(self, what, err, tol, numeric=True):
        self.what, self.err, self.tol, self.numeric = what, err, tol, numeric

    @property
    def ok(self):
        return bool(self.err <= self.tol)  # NaN compares False

    @property
    def ratio(self):
        return self.err / self.tol if self.numeric and math.isfinite(self.err) else None

    def __repr__(self):
        return f"{self.what}: err {self.err:.3g} tol {self.tol:.3g}"


def close(what, got, ref, atol=0.0, rtol=0.0, sampled=False):
    """|got - ref| <= max(atol, rtol*|ref|), the pytest.approx rule."""
    got = float(got)
    err = abs(got - ref) if math.isfinite(got) else math.inf
    return Check(what, err, max(atol, rtol * abs(ref)), numeric=not sampled)


def band(what, value, lo, hi):
    """A sampled estimate inside [lo, hi]."""
    half = 0.5 * (hi - lo)
    return Check(what, abs(float(value) - 0.5 * (lo + hi)), half, numeric=False)


def at_most(what, value, limit, sampled=False):
    return Check(what, float(value), limit, numeric=not sampled)


def flag(what, ok):
    return Check(what, 0.0 if ok else 1.0, 0.5, numeric=False)


# -- closed forms --------------------------------------------------------------

def gamma_law(shape, rate):
    """(cdf, sf, pdf) of Gamma(shape, rate)."""
    lg = sc.gammaln(shape)
    return (lambda x: float(sc.gammainc(shape, rate * x)),
            lambda x: float(sc.gammaincc(shape, rate * x)),
            lambda x: math.exp(shape * math.log(rate) + (shape - 1) * math.log(x)
                               - rate * x - lg))


def beta_law(a, b):
    lb = sc.betaln(a, b)
    return (lambda x: float(sc.betainc(a, b, x)),
            lambda x: float(sc.betainc(b, a, 1.0 - x)),
            lambda x: math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - lb))


def pareto_scaled(g, xmin, a, b):
    moment = math.exp(sc.betaln(a + g, b) - sc.betaln(a, b))

    def sf(x):
        c = x / xmin
        cc = min(c, 1.0)
        return float(1.0 - sc.betainc(a, b, cc) + c ** -g * moment * sc.betainc(a + g, b, cc))

    def pdf(x):
        # d/dx of sf; the boundary terms at c = x/xmin cancel
        c = x / xmin
        if c >= 1.0:
            return g * moment * xmin ** g * x ** (-g - 1.0)
        return float(g * c ** -g / x * moment * sc.betainc(a + g, b, c))

    return (lambda x: 1.0 - sf(x), sf, pdf)


def uniform_scaled(a, b):
    if a == 1.0 and b == 1.0:
        def sf(x):
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                return float(1 - xm + xm * mpmath.log(xm))

        return (lambda x: x - x * math.log(x), sf, lambda x: -math.log(x))
    if a <= 1.0:
        raise ValueError("closed form needs a > 1")
    c = math.exp(sc.betaln(a - 1, b) - sc.betaln(a, b))

    def cdf(x):
        return float(sc.betainc(a, b, x) + x * c * (1.0 - sc.betainc(a - 1, b, x)))

    return (cdf, lambda x: 1.0 - cdf(x), lambda x: float(c * (1.0 - sc.betainc(a - 1, b, x))))


def exponential_uniform_scaled():
    """Exponential(1) scaled by B_{1,1}: sf = E_2(x), pdf = E_1(x)."""
    return (lambda x: 1.0 - float(sc.expn(2, x)), lambda x: float(sc.expn(2, x)),
            lambda x: float(sc.exp1(x)))


def pointmass_scaled(c, a, b):
    return (lambda x: float(sc.betainc(a, b, min(x / c, 1.0))),
            lambda x: float(sc.betainc(b, a, max(1.0 - x / c, 0.0))),
            None)


def rayleigh_scaled(sigma, a, b):
    """mpmath reference for Rayleigh(sigma) scaled by B_{a,b}."""
    def _mp(fn):
        def value(x):
            with mpmath.workdps(30):
                lb = mpmath.log(mpmath.beta(a, b))
                s2 = 2 * mpmath.mpf(sigma) ** 2

                def dens(t):
                    return mpmath.exp((a - 1) * mpmath.log(t) + (b - 1) * mpmath.log1p(-t) - lb)

                return float(mpmath.quad(lambda t: dens(t) * fn(mpmath.mpf(x), t, s2), [0, 0.5, 1]))
        return value

    sf = _mp(lambda x, t, s2: mpmath.exp(-(x / t) ** 2 / s2))
    pdf = _mp(lambda x, t, s2: 2 * x / (s2 * t * t) * mpmath.exp(-(x / t) ** 2 / s2))
    return (lambda x: 1.0 - sf(x), sf, pdf)


def gauss_exceed(rho, x, y):
    """P(V > y | U > x) for standard bivariate normal (U, V) with correlation rho."""
    rc = math.sqrt(1.0 - rho * rho)
    num, _ = quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
                  * sc.ndtr(-(y - rho * u) / rc), x, np.inf, epsabs=0.0, epsrel=1e-12,
                  limit=200)
    return num / float(sc.ndtr(-x))


def kotz_quantile(m, r, theta, u):
    """Exact quantile of Kotz(M=m, N=0, r, theta): sf = m exp(-r x**theta)."""
    return (np.log(m / (1.0 - np.asarray(u))) / r) ** (1.0 / theta)


def philox_uniforms(seed, stream, n):
    """The first n uniforms that betascale.make_rng(seed, stream) hands out."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)])).random(n)
