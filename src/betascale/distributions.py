"""Univariate distributions with evaluation, sampling and tail metadata.

Every law exposes ``cdf``, ``sf``, ``pdf``, ``quantile`` and ``sample`` plus
its support endpoints.  Laws in the Gumbel max-domain additionally expose a
scaling function, and every analytic family knows which extreme value class
attracts its maxima.  Tabulated CDFs are carried by a monotone piecewise
cubic interpolant so that densities and quantiles stay well defined.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc

from .errors import DomainError, NoDensityError

__all__ = [
    "ln_gamma",
    "reg_inc_beta",
    "beta_moment",
    "ScalingFunction",
    "MdaClass",
    "WeibullTailModel",
    "Distribution",
    "Uniform",
    "Beta",
    "Gamma",
    "Exponential",
    "Pareto",
    "Rayleigh",
    "Kotz",
    "PointMass",
    "TabulatedCdf",
    "make_rng",
    "mda_classify",
    "scaling_function_w",
    "dist_from_json",
    "dist_to_json",
    "load_tabulated_csv",
    "read_csv_columns",
]


# ---------------------------------------------------------------------------
# special functions

def _positive_finite(*values):
    """True when every value lies in (0, inf); NaN never does."""
    return all(0.0 < v < math.inf for v in values)


def ln_gamma(x):
    """log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError("ln_gamma requires x > 0")
    out = sc.gammaln(x)
    return float(out) if out.ndim == 0 else out


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta: P(B_{a,b} <= x) for x in [0, 1]."""
    if not _positive_finite(a, b):
        raise DomainError("beta parameters must be positive and finite")
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0) & (xa <= 1)):
        raise DomainError("reg_inc_beta requires x in [0, 1]")
    out = sc.betainc(a, b, xa)
    return float(out) if out.ndim == 0 else out


def beta_moment(alpha, beta, gamma):
    """E[B_{alpha,beta}^gamma] = Gamma(a+b)Gamma(a+g) / (Gamma(a)Gamma(a+b+g))."""
    if not _positive_finite(alpha, beta):
        raise DomainError("beta parameters must be positive and finite")
    if not 0.0 <= gamma < math.inf:
        raise DomainError("moment order must be nonnegative and finite")
    return math.exp(
        sc.gammaln(alpha + beta) + sc.gammaln(alpha + gamma)
        - sc.gammaln(alpha) - sc.gammaln(alpha + beta + gamma)
    )


def make_rng(seed, stream=0):
    """Counter-based generator keyed by (seed, stream); streams are independent."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


# ---------------------------------------------------------------------------
# scaling functions (Gumbel auxiliary functions, Berman's convention)

@dataclass
class ScalingFunction:
    """The w in sf(x + t/w(x)) / sf(x) -> exp(-t): the power form
    r*theta*x**(theta-1), which is r at theta = 1, or a callable ``fn``."""

    r: float | None = None
    theta: float | None = None
    fn: object = None

    @classmethod
    def constant(cls, value):
        return cls.power(value, 1.0)

    @classmethod
    def power(cls, r, theta):
        return cls(r=float(r), theta=float(theta))

    @classmethod
    def custom(cls, fn):
        return cls(fn=fn)

    @property
    def form(self):
        if self.fn is not None:
            return "custom"
        return "constant" if self.theta == 1.0 else "power"

    def __call__(self, x):
        if self.fn is not None:
            return self.fn(x)
        out = self.r * self.theta * np.asarray(x, dtype=float) ** (self.theta - 1.0)
        return float(out) if out.ndim == 0 else out

    def self_neglect_deviation(self, x, t_span=3.0, n=13):
        """max over t in [-t_span, t_span] of |w(x + t/w(x))/w(x) - 1|."""
        w0 = float(self(x))
        ts = np.linspace(-t_span, t_span, n)
        return float(np.max(np.abs(np.asarray(self(x + ts / w0), dtype=float) / w0 - 1.0)))


@dataclass
class MdaClass:
    """Max-domain-of-attraction label with its index / scaling function."""

    label: str                              # "gumbel" | "frechet" | "weibull" | "unclassified"
    gamma: float | None = None              # frechet / weibull index
    r_upper: float | None = None            # weibull endpoint
    w: ScalingFunction | None = None        # gumbel scaling function
    confident: bool = True
    r_squared: float | None = None

    @property
    def is_gumbel(self):
        return self.label == "gumbel"


@dataclass
class WeibullTailModel:
    """sf(x) = exp(-r * x**theta * (1 + o(1))); theta**-1 is the tail coefficient."""

    r: float
    theta: float

    def __post_init__(self):
        if not _positive_finite(self.r, self.theta):
            raise DomainError("Weibull tail model requires finite r > 0 and theta > 0")

    def sf(self, x):
        return np.exp(-self.r * np.asarray(x, dtype=float) ** self.theta)

    def quantile(self, q):
        """Exact quantile when the o(1) correction vanishes."""
        return (-np.log1p(-_probabilities(q)) / self.r) ** (1.0 / self.theta)

    def scaling_w(self):
        return ScalingFunction.power(self.r, self.theta)


# ---------------------------------------------------------------------------
# distribution base

class Distribution:
    """Base class: a univariate law on [lower, upper]."""

    lower = 0.0
    upper = math.inf

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        out = 1.0 - np.asarray(self.cdf(x), dtype=float)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        raise NoDensityError(f"{type(self).__name__} has no density")

    def sf_pdf(self, x):
        """(sf(x), pdf(x)); laws that share work between the two override it."""
        return self.sf(x), self.pdf(x)

    def quantile(self, q):
        raise NotImplementedError

    def isf(self, s):
        """Inverse survivor: the x with sf(x) = s.  The default goes through
        quantile(1 - s) and loses precision once s is below machine epsilon;
        laws with an analytic tail override it."""
        return self.quantile(1.0 - _probabilities(s))

    def sample(self, n, seed, stream=0):
        """n i.i.d. draws by inverse transform; reproducible under (seed, stream)."""
        if n < 1:
            raise DomainError("sample size must be >= 1")
        rng = make_rng(seed, stream)
        return np.asarray(self.quantile(rng.random(n)), dtype=float)

    def mda(self) -> MdaClass:
        raise NotImplementedError

    def scaling_w(self) -> ScalingFunction:
        m = self.mda()
        if not m.is_gumbel:
            raise DomainError(f"{type(self).__name__} is not in the Gumbel MDA")
        return m.w


def _as_float(x, fn):
    """fn at x as a float, or an array of x's shape; NaN wherever x is NaN."""
    v = np.asarray(x, dtype=float)
    out = np.asarray(fn(v), dtype=float)
    if out.ndim == 0:
        return math.nan if math.isnan(v) else float(out)
    nan = np.isnan(v)
    return np.where(nan, np.nan, out) if nan.any() else out


def _probabilities(q, clamp=False):
    """q as a float array after checking that every entry is a probability
    in [0, 1]; NaN never is.  With ``clamp`` an entry beyond either end is
    taken as that end instead, for the laws whose quantiles have always
    mapped such entries to the ends of their support."""
    q = np.asarray(q, dtype=float)
    if np.isnan(q).any() or not (clamp or np.all((q >= 0.0) & (q <= 1.0))):
        raise DomainError("quantile and isf take probabilities in [0, 1]")
    return np.clip(q, 0.0, 1.0) if clamp else q


def _bisect(right_of, lo, hi, width):
    """Bisection of all points at once: while hi - lo > width(hi), a point's
    lo moves to the midpoint x where right_of(x, index) holds, its hi where
    not.  Returns the final midpoints; lo = hi returns that value."""
    out = np.empty(lo.size)
    live = np.arange(lo.size)
    while True:
        done = ~(hi - lo > width(hi))
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            live, lo, hi = live[~done], lo[~done], hi[~done]
        if not live.size:
            return out
        mid = 0.5 * (lo + hi)
        right = right_of(mid, live)
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)


class Uniform(Distribution):
    def __init__(self, a=0.0, b=1.0):
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise DomainError("uniform requires finite ends with b > a")
        self.a, self.b = float(a), float(b)
        self.lower, self.upper = self.a, self.b

    def cdf(self, x):
        return _as_float(x, lambda v: np.clip((v - self.a) / (self.b - self.a), 0.0, 1.0))

    def pdf(self, x):
        return _as_float(x, lambda v: np.where((v >= self.a) & (v <= self.b),
                                               1.0 / (self.b - self.a), 0.0))

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: self.a + (self.b - self.a) * u)

    def mda(self):
        return MdaClass("weibull", gamma=1.0, r_upper=self.b)


class Beta(Distribution):
    def __init__(self, a, b):
        if not _positive_finite(a, b):
            raise DomainError("beta requires positive finite parameters")
        self.a, self.b = float(a), float(b)
        self.lower, self.upper = 0.0, 1.0

    def cdf(self, x):
        return _as_float(x, lambda v: sc.betainc(self.a, self.b, np.clip(v, 0.0, 1.0)))

    def pdf(self, x):
        lnb = sc.betaln(self.a, self.b)

        def f(v):
            inside = (v > 0) & (v < 1)
            vv = np.where(inside, v, 0.5)
            d = np.exp((self.a - 1) * np.log(vv) + (self.b - 1) * np.log1p(-vv) - lnb)
            return np.where(inside, d, 0.0)

        return _as_float(x, f)

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: sc.betaincinv(self.a, self.b, u))

    def mda(self):
        return MdaClass("weibull", gamma=self.b, r_upper=1.0)


class Gamma(Distribution):
    def __init__(self, shape, rate):
        if not _positive_finite(shape, rate):
            raise DomainError("gamma requires positive finite shape and rate")
        self.shape, self.rate = float(shape), float(rate)

    def cdf(self, x):
        return _as_float(x, lambda v: sc.gammainc(self.shape, self.rate * np.maximum(v, 0.0)))

    def sf(self, x):
        return _as_float(x, lambda v: sc.gammaincc(self.shape, self.rate * np.maximum(v, 0.0)))

    def pdf(self, x):
        lg = sc.gammaln(self.shape)

        def f(v):
            pos = v > 0
            vv = np.where(pos, v, 1.0)
            d = np.exp(self.shape * np.log(self.rate) + (self.shape - 1) * np.log(vv)
                       - self.rate * vv - lg)
            return np.where(pos, d, 0.0)

        return _as_float(x, f)

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: sc.gammaincinv(self.shape, u) / self.rate)

    def isf(self, s):
        return _as_float(_probabilities(s), lambda v: sc.gammainccinv(self.shape, v) / self.rate)

    def mda(self):
        # w(x) -> rate for x large; the gamma tail is exponential class L(rate)
        return MdaClass("gumbel", w=ScalingFunction.constant(self.rate))


class Exponential(Distribution):
    def __init__(self, rate=1.0):
        if not _positive_finite(rate):
            raise DomainError("exponential requires a positive finite rate")
        self.rate = float(rate)

    def cdf(self, x):
        return _as_float(x, lambda v: -np.expm1(-self.rate * np.maximum(v, 0.0)))

    def sf(self, x):
        return _as_float(x, lambda v: np.exp(-self.rate * np.maximum(v, 0.0)))

    def pdf(self, x):
        return _as_float(x, lambda v: np.where(v >= 0, self.rate * np.exp(-self.rate * np.maximum(v, 0.0)), 0.0))

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: -np.log1p(-u) / self.rate)

    def isf(self, s):
        return _as_float(_probabilities(s), lambda v: -np.log(v) / self.rate)

    def mda(self):
        return MdaClass("gumbel", w=ScalingFunction.constant(self.rate))


class Pareto(Distribution):
    """sf(x) = (x / xmin)**(-gamma) for x >= xmin."""

    def __init__(self, gamma_, xmin=1.0):
        if not _positive_finite(gamma_, xmin):
            raise DomainError("pareto requires positive finite index and xmin")
        self.gamma_, self.xmin = float(gamma_), float(xmin)
        self.lower = self.xmin

    def cdf(self, x):
        return _as_float(x, lambda v: np.where(v >= self.xmin,
                                               1.0 - (np.maximum(v, self.xmin) / self.xmin) ** (-self.gamma_),
                                               0.0))

    def sf(self, x):
        return _as_float(x, lambda v: np.where(v >= self.xmin,
                                               (np.maximum(v, self.xmin) / self.xmin) ** (-self.gamma_),
                                               1.0))

    def pdf(self, x):
        return _as_float(x, lambda v: np.where(
            v >= self.xmin,
            self.gamma_ / self.xmin * (np.maximum(v, self.xmin) / self.xmin) ** (-self.gamma_ - 1.0),
            0.0))

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: self.xmin * (1.0 - u) ** (-1.0 / self.gamma_))

    def isf(self, s):
        return _as_float(_probabilities(s), lambda v: self.xmin * v ** (-1.0 / self.gamma_))

    def mda(self):
        return MdaClass("frechet", gamma=self.gamma_)


class Rayleigh(Distribution):
    """sf(x) = exp(-x^2 / (2 sigma^2))."""

    def __init__(self, sigma=1.0):
        if not _positive_finite(sigma):
            raise DomainError("rayleigh requires a positive finite sigma")
        self.sigma = float(sigma)

    def cdf(self, x):
        return _as_float(x, lambda v: -np.expm1(-np.maximum(v, 0.0) ** 2 / (2 * self.sigma ** 2)))

    def sf(self, x):
        return _as_float(x, lambda v: np.exp(-np.maximum(v, 0.0) ** 2 / (2 * self.sigma ** 2)))

    def pdf(self, x):
        s2 = self.sigma ** 2
        return _as_float(x, lambda v: np.where(v >= 0, np.maximum(v, 0.0) / s2
                                               * np.exp(-np.maximum(v, 0.0) ** 2 / (2 * s2)), 0.0))

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: self.sigma * np.sqrt(-2.0 * np.log1p(-u)))

    def isf(self, s):
        return _as_float(_probabilities(s), lambda v: self.sigma * np.sqrt(-2.0 * np.log(v)))

    def mda(self):
        # pdf/sf = x / sigma^2, the power form with r = 1/(2 sigma^2), theta = 2
        return MdaClass("gumbel", w=ScalingFunction.power(1.0 / (2 * self.sigma ** 2), 2.0))


class Kotz(Distribution):
    """Kotz-type law: sf(x) = M x**N exp(-r x**theta) past the crossing point.

    The survivor equals 1 up to x0, the (largest) solution of
    M x**N exp(-r x**theta) = 1 on the decreasing branch; for M = 1, N = 0
    this is the exact Weibull law exp(-r x**theta).
    """

    def __init__(self, m, n_exp, r, theta):
        if not (_positive_finite(m, r, theta) and math.isfinite(n_exp)):
            raise DomainError("kotz requires finite M, r, theta > 0 and a finite N")
        self.m, self.n_exp = float(m), float(n_exp)
        self.r, self.theta = float(r), float(theta)
        self.x0 = self._crossing()
        self.lower = self.x0

    def _log_tail(self, x):
        """log M + N log x - r x**theta, the log of the tail function."""
        return math.log(self.m) + self.n_exp * np.log(x) - self.r * x ** self.theta

    def _crossing(self):
        if self.n_exp == 0.0:
            if self.m < 1:
                raise DomainError("kotz with M < 1 and N = 0 has an atom at 0")
            # numpy's scalar power, as in quantile(0) of a float
            return float(np.float64(math.log(self.m) / self.r) ** (1.0 / self.theta))
        # stationary point of the tail function
        if self.n_exp > 0:
            xs = (self.n_exp / (self.r * self.theta)) ** (1.0 / self.theta)
            if self._log_tail(xs) < 0:
                raise DomainError("kotz parameters never reach survivor level 1")
            lo = xs
        else:
            # decreasing for all x > 0; log tail -> +inf as x -> 0
            lo = 1e-12
            if self._log_tail(lo) < 0:
                raise DomainError("kotz parameters never reach survivor level 1")
        hi = max(2.0 * lo, 1.0)
        while self._log_tail(hi) > 0:
            hi *= 2.0
        # the root lies right of every x with a positive log tail
        return float(_bisect(lambda x, i: self._log_tail(x) > 0.0, np.array([lo]),
                             np.array([hi]), lambda h: 1e-14 + 8.9e-16 * np.abs(h))[0])

    def sf(self, x):
        def f(v):
            v = np.maximum(v, self.x0 if self.x0 > 0 else 0.0)
            with np.errstate(divide="ignore"):
                logs = np.where(v > 0,
                                math.log(self.m) + self.n_exp * np.log(np.maximum(v, 1e-300))
                                - self.r * v ** self.theta,
                                0.0)
            out = np.exp(np.minimum(logs, 0.0))
            return np.where(v <= self.x0, 1.0, out)

        return _as_float(x, f)

    def cdf(self, x):
        out = 1.0 - np.asarray(self.sf(x), dtype=float)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        def f(v):
            past = v > self.x0
            vv = np.where(past & (v > 0), v, 1.0)
            s = self.m * vv ** self.n_exp * np.exp(-self.r * vv ** self.theta)
            d = s * (self.r * self.theta * vv ** (self.theta - 1.0) - self.n_exp / vv)
            return np.where(past, np.maximum(d, 0.0), 0.0)

        return _as_float(x, f)

    def _tail_root(self, target):
        """The x past x0 with log sf(x) = target, for an array of targets in
        [-inf, 0] (x0 at 0, inf at -inf).  For N = 0 it is the closed form
        (-(target - log M)/r)**(1/theta), never below x0, which for M = 1 is
        the exact Weibull law's (-target/r)**(1/theta) bit for bit;
        otherwise bracket doubling, then bisection of all points at once to
        width 1e-13 + 8.9e-16 * |x|."""
        if self.n_exp == 0.0:
            out = (-(target - math.log(self.m)) / self.r) ** (1.0 / self.theta)
            out = np.where(out < self.x0, self.x0, out)  # an array power may round below x0
            return float(out) if out.ndim == 0 else out
        t = target.ravel()
        lo = np.where(t >= 0.0, self.x0, np.where(t == -np.inf, np.inf, np.nan))
        hi = lo.copy()
        up = np.flatnonzero(np.isfinite(t) & (t < 0.0))
        lo[up] = self.x0
        hi[up] = max(1.0, 2.0 * self.x0 + 1.0)

        def right_of(x, i):
            return self._log_tail(x) > t[i]

        while up.size:
            up = up[right_of(hi[up], up)]
            lo[up] = hi[up]
            hi[up] *= 2.0
        out = _bisect(right_of, lo, hi, lambda h: 1e-13 + 8.9e-16 * np.abs(h))
        return float(out[0]) if target.ndim == 0 else out.reshape(target.shape)

    def quantile(self, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._tail_root(np.log1p(-_probabilities(q, clamp=True)))

    def isf(self, s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._tail_root(np.log(_probabilities(s, clamp=True)))

    def mda(self):
        return MdaClass("gumbel", w=ScalingFunction.power(self.r, self.theta))


class PointMass(Distribution):
    def __init__(self, c):
        self.c = float(c)
        if not math.isfinite(self.c):
            raise DomainError("point mass requires a finite location")
        self.lower = self.upper = self.c

    def cdf(self, x):
        return _as_float(x, lambda v: np.where(v >= self.c, 1.0, 0.0))

    def quantile(self, q):
        return _as_float(_probabilities(q), lambda u: np.full(np.shape(u), self.c))

    def mda(self):
        # degenerate endpoint: treated as the gamma = 0 limit of the Weibull class
        return MdaClass("weibull", gamma=0.0, r_upper=self.c)


def _pchip_end(h0, h1, m0, m1):
    """The one-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_table(x, y):
    """Power-form rows of the monotone cubic through (x, y) on each piece
    [x_i, x_{i+1}], with s = v - x_i: a0, a1, a2, a3 of
    a0 + a1 s + a2 s**2 + a3 s**3, then b0, b1, b2 of its derivative
    b0 + b1 s + b2 s**2.

    The slopes are Fritsch-Butland's weighted harmonic means of the
    neighbouring secants, zero where the secants change sign or one is flat,
    and Moler's one-sided three-point rule at the two ends.  Every row is
    computed as scipy's PchipInterpolator and its derivative() compute it.
    The constant rows hold 0.0 + a, the first step of scipy's summation.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    a3, a2, a1 = t / h, (m - d[:-1]) / h - t, d[:-1]
    return np.array([0.0 + y[:-1], a1, a2, a3, 0.0 + a1, a2 * 2.0, a3 * 3.0])


def _power_sum(s, *a):
    """a[0] + a[1] s + a[2] s**2 (+ a[3] s**3) in the order scipy's PPoly
    sums a piece: term by term from the constant, s**3 as (s s) s.  The
    coefficients may broadcast against s."""
    out, z = a[0] + a[1] * s, s
    for ak in a[2:]:
        z = z * s
        out += ak * z
    return out


# the columns of a TabulatedCdf table row that hold the CDF's power form and
# the density's
_CDF, _PDF = (1, 2, 3, 4), (5, 6, 7)


class TabulatedCdf(Distribution):
    """CDF given on a strictly increasing grid, PCHIP-interpolated.

    The interpolant is a numpy PCHIP (`_pchip_table`) that reproduces scipy's
    PchipInterpolator bit for bit: v in [x_i, x_{i+1}) takes piece i, the
    last piece also holds grid[-1], and each piece sums its power form as
    scipy's PPoly does, ((a0 + a1 s) + a2 s**2) + a3 (s**2 s).  The monotone
    interpolant supplies the density analytically; a quantile is the root
    of one piece's cubic, found by safeguarded Newton.  Below the grid the
    CDF is 0, above it values[-1].  Every evaluation reads one piece table
    through `_lookup`.
    """

    def __init__(self, grid, values, tail_hint=None, rectify=False):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 4:
            raise DomainError("tabulated CDF needs at least 4 grid points")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise DomainError("tabulated CDF needs finite grid points and values")
        if np.any(np.diff(grid) <= 0):
            raise DomainError("tabulated grid must be strictly increasing")
        if rectify:
            values = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
        if np.any(np.diff(values) < 0) or values[0] < 0 or values[-1] > 1 + 1e-12:
            raise DomainError("tabulated CDF values must be nondecreasing in [0, 1]")
        if tail_hint not in (None, "gumbel", "frechet", "weibull"):
            raise DomainError(f"unknown tail hint {tail_hint!r}: "
                              "use gumbel, frechet or weibull")
        self.grid = grid
        self.values = np.clip(values, 0.0, 1.0)
        self.tail_hint = tail_hint
        self.lower = float(grid[0])
        self.upper = float(grid[-1])
        # one row x_i, a0..a3, b0..b2 per piece of _lookup, one piece per
        # interval [start, end) of self._knots (self._ends): below the grid,
        # the n - 1 cubics, grid[-1] itself (the CDF is values[-1] there, the
        # density the last cubic's) and above the grid; points beyond the
        # grid are clipped to self._span
        self._span = np.nextafter(grid[0], -np.inf), np.nextafter(grid[-1], np.inf)
        self._knots = np.append(grid, self._span[1])
        self._ends = np.r_[-np.inf, self._knots], np.r_[self._knots, np.inf]
        cubics = np.vstack([grid[:-1], _pchip_table(grid, self.values)]).T
        top = 0.0 + self.values[-1]
        self._table = np.ascontiguousarray(np.vstack([
            np.r_[self._span[0], np.zeros(7)], cubics,
            np.r_[cubics[-1, 0], top, 0.0, 0.0, 0.0, cubics[-1, 5:]],
            np.r_[self._span[1], top, np.zeros(6)]]))  # rows in C order for take

    def _lookup(self, x, *column_sets):
        """The power sums of each of ``column_sets`` of ``self._table`` (the
        CDF's 1-4, the density's 5-7) at x, from one lookup per point.  A row
        of a 2-D x that lies in one piece, as the nodes of a subinterval of
        the quadrature engine do, takes one lookup for the row."""
        v = np.asarray(x).clip(*self._span)  # np.clip's dispatch costs more on few points
        rows = v.ndim == 2
        i = np.searchsorted(self._knots, v[:, :1] if rows else v, "right")
        start, end = self._ends
        if rows and not ((v >= start.take(i)) & (v < end.take(i))).all():
            i = np.searchsorted(self._knots, v, "right")
        p = self._table.take(i, axis=0)
        s = v - p[..., 0]
        return [_power_sum(s, *(p[..., c] for c in columns)) for columns in column_sets]

    def cdf(self, x):
        return _as_float(x, lambda v: self._lookup(v, _CDF)[0])

    def pdf(self, x):
        return _as_float(x, lambda v: np.maximum(self._lookup(v, _PDF)[0], 0.0))

    def sf_pdf(self, x):
        """(sf(x), pdf(x)) for an array x from one lookup per point."""
        cdf, pdf = self._lookup(x, _CDF, _PDF)
        return 1.0 - cdf, np.maximum(pdf, 0.0)

    def quantile(self, q):
        """The x with cdf(x) = u for each probability u: grid[0] where
        u <= values[0], grid[-1] where u >= values[-1], and otherwise the root
        on piece k - 1 with values[k-1] < u <= values[k], so that a u on a
        flat run lands on the run's left knot (`_piece_roots`)."""
        q = _probabilities(q, clamp=True)
        u, v, g = q.ravel(), self.values, self.grid
        out = np.where(u <= v[0], g[0], g[-1])
        inside = np.flatnonzero((u > v[0]) & (u < v[-1]))
        if inside.size:
            u = u[inside]
            k = np.searchsorted(v, u, "left")
            out[inside] = self._piece_roots(k, u)[0]
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    def _piece_roots(self, k, u):
        """The x in [grid[k-1], grid[k]] where piece k - 1's cubic, summed as
        `_lookup` sums it, equals u, and the number of rounds taken.  A u
        equal to values[k] is the knot grid[k] itself, in no round.

        Otherwise safeguarded Newton on all points at once, from linear
        interpolation between the piece's knots.  On a piece whose slope a1
        at its left knot is 0 it starts from the larger of that and the root
        of the leading term a2 s**2 (a3 s**3 where a2 is 0 too), clipped into
        [0, h]: near such a double or triple root the linear start lies far
        below the root, and Newton from there overshoots the bracket, which
        then halves one bit a round.  Each round evaluates the cubic and its
        derivative at s and moves the bracket [lo, hi] (initially [0, h]) to
        s by the sign of cdf - u.  A step within 4 ulp of the current
        x = knot + s ends the point at s - step clipped into the bracket,
        which may be one of its ends; any other step is taken only if it
        lands strictly inside the bracket, else the bracket is halved.  A
        point also ends when its bracket holds no float between its ends."""
        g, v = self.grid, self.values
        out, live = g[k], np.flatnonzero(u != v[k])
        k, u = k[live], u[live]
        p = self._table.take(k, axis=0)  # row k of the table is piece k - 1
        s = (g[k] - p[:, 0]) * ((u - v[k - 1]) / (v[k] - v[k - 1]))
        lo, hi = np.zeros_like(s), g[k] - p[:, 0]
        rounds = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            a0, a1, a2, a3 = (p[:, c] for c in _CDF)
            flat = a1 == 0.0
            if flat.any():
                flat &= (a2 > 0.0) | ((a2 == 0.0) & (a3 > 0.0))
                lead = np.where(a2 > 0.0, np.sqrt((u - a0) / a2), np.cbrt((u - a0) / a3))
                s = np.where(flat, np.clip(np.maximum(lead, s), lo, hi), s)
            while live.size:
                rounds += 1
                f = _power_sum(s, *(p[:, c] for c in _CDF)) - u
                lo = np.where(f < 0.0, s, lo)
                hi = np.where(f < 0.0, hi, s)
                step = np.where(f == 0.0, 0.0, f / _power_sum(s, *(p[:, c] for c in _PDF)))
                new, mid = s - step, 0.5 * (lo + hi)
                near = np.abs(step) <= 4.0 * np.spacing(p[:, 0] + s)
                newton = (lo < new) & (new < hi)
                done = near | ~(newton | ((lo < mid) & (mid < hi)))
                s = np.where(near, np.clip(new, lo, hi), np.where(newton, new, mid))
                if done.any():
                    out[live[done]] = p[done, 0] + s[done]
                    live, s, u, lo, hi, p = (a[~done] for a in (live, s, u, lo, hi, p))
        return out, rounds

    def isf(self, s):
        return self.quantile(1.0 - _probabilities(s, clamp=True))

    def mda(self):
        return _classify_tabulated(self)

    def scaling_w(self):
        m = self.mda()
        if not m.is_gumbel:
            raise DomainError("tabulated law not classified as Gumbel")
        return ScalingFunction.custom(lambda x: self.pdf(x) / self.sf(x))


# ---------------------------------------------------------------------------
# MDA classification

def scaling_function_w(dist: Distribution) -> ScalingFunction:
    """Scaling function of a Gumbel-MDA law (von Mises ratio as fallback)."""
    return dist.scaling_w()


def mda_classify(dist: Distribution) -> MdaClass:
    """MDA label with index / scaling function; numeric diagnostic for tables."""
    return dist.mda()


def _linfit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, intercept, r2


_MIN_FIT_POINTS, _R2_FLOOR = 8, 0.99


def _classify_tabulated(tab: TabulatedCdf) -> MdaClass:
    """Tail diagnostic on the top two decades of probability of the grid.

    Fits the three candidate tail shapes by least squares and keeps the best
    one; when a declared hint is present only the hinted shape is fitted.
    An R-squared below _R2_FLOOR yields the ``unclassified`` outcome.
    """
    sf = 1.0 - tab.values
    x = tab.grid
    pos = sf > 0
    if pos.sum() < _MIN_FIT_POINTS:
        return MdaClass("unclassified", confident=False)
    s_lo = sf[pos].min()
    window = pos & (sf <= 100.0 * s_lo) & (x > 0)
    if window.sum() < _MIN_FIT_POINTS:
        window = pos & (x > 0)
        if window.sum() < _MIN_FIT_POINTS:
            return MdaClass("unclassified", confident=False)
    xs, ss = x[window], sf[window]

    hint = tab.tail_hint
    candidates = {}

    if hint in (None, "frechet"):
        slope, _, r2 = _linfit(np.log(xs), np.log(ss))
        if slope < 0:
            candidates["frechet"] = (r2, MdaClass("frechet", gamma=-slope, r_squared=r2))
    if hint in (None, "weibull"):
        r_up = float(tab.grid[-1])
        keep = xs < r_up
        if keep.sum() >= _MIN_FIT_POINTS:
            slope, _, r2 = _linfit(np.log(r_up - xs[keep]), np.log(ss[keep]))
            if slope > 0:
                candidates["weibull"] = (r2, MdaClass("weibull", gamma=slope,
                                                      r_upper=r_up, r_squared=r2))
    if hint in (None, "gumbel"):
        keep = ss < 1.0  # log(-log(sf)) needs sf < 1
        if keep.sum() >= _MIN_FIT_POINTS:
            slope, intercept, r2 = _linfit(np.log(xs[keep]), np.log(-np.log(ss[keep])))
            if slope > 0:
                w = ScalingFunction.power(math.exp(intercept), slope)
                candidates["gumbel"] = (r2, MdaClass("gumbel", w=w, r_squared=r2))

    if not candidates:
        return MdaClass("unclassified", confident=False)
    best = max(candidates.values(), key=lambda t: t[0])
    if best[0] < _R2_FLOOR:
        return MdaClass("unclassified", confident=False, r_squared=best[0])
    return best[1]


# ---------------------------------------------------------------------------
# JSON serialization

def _csv_body(fh, path, names):
    """A csv reader over ``fh`` positioned past the header, which must be
    ``names`` after any rows starting with '#'."""
    reader = csv.reader(iter(fh.readline, ""))
    header = next(reader, [])
    while header and header[0].startswith("#"):
        header = next(reader, [])
    if [h.strip().lower() for h in header[:2]] != list(names):
        raise DomainError(f"{path}: expected header '{','.join(names)}'")
    return reader


def _finite_pair(row):
    try:
        return math.isfinite(float(row[0])) and math.isfinite(float(row[1]))
    except (ValueError, IndexError):
        return False


def _load_body(fh, **options):
    """The first two columns of the rest of ``fh`` as an (n, 2) float64
    table, or None if numpy rejects a row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            return np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2,
                              quotechar='"', **options)
    except ValueError:
        return None


def read_csv_columns(path, names):
    """The two finite float64 columns of a CSV whose header, after any rows
    starting with '#', is ``names``.  Later rows starting with '#', blank
    rows and columns past the second are skipped.  A malformed row raises
    DomainError naming its line, and bytes that do not decode one naming
    the file.

    The body is read in one numpy pass with comments off, which accepts a
    subset of what the rules above allow and parses each number as
    ``float()`` does.  Only when numpy rejects the body or reads a
    non-finite value are the rows walked, to name the first one that breaks
    the rules; if none does, the body keeps to them in a form only
    ``float()`` reads (comment rows after the header, ``1_000``) and numpy
    reads it again through ``float()``.
    """
    try:
        with open(path, newline="") as fh:
            rows = _csv_body(fh, path, names)
            body = fh.tell()
            table = _load_body(fh, comments=None)
            if table is None or not np.isfinite(table).all():
                fh.seek(body)
                for row in rows:
                    if row and not row[0].startswith("#") and not _finite_pair(row):
                        raise DomainError(f"{path}: line {rows.line_num}: expected two finite "
                                          f"numbers, got {','.join(row)!r}")
                fh.seek(body)
                table = _load_body(fh, comments="#", converters=float)
                if table is None:
                    raise DomainError(f"{path}: a comment row holds a quoted field")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    first, second = table.T.copy()
    return first, second


def load_tabulated_csv(path, tail_hint=None):
    """Read a `x,cdf` CSV with strictly increasing x into a TabulatedCdf."""
    return TabulatedCdf(*read_csv_columns(path, ("x", "cdf")), tail_hint=tail_hint)


# each JSON family's class and (key, attribute) pairs in constructor order;
# the keys in _DEFAULTS may be left out
_FAMILIES = {
    "uniform": (Uniform, (("a", "a"), ("b", "b"))),
    "beta": (Beta, (("a", "a"), ("b", "b"))),
    "gamma": (Gamma, (("shape", "shape"), ("rate", "rate"))),
    "exponential": (Exponential, (("rate", "rate"),)),
    "pareto": (Pareto, (("gamma", "gamma_"), ("xmin", "xmin"))),
    "rayleigh": (Rayleigh, (("sigma", "sigma"),)),
    "kotz": (Kotz, (("M", "m"), ("N", "n_exp"), ("r", "r"), ("theta", "theta"))),
    "pointmass": (PointMass, (("c", "c"),)),
}
_DEFAULTS = {"xmin": 1.0, "sigma": 1.0}


def _finite_number(key, value):
    """A law file's ``value`` of ``key`` as a float: it must be a real
    number, not a bool, and finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise DomainError(f"law parameter {key!r} must be a finite number, got {value!r}")


def dist_from_json(obj, base_dir="."):
    """Build a distribution from its JSON object form (KeyError if a key is
    missing, DomainError naming the key if its value is not a finite number,
    or for a tabulated law, a path that is not a string)."""
    family = obj.get("family")
    if family == "tabulated":
        import os

        path = obj["path"]
        if not isinstance(path, str):
            raise DomainError(f"law parameter 'path' must be a string, got {path!r}")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_tabulated_csv(path, tail_hint=obj.get("tail_hint"))
    if not isinstance(family, str) or family not in _FAMILIES:
        raise DomainError(f"unknown distribution family: {family!r}")
    cls, fields = _FAMILIES[family]
    obj = {**_DEFAULTS, **obj}
    return cls(*(_finite_number(key, obj[key]) for key, _ in fields))


def dist_to_json(dist):
    for family, (cls, fields) in _FAMILIES.items():
        if isinstance(dist, cls):
            return {"family": family, **{key: getattr(dist, attr) for key, attr in fields}}
    raise DomainError(f"cannot serialize {type(dist).__name__}")
