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
]


# ---------------------------------------------------------------------------
# special functions

def ln_gamma(x):
    """log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("ln_gamma requires x > 0")
    out = sc.gammaln(x)
    return float(out) if out.ndim == 0 else out


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta: P(B_{a,b} <= x) for x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DomainError("beta parameters must be positive")
    xa = np.asarray(x, dtype=float)
    if np.any((xa < 0) | (xa > 1)):
        raise DomainError("reg_inc_beta requires x in [0, 1]")
    out = sc.betainc(a, b, xa)
    return float(out) if out.ndim == 0 else out


def beta_moment(alpha, beta, gamma):
    """E[B_{alpha,beta}^gamma] = Gamma(a+b)Gamma(a+g) / (Gamma(a)Gamma(a+b+g))."""
    if alpha <= 0 or beta <= 0:
        raise DomainError("beta parameters must be positive")
    if gamma < 0:
        raise DomainError("moment order must be nonnegative")
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
    """The w in sf(x + t/w(x)) / sf(x) -> exp(-t).

    Forms: ``constant`` (w == value), ``power`` (w(x) = r*theta*x**(theta-1))
    and ``von_mises`` (numeric hazard pdf/sf).
    """

    form: str
    value: float | None = None          # constant form
    r: float | None = None              # power form
    theta: float | None = None
    pdf: object = None                  # von_mises form: callables
    sf: object = None
    fn: object = None                   # custom form: direct callable

    @classmethod
    def constant(cls, value):
        return cls(form="constant", value=float(value))

    @classmethod
    def power(cls, r, theta):
        if theta == 1.0:
            return cls.constant(r)
        return cls(form="power", r=float(r), theta=float(theta))

    @classmethod
    def von_mises(cls, pdf, sf):
        return cls(form="von_mises", pdf=pdf, sf=sf)

    @classmethod
    def custom(cls, fn):
        return cls(form="custom", fn=fn)

    def __call__(self, x):
        if self.form == "constant":
            return self.value if np.isscalar(x) else np.full(np.shape(x), self.value)
        if self.form == "power":
            xa = np.asarray(x, dtype=float)
            out = self.r * self.theta * xa ** (self.theta - 1.0)
            return float(out) if out.ndim == 0 else out
        if self.form == "custom":
            return self.fn(x)
        num = self.pdf(x)
        den = self.sf(x)
        return num / den

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
        if self.r <= 0 or self.theta <= 0:
            raise DomainError("Weibull tail model requires r > 0 and theta > 0")

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
    out = fn(np.asarray(x, dtype=float))
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


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
        if not b > a:
            raise DomainError("uniform requires b > a")
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
        if a <= 0 or b <= 0:
            raise DomainError("beta requires positive parameters")
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
        if shape <= 0 or rate <= 0:
            raise DomainError("gamma requires positive shape and rate")
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
        if rate <= 0:
            raise DomainError("exponential requires positive rate")
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
        if gamma_ <= 0 or xmin <= 0:
            raise DomainError("pareto requires positive index and xmin")
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
        if sigma <= 0:
            raise DomainError("rayleigh requires positive sigma")
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
        if m <= 0 or r <= 0 or theta <= 0:
            raise DomainError("kotz requires M, r, theta > 0")
        self.m, self.n_exp = float(m), float(n_exp)
        self.r, self.theta = float(r), float(theta)
        self.x0 = self._crossing()
        self.lower = self.x0

    def _log_tail(self, x):
        """log M + N log x - r x**theta, the log of the tail function."""
        return math.log(self.m) + self.n_exp * np.log(x) - self.r * x ** self.theta

    def _crossing(self):
        if self.m == 1.0 and self.n_exp == 0.0:
            return 0.0
        # stationary point of the tail function
        if self.n_exp > 0:
            xs = (self.n_exp / (self.r * self.theta)) ** (1.0 / self.theta)
            if self._log_tail(xs) < 0:
                raise DomainError("kotz parameters never reach survivor level 1")
            lo = xs
        else:
            # decreasing for all x > 0; log tail -> +inf as x -> 0 when N<0 or M>1
            if self.n_exp == 0 and self.m < 1:
                raise DomainError("kotz with M < 1 and N = 0 has an atom at 0")
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
        """The x past x0 with log sf(x) = target, for an array of targets (x0
        where target >= 0, inf where it is -inf): bracket doubling, then
        bisection of all points at once to width 1e-13 + 8.9e-16 * |x|."""
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
        if self.m == 1.0 and self.n_exp == 0.0:
            return _as_float(_probabilities(q, clamp=True),
                             lambda u: (-np.log1p(-u) / self.r) ** (1.0 / self.theta))
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._tail_root(np.log1p(-_probabilities(q, clamp=True)))

    def isf(self, s):
        if self.m == 1.0 and self.n_exp == 0.0:
            return _as_float(_probabilities(s, clamp=True),
                             lambda v: (-np.log(v) / self.r) ** (1.0 / self.theta))
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

    def sample(self, n, seed, stream=0):
        if n < 1:
            raise DomainError("sample size must be >= 1")
        return np.full(n, self.c)

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


class TabulatedCdf(Distribution):
    """CDF given on a strictly increasing grid, PCHIP-interpolated.

    The interpolant is a numpy PCHIP (`_pchip_table`) that reproduces scipy's
    PchipInterpolator bit for bit: v in [x_i, x_{i+1}) takes piece i, the
    last piece also holds grid[-1], and each piece sums its power form as
    scipy's PPoly does, ((a0 + a1 s) + a2 s**2) + a3 (s**2 s).  The monotone
    interpolant supplies the density analytically; quantiles are found by
    bisection.  Below the grid the CDF is 0, above it is 1.
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
        self.grid = grid
        self.values = np.clip(values, 0.0, 1.0)
        self.tail_hint = tail_hint
        self.lower = float(grid[0])
        self.upper = float(grid[-1])
        # one row x_i, a0..a3, b0..b2 per piece of sf_pdf, one piece per
        # interval [start, end) of self._knots (self._ends): below the grid,
        # the n - 1 cubics, grid[-1] itself (the CDF is values[-1] there, the
        # density the last cubic's) and above the grid; points beyond the
        # grid are clipped to self._span
        self._span = np.nextafter(grid[0], -np.inf), np.nextafter(grid[-1], np.inf)
        self._knots = np.append(grid, self._span[1])
        self._ends = np.r_[-np.inf, self._knots], np.r_[self._knots, np.inf]
        cubics = np.vstack([grid[:-1], _pchip_table(grid, self.values)]).T
        top = 0.0 + self.values[-1]
        self._table = np.vstack([
            np.r_[self._span[0], np.zeros(7)], cubics,
            np.r_[cubics[-1, 0], top, 0.0, 0.0, 0.0, cubics[-1, 5:]],
            np.r_[self._span[1], top, np.zeros(6)]])
        self._cubics = self._table[1:-2]

    def _piece(self, v, columns):
        """(v - x_i, the cubics' ``columns`` at i) for the piece i holding
        each v in [grid[0], grid[-1]]: v in [x_i, x_{i+1}), the last piece
        closed."""
        p = self._cubics.take(np.searchsorted(self.grid[1:-1], v, "right"), axis=0)
        return v - p[..., 0], [p[..., c] for c in columns]

    def _interp(self, v):
        """The cubic at v in [grid[0], grid[-1]]."""
        s, a = self._piece(v, (1, 2, 3, 4))
        return _power_sum(s, *a)

    def _deriv(self, v):
        """The cubic's derivative at v in [grid[0], grid[-1]]."""
        s, b = self._piece(v, (5, 6, 7))
        return _power_sum(s, *b)

    def cdf(self, x):
        def f(v):
            out = self._interp(np.clip(v, self.grid[0], self.grid[-1]))
            out = np.where(v <= self.grid[0], self.values[0] * (v >= self.grid[0]), out)
            out = np.where(v >= self.grid[-1], self.values[-1], out)
            return np.where(v < self.grid[0], 0.0, out)

        return _as_float(x, f)

    def pdf(self, x):
        def f(v):
            inside = (v >= self.grid[0]) & (v <= self.grid[-1])
            out = self._deriv(np.clip(v, self.grid[0], self.grid[-1]))
            return np.where(inside, np.maximum(out, 0.0), 0.0)

        return _as_float(x, f)

    def sf_pdf(self, x):
        """(sf(x), pdf(x)) for an array x, equal to what sf and pdf return,
        from one lookup per point in the pieces of ``self._table``.  A row of
        a 2-D x that lies in one piece, as the nodes of a cell of
        kernel_integral_cells do, takes one lookup for the row."""
        v = np.clip(x, *self._span)
        rows = v.ndim == 2
        i = np.searchsorted(self._knots, v[:, :1] if rows else v, "right")
        start, end = self._ends
        if rows and not ((v >= start.take(i)) & (v < end.take(i))).all():
            i = np.searchsorted(self._knots, v, "right")
        p = self._table.take(i, axis=0)
        s = v - p[..., 0]
        a, b = [p[..., c] for c in (1, 2, 3, 4)], [p[..., c] for c in (5, 6, 7)]
        return 1.0 - _power_sum(s, *a), np.maximum(_power_sum(s, *b), 0.0)

    def quantile(self, q):
        """Bisection on the interpolant, all points at once, each until
        hi - lo <= 1e-10 * max(1, |hi|)."""
        q = _probabilities(q, clamp=True)
        # in increasing u the midpoints of every round increase too, which
        # makes their piece lookups cheap; each point bisects on its own
        order = np.argsort(q, axis=None)
        u = q.ravel()[order]
        end = np.where(u <= self.values[0], self.grid[0],
                       np.where(u >= self.values[-1], self.grid[-1], np.nan))
        inside = (u > self.values[0]) & (u < self.values[-1])
        out = np.empty(u.size)
        out[order] = _bisect(lambda x, i: self._interp(x) < u[i],
                             np.where(inside, self.grid[0], end),
                             np.where(inside, self.grid[-1], end),
                             lambda h: 1e-10 * np.maximum(1.0, np.abs(h)))
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    def isf(self, s):
        return self.quantile(1.0 - _probabilities(s, clamp=True))

    def mda(self):
        return _classify_tabulated(self)

    def scaling_w(self):
        m = self.mda()
        if not m.is_gumbel:
            raise DomainError("tabulated law not classified as Gumbel")
        return ScalingFunction.von_mises(self.pdf, self.sf)


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


def _classify_tabulated(tab: TabulatedCdf, min_points=8, r2_floor=0.99) -> MdaClass:
    """Tail diagnostic on the top two decades of probability of the grid.

    Fits the three candidate tail shapes by least squares and keeps the best
    one; when a declared hint is present only the hinted shape is fitted.
    An R-squared below the floor yields the ``unclassified`` outcome.
    """
    sf = 1.0 - tab.values
    x = tab.grid
    pos = sf > 0
    if pos.sum() < min_points:
        return MdaClass("unclassified", confident=False)
    s_lo = sf[pos].min()
    window = pos & (sf <= 100.0 * s_lo) & (x > 0)
    if window.sum() < min_points:
        window = pos & (x > 0)
        if window.sum() < min_points:
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
        if keep.sum() >= min_points:
            slope, _, r2 = _linfit(np.log(r_up - xs[keep]), np.log(ss[keep]))
            if slope > 0:
                candidates["weibull"] = (r2, MdaClass("weibull", gamma=slope,
                                                      r_upper=r_up, r_squared=r2))
    if hint in (None, "gumbel"):
        slope, intercept, r2 = _linfit(np.log(xs), np.log(-np.log(ss)))
        if slope > 0:
            w = ScalingFunction.power(math.exp(intercept), slope)
            candidates["gumbel"] = (r2, MdaClass("gumbel", w=w, r_squared=r2))

    if not candidates:
        return MdaClass("unclassified", confident=False)
    best = max(candidates.values(), key=lambda t: t[0])
    if best[0] < r2_floor:
        return MdaClass("unclassified", confident=False, r_squared=best[0])
    return best[1]


# ---------------------------------------------------------------------------
# JSON serialization

def read_csv_columns(path, names):
    """The two finite float columns of a CSV whose header, after any rows
    starting with '#', is ``names``; later rows starting with '#' are
    skipped too.  A malformed row raises DomainError naming its line."""
    first, second = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        while header and header[0].startswith("#"):
            header = next(reader, [])
        if [h.strip().lower() for h in header[:2]] != list(names):
            raise DomainError(f"{path}: expected header '{','.join(names)}'")
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                a, b = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                a = b = math.nan
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"{path}: line {reader.line_num}: expected two finite "
                                  f"numbers, got {','.join(row)!r}")
            first.append(a)
            second.append(b)
    return first, second


def load_tabulated_csv(path, tail_hint=None):
    """Read a `x,cdf` CSV with strictly increasing x into a TabulatedCdf."""
    return TabulatedCdf(*read_csv_columns(path, ("x", "cdf")), tail_hint=tail_hint)


_FACTORIES = {
    "uniform": lambda o: Uniform(o["a"], o["b"]),
    "beta": lambda o: Beta(o["a"], o["b"]),
    "gamma": lambda o: Gamma(o["shape"], o["rate"]),
    "exponential": lambda o: Exponential(o["rate"]),
    "pareto": lambda o: Pareto(o["gamma"], o.get("xmin", 1.0)),
    "rayleigh": lambda o: Rayleigh(o.get("sigma", 1.0)),
    "kotz": lambda o: Kotz(o["M"], o["N"], o["r"], o["theta"]),
    "pointmass": lambda o: PointMass(o["c"]),
}


def dist_from_json(obj, base_dir="."):
    """Build a distribution from its JSON object form."""
    family = obj.get("family")
    if family == "tabulated":
        import os

        path = obj["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_tabulated_csv(path, tail_hint=obj.get("tail_hint"))
    if family not in _FACTORIES:
        raise DomainError(f"unknown distribution family: {family!r}")
    return _FACTORIES[family](obj)


def dist_to_json(dist):
    if isinstance(dist, Uniform):
        return {"family": "uniform", "a": dist.a, "b": dist.b}
    if isinstance(dist, Beta):
        return {"family": "beta", "a": dist.a, "b": dist.b}
    if isinstance(dist, Gamma):
        return {"family": "gamma", "shape": dist.shape, "rate": dist.rate}
    if isinstance(dist, Exponential):
        return {"family": "exponential", "rate": dist.rate}
    if isinstance(dist, Pareto):
        return {"family": "pareto", "gamma": dist.gamma_, "xmin": dist.xmin}
    if isinstance(dist, Rayleigh):
        return {"family": "rayleigh", "sigma": dist.sigma}
    if isinstance(dist, Kotz):
        return {"family": "kotz", "M": dist.m, "N": dist.n_exp, "r": dist.r, "theta": dist.theta}
    if isinstance(dist, PointMass):
        return {"family": "pointmass", "c": dist.c}
    raise DomainError(f"cannot serialize {type(dist).__name__}")
