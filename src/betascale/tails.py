"""Predicted tail asymptotes of beta-scaled laws in all three extreme value
classes, with ratio diagnostics against direct quadrature.

For X = B_{alpha,beta} * Y the survivor of X near the upper endpoint is,
depending on the max-domain of Y,

    Gumbel:   K * (x w(x))**(-beta) * sf_Y(x),          K = G(a+b)/G(a)
    Frechet:  E[B**gamma] * sf_Y(x)
    Weibull:  K * x**beta * sf_Y(1 - x) near r_H = 1,   K = G(a+b)G(g+1)/(G(a)G(g+b+1))

(G = Gamma).  Each prediction is reported as a (prediction, direct, ratio)
triple; assertion thresholds live in the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .distributions import ScalingFunction, beta_moment
from .errors import DomainError
from .fractional import QuadratureConfig
from .scaling import forward_pdf, forward_sf

__all__ = [
    "TailPrediction",
    "predict_gumbel",
    "predict_frechet",
    "predict_weibull",
    "density_ratio",
    "general_multiplier_tail",
    "fractional_asymptote",
    "rapid_variation_profile",
    "power_transform_w",
    "biased_tail_asymptote",
    "max_stability_check",
]


@dataclass
class TailPrediction:
    constant: float
    shape: str
    prediction: float
    direct: float

    @property
    def ratio(self):
        if self.prediction == 0.0:
            return math.inf if self.direct > 0 else math.nan
        return self.direct / self.prediction


# tail values are tiny; accuracy must be relative, not absolute
_TAIL_CFG = QuadratureConfig(atol=1e-300, rtol=1e-9)


def _lngamma_ratio(num, den):
    return math.exp(sum(sc.gammaln(v) for v in num) - sum(sc.gammaln(v) for v in den))


def _classed(H, label, who):
    """H's max-domain class, which must be ``label``; the one class guard."""
    if label not in ("gumbel", "frechet", "weibull"):
        raise DomainError(f"unknown MDA {label!r}")
    m = H.mda()
    if m.label != label:
        raise DomainError(f"{who} requires a {label.capitalize()}-class law")
    return m


def _point(m, x):
    """Where a class-m law is evaluated for the tail argument x: x itself, or
    in the Weibull class r_H*(1 - x), the fraction x below the endpoint."""
    return m.r_upper * (1.0 - x) if m.label == "weibull" else x


def _prediction(H, alpha, beta, x, cfg, label):
    """The class-``label`` asymptote at x against direct quadrature."""
    m = _classed(H, label, f"predict_{label}")
    point = _point(m, x)
    sf = float(H.sf(point))
    if label == "gumbel":
        K = _lngamma_ratio([alpha + beta], [alpha])
        shape, pred = "(x*w(x))**(-beta) * sf(x)", K * (x * float(m.w(x))) ** (-beta) * sf
    elif label == "frechet":
        K = beta_moment(alpha, beta, m.gamma)
        shape, pred = "E[B**gamma] * sf(x)", K * sf
    else:
        K = _lngamma_ratio([alpha + beta, m.gamma + 1.0], [alpha, m.gamma + beta + 1.0])
        shape, pred = "x**beta * sf(r_H*(1-x))", K * x ** beta * sf
    direct = forward_sf(H, alpha, beta, point, mode="mixture", cfg=cfg or _TAIL_CFG)
    return TailPrediction(K, shape, pred, direct)


def predict_gumbel(H, alpha, beta, x, cfg=None):
    """Gumbel-class asymptote K*(x w(x))**(-beta)*sf(x) vs direct quadrature."""
    return _prediction(H, alpha, beta, x, cfg, "gumbel")


def predict_frechet(H, alpha, beta, x, cfg=None):
    """Frechet-class asymptote E[B**gamma]*sf(x) vs direct quadrature."""
    return _prediction(H, alpha, beta, x, cfg, "frechet")


def predict_weibull(H, alpha, beta, x_dist, cfg=None):
    """Weibull-class asymptote at distance x_dist below the upper endpoint.

    The law is evaluated at r_H*(1 - x_dist) internally, so x_dist is always
    a fraction of the (finite) endpoint.
    """
    return _prediction(H, alpha, beta, x_dist, cfg, "weibull")


def density_ratio(H, alpha, beta, x, mode, cfg=None):
    """Density-vs-survivor ratio of the scaled law and its limiting value.

    gumbel:  h(x) / (w(x) * sf(x))        -> 1
    frechet: x * h(x) / sf(x)             -> gamma
    weibull: x * h(1-x) / sf(1-x)         -> beta + gamma   (x below r_H = 1)
    """
    m = _classed(H, mode, "density_ratio")
    cfg = cfg or _TAIL_CFG
    point = _point(m, x)
    pdf = forward_pdf(H, alpha, beta, point, mode="mixture", cfg=cfg)
    sf = forward_sf(H, alpha, beta, point, mode="mixture", cfg=cfg)
    if mode == "gumbel":
        return pdf / (float(m.w(x)) * sf), 1.0
    if mode == "frechet":
        return x * pdf / sf, m.gamma
    return x * pdf / sf, beta + m.gamma


def general_multiplier_tail(H, descriptor, x, mda, kind):
    """Tail prediction for a general (non-beta) multiplier or kernel weight.

    ``descriptor`` carries the multiplier's endpoint behaviour: for kind "I"
    the survivor of the multiplier behaves like C*(1-u)**b near 1, for kind
    "J" its density behaves like c*(1-u)**(b-1); pass {"C": ..., "beta": ...}
    or {"c": ..., "beta": ...} accordingly.
    """
    b = float(descriptor["beta"])
    if b < 0 or (kind == "J" and b == 0):
        raise DomainError("descriptor exponent must be nonnegative, and positive for kind J")
    if mda not in ("gumbel", "weibull"):
        raise DomainError("general multiplier predictions cover gumbel and weibull; "
                          "use predict_frechet for the regularly varying case")
    m = _classed(H, mda, "general_multiplier_tail")
    sf = float(H.sf(_point(m, x)))
    if mda == "gumbel":
        wx = float(m.w(x))
        if kind == "I":
            C = float(descriptor["C"])
            return C * math.exp(sc.gammaln(1.0 + b)) * sf / (x * wx) ** b
        if kind == "J":
            c = float(descriptor["c"])
            return c * math.exp(sc.gammaln(b)) * sf / (x ** b * wx ** (b - 1.0))
    elif kind == "I":  # the Weibull class
        C = float(descriptor["C"])
        const = C * _lngamma_ratio([b + 1.0, m.gamma + 1.0], [b + m.gamma + 1.0])
        return const * x ** b * sf
    elif kind == "J":
        c = float(descriptor["c"])
        const = c * _lngamma_ratio([b, m.gamma + 1.0], [b + m.gamma])
        return const * x ** (b - 1.0) * sf
    raise DomainError(f"unknown kind {kind!r}")


def fractional_asymptote(H, beta, c, x, mda, kind):
    """Predicted value of (J_{beta,p_c} H)(x) or (I_beta p_c sf)(x) near the tail.

    Gumbel:  J ~ w(x)**(1-beta) * x**c * sf(x);      I ~ J / w(x)
    Frechet: J ~ g*G(g+1-b-c)/G(g+1-c) * x**(b+c-1) * sf(x)   (b+c < g+1)
             I ~ G(g-b-c)/G(g-c) * x**(b+c) * sf(x)           (b+c < g)
    Weibull: at distance x below r_H = 1,
             J ~ G(g+1)/G(b+g) * x**(b-1) * sf(1-x)
             I ~ G(g+1)/G(b+g+1) * x**b * sf(1-x)
    """
    if beta <= 0:
        raise DomainError("fractional order must be positive")
    m = _classed(H, mda, "fractional_asymptote")
    g = m.gamma
    sf = float(H.sf(_point(m, x)))
    if mda == "gumbel":
        wx = float(m.w(x))
        j = wx ** (1.0 - beta) * x ** c * sf
        if kind == "J":
            return j
        if kind == "I":
            return j / wx
    elif mda == "frechet":
        if kind == "J":
            if beta + c >= g + 1.0:
                raise DomainError("requires beta + c < gamma + 1")
            const = g * _lngamma_ratio([g + 1.0 - beta - c], [g + 1.0 - c])
            return const * x ** (beta + c - 1.0) * sf
        if kind == "I":
            if beta + c >= g:
                raise DomainError("requires beta + c < gamma")
            const = _lngamma_ratio([g - beta - c], [g - c])
            return const * x ** (beta + c) * sf
    elif kind == "J":  # the Weibull class
        const = _lngamma_ratio([g + 1.0], [beta + g])
        return const * x ** (beta - 1.0) * sf
    elif kind == "I":
        const = _lngamma_ratio([g + 1.0], [beta + g + 1.0])
        return const * x ** beta * sf
    raise DomainError(f"unknown kind {kind!r}")


def rapid_variation_profile(H, w, mu, c, x_grid):
    """(x w(x))**mu * sf(c x)/sf(x) along x_grid; tends to 0 for rapid tails."""
    if mu < 0:
        raise DomainError("mu must be nonnegative")
    if c <= 1.0:
        raise DomainError("c must exceed 1")
    if math.isfinite(H.upper):
        raise DomainError("rapid variation profile needs an infinite endpoint")
    x = np.asarray(x_grid, dtype=float)
    sf = np.asarray(H.sf(x), dtype=float)
    if np.any(sf == 0.0):
        raise DomainError("rapid variation profile needs sf(x) > 0 on x_grid")
    wx = 1.0 if w is None else np.asarray(w(x), dtype=float)
    return (x * wx) ** mu * np.asarray(H.sf(c * x), dtype=float) / sf


def power_transform_w(w: ScalingFunction, p) -> ScalingFunction:
    """Scaling function of X**p given the scaling function of X.

    w_p(x) = (1/p) * x**(1/p - 1) * w(x**(1/p)); power forms stay power
    forms with the exponent divided by p.
    """
    p = float(p)
    if p <= 0:
        raise DomainError("power must be positive")
    if p == 1.0:
        return w
    if w.form == "constant":
        return ScalingFunction.power(w.value, 1.0 / p)
    if w.form == "power":
        return ScalingFunction.power(w.r, w.theta / p)

    def fn(x):
        xa = np.asarray(x, dtype=float)
        root = xa ** (1.0 / p)
        out = root / (p * xa) * np.asarray(w(root), dtype=float)
        return float(out) if out.ndim == 0 else out

    return ScalingFunction.custom(fn)


def biased_tail_asymptote(H, q, c, x, kind):
    """Tail of the order-q stationary-excess or size-biased companion of H.

    stationary_excess: c * x**(q-1) * sf(x) / w(x)
    size_biased:       c * x**q * sf(x)
    """
    if c <= 0:
        raise DomainError("proportionality constant must be positive")
    if kind == "size_biased":
        return c * x ** q * float(H.sf(x))
    if kind == "stationary_excess":
        w = H.scaling_w()
        return c * x ** (q - 1.0) * float(H.sf(x)) / float(w(x))
    raise DomainError(f"unknown kind {kind!r}")


def max_stability_check(H, n, t_grid=None):
    """Sup distance between the law of the normalized sample maximum and its
    extreme value limit over t_grid."""
    m = H.mda()
    if m.label == "unclassified":
        raise DomainError("unclassified law has no extreme value limit")
    q = float(H.quantile(1.0 - 1.0 / n))
    t = None if t_grid is None else np.asarray(t_grid, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if m.is_gumbel:
            b_n, a_n = q, 1.0 / float(m.w(q))
            t = np.linspace(-2.0, 6.0, 81) if t is None else t
            limit = np.exp(-np.exp(-t))
        elif m.label == "frechet":
            b_n, a_n = 0.0, q
            t = np.linspace(0.1, 8.0, 80) if t is None else t
            limit = np.where(t > 0, np.exp(-t ** -m.gamma), 0.0)
        else:
            b_n, a_n = m.r_upper, m.r_upper - q
            t = np.linspace(-6.0, -0.05, 80) if t is None else t
            limit = np.where(t < 0, np.exp(-(-t) ** m.gamma), 1.0)
        if not a_n > 0:
            # a degenerate law: the normalised maximum is a constant
            raise DomainError(f"normalising scale a_n = {a_n} is not positive, "
                              "so the maximum has no extreme value limit")
        # a zero cdf gives log 0 = -inf and a zero n-th power
        fx = np.asarray(H.cdf(a_n * t + b_n), dtype=float)
        return float(np.max(np.abs(np.exp(n * np.log(fx)) - limit), initial=0.0))
