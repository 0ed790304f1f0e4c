"""Bivariate elliptical vectors: sampling, exact conditionals, and the
Gaussian conditional approximation.

The pair is (U, V) = (S1, rho*S1 + sqrt(1-rho^2)*S2) with (S1, S2) a radius
R from the radial law times a uniform direction on the circle.  Conditioning
on U — either at a point or on an exceedance — the standardized variable
sqrt(w(x)/x) * (V - rho*x) / sqrt(1-rho^2) approaches a standard normal when
the radial law has a Gumbel-type tail with scaling function w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .distributions import Distribution, PointMass, make_rng
from .errors import DomainError, NoDensityError, NumericError
from .fractional import QuadratureConfig, _gauss_kronrod, _quad_on_access, measure_knots

__all__ = [
    "EllipticalModel",
    "sample_elliptical",
    "conditional_density_point",
    "conditional_sf_exceed",
    "gaussian_approx_sf",
    "convergence_diagnostic",
    "DEFAULT_T_GRID",
]

__getattr__ = _quad_on_access(globals())

DEFAULT_T_GRID = np.linspace(-3.0, 3.0, 61)


@dataclass
class EllipticalModel:
    rho: float
    radial: Distribution

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise DomainError("correlation must lie in (-1, 1)")
        if self.radial.lower < 0:
            raise DomainError("radial law must live on [0, inf)")

    def scaling_w(self):
        return self.radial.scaling_w()


def sample_elliptical(m: EllipticalModel, n, seed, stream=0):
    """n i.i.d. (u, v) pairs: radius from the radial law, angle uniform."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    rng = make_rng(seed, stream)
    r = np.asarray(m.radial.quantile(rng.random(n)), dtype=float)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    s1 = r * np.cos(phi)
    s2 = r * np.sin(phi)
    u = s1
    v = m.rho * s1 + math.sqrt(1.0 - m.rho ** 2) * s2
    return np.column_stack([u, v])


# ---------------------------------------------------------------------------
# point conditioning

def _h2(m: EllipticalModel, z):
    """Density of R**2 at z (z > 0), for a scalar or an array."""
    rz = np.sqrt(z)
    return np.asarray(m.radial.pdf(rz), dtype=float) / (2.0 * rz)


def _integral(integrand, lo, hi, ends, cfg, x, what):
    """int_lo^hi of a vectorized integrand (hi may be inf) with the abscissae
    ``ends`` inside (lo, hi) as piece ends, by the adaptive engine at cfg's
    own tolerances, checked by cfg.check_points as ``what`` at x."""
    cuts = np.array([lo] + sorted({e for e in ends if lo < e < hi}) + [hi])
    val, err = _gauss_kronrod(lambda _, t: integrand(t), np.zeros(cuts.size - 1, dtype=int),
                              cuts[:-1], cuts[1:], 1, cfg.atol, cfg.rtol, cfg.limit)
    cfg.check_points(x, val, err, what)
    return float(val[0])


def _point_normalizer(m: EllipticalModel, x, cfg):
    """int_0^inf h2(s + y) y**(-1/2) dy at s = x**2, computed as
    2 int_0^inf h2(s + u^2) du."""
    s = x * x
    r_up = m.radial.upper
    u_up = math.inf if not math.isfinite(r_up) else math.sqrt(max(r_up ** 2 - s, 0.0))
    if u_up == 0.0:
        raise DomainError("conditioning level at or above the radial endpoint")
    # the radial law's support ends are piece ends in u
    ends = [math.sqrt(k ** 2 - s) for k in measure_knots(m.radial) if k ** 2 > s]
    val = 2.0 * _integral(lambda u: _h2(m, s + u * u), 0.0, u_up, ends, cfg, x,
                          "conditional normalizer")
    if val <= 0.0:
        raise NumericError("conditional normalizer vanished", estimate=val)
    return val


def conditional_density_point(m: EllipticalModel, x, t, w=None, cfg=None):
    """Density at t of sqrt(w(x)/x) * (V - rho*x)/sqrt(1-rho^2) given U = x.

    The conditioned variable is exactly S2 given S1 = x, so the correlation
    drops out; w defaults to the radial law's scaling function.  For a
    Rayleigh radial this is the standard normal density identically.
    """
    if x <= 0:
        raise DomainError("conditioning level must be positive")
    if isinstance(m.radial, PointMass):
        raise NoDensityError("point-mass radial has no conditional density")
    cfg = cfg or QuadratureConfig(atol=1e-300, rtol=1e-9)
    w = w or m.scaling_w()
    s = x * x
    c2 = float(w(x)) / x          # c(x)**2 with c(x) = sqrt(w(x)/x)
    if c2 <= 0:
        raise DomainError("scaling function must be positive at x")
    norm = _point_normalizer(m, x, cfg)
    t = np.asarray(t, dtype=float)
    z = s + t * t / c2
    dens = _h2(m, z) / (math.sqrt(c2) * norm)
    if math.isfinite(m.radial.upper):
        dens = np.where(z >= m.radial.upper ** 2, 0.0, dens)
    return float(dens) if dens.ndim == 0 else dens


# ---------------------------------------------------------------------------
# exceedance conditioning

def _arc_overlap(d, a, b):
    """Length of the intersection of two circular arcs with half-widths a, b
    (arrays) whose centers are d apart (d in [0, pi])."""
    near = np.maximum(0.0, a + b - d)
    far = np.maximum(0.0, a + b - (2.0 * math.pi - d))
    return np.minimum(np.minimum(2.0 * a, 2.0 * b), near + far)


def _half_widths(level, r):
    """Half-widths of the angle arcs {phi: r*cos(phi) > level} over an array
    of radii."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.arccos(np.clip(level / r, -1.0, 1.0))
    return np.where(r > 0.0, a, math.pi if level < 0 else 0.0)


def _importance_draws(m: EllipticalModel, x, n, rng):
    """(r, a, v): n radii drawn from R | R > x, the half-widths a of their
    arcs {phi: r*cos(phi) > x}, and V at an angle uniform inside each arc.
    A draw stands for mass proportional to a; draws with an empty arc are
    dropped."""
    sx = float(m.radial.sf(x))
    if sx <= 0.0:
        raise DomainError("conditioning event has probability below floating-point range")
    # R | R > x on the survivor scale: sf(R) uniform on (0, sf(x)).  Inverting
    # the cdf instead would collapse once sf(x) drops under machine epsilon.
    u = rng.random(n)
    u = np.where(u == 0.0, np.nextafter(0.0, 1.0), u)
    r = np.asarray(m.radial.isf(sx * u), dtype=float)
    a = _half_widths(x, r)
    ok = a > 0
    r, a = r[ok], a[ok]
    if r.size == 0:
        raise NumericError("no usable radii in importance sample; lower x")
    phi = (2.0 * rng.random(r.size) - 1.0) * a
    v = r * (m.rho * np.cos(phi) + math.sqrt(1.0 - m.rho ** 2) * np.sin(phi))
    return r, a, v


def _arc_integral(m: EllipticalModel, x, arc, ends, cfg, what):
    """int of arc(r) * f_R(r) over r > max(x, 0), with the radii ``ends`` and
    the radial law's support ends as piece ends; None when no radius
    exceeds x."""
    if max(x, 0.0) >= m.radial.upper:
        return None
    return _integral(lambda r: arc(r) * np.asarray(m.radial.pdf(r), dtype=float), max(x, 0.0),
                     m.radial.upper, list(ends) + measure_knots(m.radial), cfg, x, what)


def _arc_mass(m: EllipticalModel, x, cfg):
    """2*pi * P(U > x): the integral of 2 a(r) f_R(r) over r > x, with a(r)
    the half-width of the arc {phi: r*cos(phi) > x}; None when no radius
    exceeds x.  The kink of a(r) at r = |x| is a piece end."""
    if isinstance(m.radial, PointMass):
        mass = 2.0 * float(_half_widths(x, m.radial.c))
        return mass if mass > 0.0 else None
    return _arc_integral(m, x, lambda r: 2.0 * _half_widths(x, r), (abs(x),), cfg, "arc mass")


def _exceed_quadrature(m: EllipticalModel, x, y, cfg):
    phi0 = math.acos(m.rho)

    def joint_arc(r):
        return _arc_overlap(phi0, _half_widths(x, r), _half_widths(y, r))

    den = _arc_mass(m, x, cfg)
    if den is None:
        raise DomainError("conditioning event has probability zero")
    if isinstance(m.radial, PointMass):
        return float(joint_arc(m.radial.c)) / den
    num = _arc_integral(m, x, joint_arc, (abs(x), abs(y)), cfg, "joint arc mass")
    if den <= 0.0 or den < 1e-280:
        raise NumericError(
            "conditioning probability vanished numerically; lower x", estimate=den)
    return min(max(num / den, 0.0), 1.0)


def _exceed_montecarlo(m: EllipticalModel, x, y, n, seed):
    """Monte Carlo estimate; switches to radius-importance sampling when the
    conditioning probability is too small for plain rejection."""
    p_exceed = (_arc_mass(m, x, QuadratureConfig(atol=1e-300, rtol=1e-9)) or 0.0) / (2.0 * math.pi)
    if p_exceed >= 1e-4:
        pairs = sample_elliptical(m, n, seed)
        keep = pairs[:, 0] > x
        kept = int(keep.sum())
        if kept == 0:
            raise NumericError("no exceedances in the sample; increase n or lower x")
        est = float(np.mean(pairs[keep, 1] > y))
        se = math.sqrt(max(est * (1 - est), 1e-12) / kept)
        return est, se
    # importance: draw R | R > x, then the angle uniformly inside its arc
    _, a, v = _importance_draws(m, x, n, make_rng(seed, stream=1))
    # each draw represents mass proportional to its arc width a
    hit = v > y
    den = float(np.sum(a))
    est = float(np.sum(a * hit)) / den
    # self-normalised weights w = a/den: var = sum w**2 (1{v > y} - est)**2
    se = math.sqrt(max(float(np.sum((a / den) ** 2 * (hit - est) ** 2)), 1e-16))
    return est, se


def conditional_sf_exceed(m: EllipticalModel, x, y, method="quadrature",
                          n=100_000, seed=0, cfg=None):
    """P(V > y | U > x), by angular-arc quadrature or Monte Carlo.

    The Monte Carlo path returns only the estimate; its standard error is in
    reach via the private helper when needed by diagnostics.
    """
    cfg = cfg or QuadratureConfig(atol=1e-300, rtol=1e-9)
    if method == "quadrature":
        return _exceed_quadrature(m, x, y, cfg)
    if method == "montecarlo":
        est, _ = _exceed_montecarlo(m, x, y, n, seed)
        return est
    raise DomainError(f"unknown method {method!r}")


def gaussian_approx_sf(m: EllipticalModel, x, y, w=None):
    """Gaussian tail approximation Phi_bar((y - rho*x) * c(x) / sqrt(1-rho^2))
    with c(x) = sqrt(w(x)/x)."""
    if x <= 0:
        raise DomainError("conditioning level must be positive")
    w = w or m.scaling_w()
    cx = math.sqrt(float(w(x)) / x)
    z = (y - m.rho * x) * cx / math.sqrt(1.0 - m.rho ** 2)
    return float(sc.ndtr(-z))


def convergence_diagnostic(m: EllipticalModel, x_grid, t_grid=None,
                           n=100_000, seed=0, w=None):
    """Sup-distance to the standard normal at each conditioning level.

    Returns (exceed_sup, point_sup): the Monte-Carlo CDF distance for the
    exceedance-conditioned standardized variable, and the quadrature CDF
    distance for the point-conditioned density.
    """
    if isinstance(m.radial, PointMass):
        raise NoDensityError("diagnostic needs an absolutely continuous radial law")
    w = w or m.scaling_w()
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    rho_c = math.sqrt(1.0 - m.rho ** 2)
    exceed_sup, point_sup = [], []
    for ix, x in enumerate(np.asarray(x_grid, dtype=float)):
        cx = math.sqrt(float(w(x)) / x)
        # exceedance side: weighted sample of V given U > x
        _, a, v = _importance_draws(m, x, n, make_rng(seed, stream=100 + ix))
        z = cx * (v - m.rho * x) / rho_c
        order = np.argsort(z)
        z_sorted = z[order]
        cw = np.concatenate(([0.0], np.cumsum(a[order])))   # weight of z <= t
        emp = cw[np.searchsorted(z_sorted, t_grid, side="right")] / cw[-1]
        sup = float(np.max(np.abs(emp - sc.ndtr(t_grid)), initial=0.0))
        exceed_sup.append(sup)
        # point side: integrate the exact conditional density
        dens = conditional_density_point(m, x, t_grid, w=w)
        # CDF at t_grid by trapezoid from the left edge, anchored at Phi(t_0)
        cdf = float(sc.ndtr(t_grid[0])) + np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t_grid))])
        point_sup.append(float(np.max(np.abs(cdf - sc.ndtr(t_grid)))))
    return np.array(exceed_sup), np.array(point_sup)
