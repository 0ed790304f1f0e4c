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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .distributions import Distribution, PointMass, make_rng
from .errors import DomainError, NoDensityError, NumericError
from .fractional import _RELATIVE_CFG, _kernel_integral, _quad_on_access, measure_knots

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


def _check_sample_size(n):
    """n must be an integer >= 1 (numbers.Integral, not a bool)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"sample size must be >= 1 and an integer, got {n!r}")


def sample_elliptical(m: EllipticalModel, n, seed, stream=0):
    """n i.i.d. (u, v) pairs: radius from the radial law, angle uniform;
    n is an integer >= 1."""
    _check_sample_size(n)
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


def _point_normalizer(m: EllipticalModel, x, cfg):
    """int_0^inf h2(s + y) y**(-1/2) dy at s = x**2, computed as
    2 int_0^inf h2(s + u^2) du, the order-1 kernel integral from u = 0."""
    s = x * x
    r_up = m.radial.upper
    u_up = math.inf if not math.isfinite(r_up) else math.sqrt(max(r_up ** 2 - s, 0.0))
    if u_up == 0.0:
        raise DomainError("conditioning level at or above the radial endpoint")
    # the radial law's support ends are piece ends in u
    ends = [math.sqrt(k ** 2 - s) for k in measure_knots(m.radial) if k ** 2 > s]
    val = 2.0 * float(_kernel_integral(lambda u: _h2(m, s + u * u), ends, 1.0, np.zeros(1),
                                       u_up, cfg, f"conditional normalizer given U = {x}")[0])
    if val <= 0.0:
        raise NumericError("conditional normalizer vanished", estimate=val)
    return val


def conditional_density_point(m: EllipticalModel, x, t, w=None, cfg=None):
    """Density at t of sqrt(w(x)/x) * (V - rho*x)/sqrt(1-rho^2) given U = x.

    The conditioned variable is exactly S2 given S1 = x, so the correlation
    drops out; w defaults to the radial law's scaling function.  For a
    Rayleigh radial this is the standard normal density identically.
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError("conditioning level must be positive and finite")
    if isinstance(m.radial, PointMass):
        raise NoDensityError("point-mass radial has no conditional density")
    cfg = cfg or _RELATIVE_CFG
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
    """Half-widths arccos(clip(level/r, -1, 1)) of the angle arcs
    {phi: r*cos(phi) > level}, with pi (level < 0) or 0 where r is not
    positive: an array for an array of radii, a float for a scalar r."""
    r = np.asarray(r, dtype=float)
    a = np.empty_like(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(level, r, out=a)
        np.clip(a, -1.0, 1.0, out=a)
        np.arccos(a, out=a)
    a[~(r > 0.0)] = math.pi if level < 0 else 0.0
    return float(a) if a.ndim == 0 else a


def _importance_draws(m: EllipticalModel, x, n, rng):
    """(r, a, v): n radii drawn from R | R > x, the half-widths a of their
    arcs {phi: r*cos(phi) > x}, and V at an angle uniform inside each arc.
    A draw stands for mass proportional to a; draws with an empty arc are
    dropped.  The stream is all n uniforms for the radii, then one angle
    uniform per kept radius.  V = r*sin(phi + asin(rho)), which equals
    r*(rho*cos(phi) + sqrt(1-rho^2)*sin(phi)) as cos(asin(rho)) =
    sqrt(1-rho^2): one sine a draw, and the passes over u, phi and v work
    in place."""
    _check_sample_size(n)
    sx = float(m.radial.sf(x))
    if sx <= 0.0:
        raise DomainError("conditioning event has probability below floating-point range")
    # R | R > x on the survivor scale: sf(R) uniform on (0, sf(x)).  Inverting
    # the cdf instead would collapse once sf(x) drops under machine epsilon.
    # A zero uniform becomes the least positive double: the draws are
    # multiples of 2**-53, so the maximum changes nothing else.
    u = rng.random(n)
    np.maximum(u, np.nextafter(0.0, 1.0), out=u)
    u *= sx
    r = np.asarray(m.radial.isf(u), dtype=float)
    a = _half_widths(x, r)
    ok = a > 0
    if np.count_nonzero(ok) < a.size:
        r, a = r[ok], a[ok]
    if r.size == 0:
        raise NumericError("no usable radii in importance sample; lower x")
    v = rng.random(r.size)
    v *= 2.0
    v -= 1.0
    v *= a                       # the angle phi, uniform on (-a, a)
    v += math.asin(m.rho)
    np.sin(v, out=v)
    v *= r
    return r, a, v


def _arc_integral(m: EllipticalModel, x, arc, ends, cfg, what):
    """int of arc(r) * f_R(r) over r > max(x, 0), with the radii ``ends`` and
    the radial law's support ends as piece ends, checked as ``what`` given
    U > x; None when no radius exceeds x."""
    if max(x, 0.0) >= m.radial.upper:
        return None
    return float(_kernel_integral(lambda r: arc(r) * np.asarray(m.radial.pdf(r), dtype=float),
                                  [*ends, *measure_knots(m.radial)], 1.0, np.array([max(x, 0.0)]),
                                  m.radial.upper, cfg, f"{what} given U > {x}")[0])


def _exceed_quadrature(m: EllipticalModel, x, y, cfg):
    """P(V > y | U > x) as the joint arc mass over the arc mass 2*pi*P(U > x):
    integrals of the arcs' overlap and of 2 a(r) against f_R(r) over r > x,
    with a(r) the half-width of the arc {phi: r*cos(phi) > x}.  The kinks at
    r = |x| and r = |y| are piece ends."""
    phi0 = math.acos(m.rho)

    def joint_arc(r):
        return _arc_overlap(phi0, _half_widths(x, r), _half_widths(y, r))

    if isinstance(m.radial, PointMass):
        den = 2.0 * _half_widths(x, m.radial.c)
        if den == 0.0:
            raise DomainError("conditioning event has probability zero")
        return float(joint_arc(m.radial.c)) / den
    den = _arc_integral(m, x, lambda r: 2.0 * _half_widths(x, r), (abs(x),), cfg, "arc mass")
    if den is None:
        raise DomainError("conditioning event has probability zero")
    if den < 1e-280:
        raise NumericError(
            "conditioning probability vanished numerically; lower x", estimate=den)
    num = _arc_integral(m, x, joint_arc, (abs(x), abs(y)), cfg, "joint arc mass")
    return min(max(num / den, 0.0), 1.0)


def _exceed_sample(m: EllipticalModel, x, y, n, seed):
    """(estimate, a, hit): P(V > y | U > x) from n importance draws, with
    the draws' arc half-widths a and whether each V exceeds y."""
    _, a, v = _importance_draws(m, x, n, make_rng(seed, stream=1))
    hit = v > y
    return float(np.sum(a * hit)) / float(np.sum(a)), a, hit


def _exceed_montecarlo(m: EllipticalModel, x, y, n, seed):
    """(estimate, standard error) of P(V > y | U > x) from n importance
    draws: R | R > x, each weighted by its arc half-width, the angle uniform
    inside the arc.  Valid at every x: below 0 the radii are unconditioned."""
    est, a, hit = _exceed_sample(m, x, y, n, seed)
    # self-normalised weights w = a/sum(a): var = sum w**2 (1{v > y} - est)**2
    se = math.sqrt(max(float(np.sum((a / float(np.sum(a))) ** 2 * (hit - est) ** 2)), 1e-16))
    return est, se


def conditional_sf_exceed(m: EllipticalModel, x, y, method="quadrature",
                          n=100_000, seed=0, cfg=None):
    """P(V > y | U > x), by angular-arc quadrature or Monte Carlo.

    The Monte Carlo path is one importance sampler at every x: n radii
    from R | R > x, n an integer >= 1, each weighted by its arc half-width
    arccos(x/R) (pi for R <= -x), the angle uniform inside the arc.  It
    forms only the estimate; ``_exceed_montecarlo`` also forms the
    self-normalised standard error.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("conditioning level and threshold must be finite")
    cfg = cfg or _RELATIVE_CFG
    if method == "quadrature":
        return _exceed_quadrature(m, x, y, cfg)
    if method == "montecarlo":
        return _exceed_sample(m, x, y, n, seed)[0]
    raise DomainError(f"unknown method {method!r}")


def gaussian_approx_sf(m: EllipticalModel, x, y, w=None):
    """Gaussian tail approximation Phi_bar((y - rho*x) * c(x) / sqrt(1-rho^2))
    with c(x) = sqrt(w(x)/x)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("conditioning level and threshold must be finite")
    if x <= 0:
        raise DomainError("conditioning level must be positive")
    w = w or m.scaling_w()
    cx = math.sqrt(float(w(x)) / x)
    z = (y - m.rho * x) * cx / math.sqrt(1.0 - m.rho ** 2)
    return float(sc.ndtr(-z))


def _grid_bins(t_grid, z):
    """Bin index k of each z over a strictly increasing grid, the one with
    t_{k-1} < z <= t_k: 0 at or below t_0, len(t_grid) above its end and for
    a NaN z.  A guess from the grid's span, then moved one bin at a time
    until no index moves, which is exact on any increasing grid."""
    size = t_grid.size
    # bin k is (lo[k], hi[k]]; lo[0] is NaN, which no z moves below
    lo = np.concatenate(([math.nan], t_grid))
    hi = np.concatenate((t_grid, [math.inf]))
    with np.errstate(all="ignore"):       # the guess may overflow; the moves make it exact
        g = z - t_grid[0]
        if size > 1:
            g *= (size - 1) / (t_grid[-1] - t_grid[0])
        np.ceil(g, out=g)
        np.fmin(g, size, out=g)           # a NaN guess goes to the top bin
        np.maximum(g, 0.0, out=g)
    k = g.astype(np.intp)
    up = np.take(hi, k, out=g) < z        # g's buffer holds the edges read at k
    down = np.take(lo, k, out=g) >= z
    moving = np.flatnonzero(up | down)
    up = up[moving]
    while moving.size:                    # each moving z is either up or down
        k[moving] += np.where(up, 1, -1)
        km, zm = k[moving], z[moving]
        up = hi[km] < zm
        keep = up | (lo[km] >= zm)
        moving, up = moving[keep], up[keep]
    return k


def _weighted_ecdf(t_grid, z, a):
    """Share of the weights a whose z is <= t, at each t of t_grid: the
    cumulative sums of the bin weights, with no sort of z."""
    cw = np.cumsum(np.bincount(_grid_bins(t_grid, z), weights=a, minlength=t_grid.size + 1))
    return cw[:-1] / cw[-1]


def convergence_diagnostic(m: EllipticalModel, x_grid, t_grid=None,
                           n=100_000, seed=0, w=None):
    """Sup-distance to the standard normal at each conditioning level.

    Returns (exceed_sup, point_sup): the Monte-Carlo CDF distance for the
    exceedance-conditioned standardized variable, and the quadrature CDF
    distance for the point-conditioned density, both over ``t_grid``.
    t_grid must be a non-empty, finite, strictly increasing 1-D grid and n
    an integer >= 1; both are checked before any sampling.  The weighted
    ECDF at t_k is the cumulative weight of the bins t_{j-1} < z <= t_j,
    j <= k, each summed by np.bincount: the draws are not sorted.
    """
    if isinstance(m.radial, PointMass):
        raise NoDensityError("diagnostic needs an absolutely continuous radial law")
    x_grid = np.asarray(x_grid, dtype=float)
    if not np.all((x_grid > 0) & (x_grid < math.inf)):
        raise DomainError("conditioning levels must be positive and finite")
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size and np.all(np.isfinite(t_grid))
            and np.all(np.diff(t_grid) > 0)):
        raise DomainError("t_grid must be a non-empty, finite, strictly increasing 1-D grid")
    _check_sample_size(n)
    w = w or m.scaling_w()
    rho_c = math.sqrt(1.0 - m.rho ** 2)
    ndtr_t = sc.ndtr(t_grid)
    exceed_sup, point_sup = [], []
    for ix, x in enumerate(x_grid):
        cx = math.sqrt(float(w(x)) / x)
        # exceedance side: weighted sample of V given U > x, standardized in place
        _, a, z = _importance_draws(m, x, n, make_rng(seed, stream=100 + ix))
        z -= m.rho * x
        z *= cx
        z /= rho_c
        exceed_sup.append(float(np.max(np.abs(_weighted_ecdf(t_grid, z, a) - ndtr_t))))
        # point side: integrate the exact conditional density
        dens = conditional_density_point(m, x, t_grid, w=w)
        # CDF at t_grid by trapezoid from the left edge, anchored at Phi(t_0)
        cdf = float(sc.ndtr(t_grid[0])) + np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t_grid))])
        point_sup.append(float(np.max(np.abs(cdf - ndtr_t))))
    return np.array(exceed_sup), np.array(point_sup)
