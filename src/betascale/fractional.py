"""Fractional integrals over the upper tail.

The order-``beta`` fractional integral of a function h over (x, inf) is

    (I_beta h)(x) = (1/Gamma(beta)) * int_x^inf (y - x)**(beta - 1) h(y) dy,

with the order-zero convention I_0 h := h.  The Stieltjes companion
integrates a kernel against the measure dH of a distribution function H:

    (J_{beta,g} H)(x) = (1/Gamma(beta)) * int_x^inf (y - x)**(beta - 1) g(y) dH(y),

with J_{0,g} H := g * h where h is the density of H.  For beta in (0, 1)
the kernel is integrably singular at y = x; the substitution u = (y - x)**beta
removes the singularity before quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

from .distributions import Distribution, PointMass, TabulatedCdf
from .errors import DomainError, NoDensityError, NumericError

__all__ = [
    "measure_knots",
    "kernel_integral_cells",
    "QuadratureConfig",
    "power_weight",
    "weyl_integral",
    "weyl_stieltjes",
]


@dataclass
class QuadratureConfig:
    atol: float = 1e-10
    rtol: float = 1e-8
    limit: int = 200
    tail_cut: float = 1e-14   # truncate infinite tails where the integrand is negligible

    def check(self, value, err, what):
        if not (math.isfinite(value) and math.isfinite(err)):
            raise NumericError(f"{what}: non-finite result {value} (error {err})", estimate=value)
        tol = self.atol + self.rtol * abs(value)
        if err > max(tol, 1e-12):
            raise NumericError(
                f"{what}: quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
                estimate=value,
            )


_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


_CELL_BLOCK = 1 << 14   # nodes per batch of kernel_integral_cells, bounding its memory


def kernel_integral_cells(fn, knots, beta, x, upper, cfg, what="kernel integral"):
    """(1/Gamma(beta)) * int_x^upper (y-x)**(beta-1) * fn(y) dy for a
    vectorized integrand that is smooth between consecutive ``knots``.

    The kernel singularity at y = x (beta < 1) is removed globally by the
    u = (y-x)**beta substitution; each resulting cell is handled by fixed
    Gauss-Legendre, with the 8-vs-16-node difference as the error estimate.
    Requires a finite upper limit and 0 < beta <= 1.

    x may be a 1-D array (``fn`` must then not depend on x): the cells of
    all its points are laid out as one flat batch, evaluated in blocks of
    whole points of at most ~_CELL_BLOCK nodes each so that memory stays
    bounded, and an array is returned.  Points are checked against cfg in
    order; the first failure raises NumericError as ``what`` at that x.

    With a tuple of k names as ``what``, ``fn`` returns k stacked rows of
    values at its nodes, one per integrand, and a tuple of k results comes
    back: k integrals from one pass over the nodes.  Each row keeps its own
    value, error estimate and check; the checks run in grid order, the rows
    of one point in the order of ``what``.
    """
    if not (0.0 < beta <= 1.0) or not math.isfinite(upper):
        raise DomainError("cell integration covers beta in (0,1] and finite range")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    names = (what,) if isinstance(what, str) else tuple(what)
    knots = np.sort(np.asarray(knots, dtype=float))
    # right edges: the knots inside (., upper), then upper itself
    ext = np.append(knots[knots < upper], upper)
    first = np.searchsorted(ext[:-1], xs, side="right")
    counts = np.where(xs < upper, ext.size - first, 0)
    fine = np.zeros((len(names), xs.size))
    coarse = np.zeros((len(names), xs.size))
    cost = np.cumsum(counts) * 24
    lo = 0
    while lo < xs.size:
        spent = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cost, spent + _CELL_BLOCK, side="right")))
        c = counts[lo:hi]
        own = np.repeat(np.arange(c.size), c)
        k = np.arange(own.size) - (np.cumsum(c) - c)[own]
        xo = xs[lo:hi][own]
        j = first[lo:hi][own] + k
        left = np.where(k == 0, xo, ext[np.maximum(j - 1, 0)])
        right = ext[j]
        if beta != 1.0:
            left, right = (left - xo) ** beta, (right - xo) ** beta
        half = 0.5 * (right - left)
        mid = 0.5 * (left + right)
        for n, out in ((8, coarse), (16, fine)):
            nodes, weights = _gl_nodes(n)
            u = mid[:, None] + half[:, None] * nodes[None, :]
            y = u if beta == 1.0 else xo[:, None] + u ** (1.0 / beta)
            vals = np.asarray(fn(y.ravel()), dtype=float).reshape((len(names),) + u.shape)
            for row, row_vals in zip(out, vals):
                cells = np.sum(half[:, None] * (weights[None, :] * row_vals), axis=1)
                row[lo:hi] = np.bincount(own, weights=cells, minlength=c.size)
        lo = hi
    scale = (1.0 / beta) * math.exp(-sc.gammaln(beta))
    val, err = scale * fine, scale * np.abs(fine - coarse)
    if np.ndim(x) == 0:
        for name, v, e in zip(names, val[:, 0], err[:, 0]):
            cfg.check(v, e, name)
        out = tuple(float(v) for v in val[:, 0])
    else:
        for xj, vs, es in zip(xs, val.T, err.T):
            for name, v, e in zip(names, vs, es):
                cfg.check(v, e, f"{name} at x={float(xj)}")
        out = tuple(val)
    return out[0] if isinstance(what, str) else out


def power_weight(c):
    """The weight p_c(y) = y**c as a vectorized callable."""
    def p(y):
        return np.asarray(y, dtype=float) ** c

    return p


def _quad(f, a, b, cfg, points=None):
    # request a tighter tolerance than the config checks: quadpack stops as
    # soon as its error estimate meets the request, which can leave the
    # estimate marginally above a loosely-specified target
    kwargs = dict(epsabs=0.01 * cfg.atol, epsrel=0.01 * cfg.rtol, limit=cfg.limit)
    pts = sorted({p for p in points if a < p < b}) if points is not None else []
    if len(pts) > 100:
        # keep the quadrature affordable; remaining corners are mild (C0 data)
        step = len(pts) // 100 + 1
        pts = pts[::step]
    if not pts:
        return quad(f, a, b, **kwargs)
    if not math.isfinite(b):
        # quadpack takes no breakpoints on an infinite range: integrate up to
        # the last one with the others as breakpoints, then on to infinity
        head_val, head_err = _quad(f, a, pts[-1], cfg, points=pts[:-1])
        tail_val, tail_err = quad(f, pts[-1], b, **kwargs)
        return head_val + tail_val, head_err + tail_err
    kwargs["limit"] = max(cfg.limit, 3 * len(pts) + 50)
    val, err = quad(f, a, b, points=pts, **kwargs)
    return val, err


def measure_knots(H):
    """Abscissae where H's density may have corners (tabulated grids) or the
    support begins/ends; used as quadrature breakpoints."""
    if isinstance(H, TabulatedCdf):
        return list(map(float, H.grid))
    pts = []
    if H.lower > 0:
        pts.append(float(H.lower))
    if math.isfinite(H.upper):
        pts.append(float(H.upper))
    return pts


def _kernel_quad(h, beta, x, upper, cfg, points, what):
    """(1/Gamma(beta)) * int_x^upper (y-x)**(beta-1) * h(y) dy for beta > 0
    and a scalar-valued h, by quadpack, checked against cfg as ``what``."""
    if beta < 1.0:
        # substitute u = (y - x)**beta; dy = (1/beta) u**(1/beta - 1) du,
        # (y - x)**(beta - 1) dy = (1/beta) du
        u_up = math.inf if not math.isfinite(upper) else (upper - x) ** beta

        def g(u):
            return float(h(x + u ** (1.0 / beta)))

        pts = None if points is None else [(p - x) ** beta for p in points if p > x]
        val, err = _quad(g, 0.0, u_up, cfg, points=pts)
        val /= beta
        err /= beta
    else:
        def g(y):
            return (y - x) ** (beta - 1.0) * float(h(y))

        val, err = _quad(g, x, upper, cfg, points=points)

    val *= math.exp(-sc.gammaln(beta))
    err *= math.exp(-sc.gammaln(beta))
    cfg.check(val, err, what)
    return val


def weyl_integral(h, beta, x, upper=math.inf, cfg=None, points=None):
    """(I_beta h)(x) for beta >= 0; ``upper`` truncates the integration range.

    ``h`` is any scalar-valued callable.  The order-zero case returns h(x)
    directly.  For beta in (0, 1) the substitution u = (y - x)**beta turns
    the singular kernel into the smooth integrand h(x + u**(1/beta)) / beta.
    """
    if beta < 0:
        raise DomainError("fractional order must be nonnegative")
    cfg = cfg or QuadratureConfig()
    if beta == 0.0:
        return float(h(x))
    return _kernel_quad(h, beta, x, upper, cfg, points, f"weyl_integral(beta={beta}, x={x})")


def weyl_stieltjes(g, H, beta, x, cfg=None):
    """(J_{beta,g} H)(x) against the probability measure of ``H``.

    Supported measures: absolutely continuous laws (via ``H.pdf``), point
    masses (exact atom formula) and any mixture detectable through those two
    code paths.  Order zero returns g(x) * pdf(x) and requires a density.
    """
    if beta < 0:
        raise DomainError("fractional order must be nonnegative")
    if not isinstance(H, Distribution):
        raise DomainError("weyl_stieltjes expects a distribution for H")
    cfg = cfg or QuadratureConfig()

    if isinstance(H, PointMass):
        c = H.c
        if beta == 0.0:
            raise NoDensityError("point mass has no density; J_{0,g} undefined")
        if c <= x:
            return 0.0
        return float(g(c)) * (c - x) ** (beta - 1.0) * math.exp(-sc.gammaln(beta))

    if beta == 0.0:
        return float(g(x)) * float(H.pdf(x))

    upper = H.upper if math.isfinite(H.upper) else math.inf
    if x >= upper:
        return 0.0

    if isinstance(H, TabulatedCdf) and beta <= 1.0:
        def fn(y):
            return np.asarray(g(y), dtype=float) * np.asarray(H.pdf(y), dtype=float)

        return kernel_integral_cells(fn, H.grid, beta, x, upper, cfg,
                                     what=f"weyl_stieltjes(beta={beta}, x={x})")

    def h(y):
        return float(g(y)) * float(H.pdf(y))

    return _kernel_quad(h, beta, x, upper, cfg, measure_knots(H),
                        f"weyl_stieltjes(beta={beta}, x={x})")
