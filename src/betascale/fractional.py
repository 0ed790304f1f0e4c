"""Fractional integrals over the upper tail.

The order-``beta`` fractional integral of a function h over (x, inf) is

    (I_beta h)(x) = (1/Gamma(beta)) * int_x^inf (y - x)**(beta - 1) h(y) dy,

with the order-zero convention I_0 h := h.  The Stieltjes companion
integrates a kernel against the measure dH of a distribution function H:

    (J_{beta,g} H)(x) = (1/Gamma(beta)) * int_x^inf (y - x)**(beta - 1) g(y) dH(y),

with J_{0,g} H := g * h where h is the density of H.  For beta in (0, 1)
the kernel is integrably singular at y = x; the substitution u = (y - x)**beta
removes the singularity before quadrature.

Every integral of an analytic integrand goes through one adaptive
Gauss-Kronrod engine (``_gauss_kronrod``), many points at once; tabulated
laws with beta <= 1 take the fixed cell rule ``kernel_integral_cells``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

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


def _quad_on_access(ns):
    """A module ``__getattr__`` that binds scipy's ``quad`` in ``ns`` when
    first asked for it.  No library module calls ``quad``, and importing
    scipy.integrate would lengthen the start-up of every ``betascale``
    process by more than half; perfbench/tracer.py still wraps the
    module-level ``quad`` of every quadrature layer."""
    def __getattr__(name):
        if name != "quad":
            raise AttributeError(f"module {ns['__name__']!r} has no attribute {name!r}")
        from scipy.integrate import quad
        ns["quad"] = quad
        return quad

    return __getattr__


__getattr__ = _quad_on_access(globals())


@dataclass
class QuadratureConfig:
    atol: float = 1e-10
    rtol: float = 1e-8
    limit: int = 200

    def check(self, value, err, what):
        if not (math.isfinite(value) and math.isfinite(err)):
            raise NumericError(f"{what}: non-finite result {value} (error {err})", estimate=value)
        tol = self.atol + self.rtol * abs(value)
        if err > max(tol, 1e-12):
            raise NumericError(
                f"{what}: quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
                estimate=value,
            )

    def check_points(self, x, value, err, what):
        """Check integrals at the points of ``x`` (a scalar or 1-D array) in
        order: ``what`` names one integral, or is a tuple of k names with k
        rows of ``value`` and ``err``, checked in its order at each point.
        Each goes through ``check`` as "<name> at x=<x>"; the first failure
        raises its NumericError with that point as ``x``."""
        names = (what,) if isinstance(what, str) else tuple(what)
        xs = np.ravel(x).tolist()
        rows = zip(np.reshape(value, (len(names), len(xs))).T.tolist(),
                   np.reshape(err, (len(names), len(xs))).T.tolist())
        for xi, (vs, es) in zip(xs, rows):
            for name, v, e in zip(names, vs, es):
                try:
                    self.check(v, e, f"{name} at x={xi}")
                except NumericError as exc:
                    exc.x = xi
                    raise


# QUADPACK's 21-point Gauss-Kronrod rule (qk21) on [-1, 1], by node >= 0:
# node, Kronrod weight, weight of the embedded 10-point Gauss rule
_QK21 = np.array([
    (0.995657163025808081, 0.011694638867371874, 0.0),
    (0.973906528517171720, 0.032558162307964727, 0.066671344308688138),
    (0.930157491355708226, 0.054755896574351996, 0.0),
    (0.865063366688984511, 0.075039674810919953, 0.149451349150580593),
    (0.780817726586416897, 0.093125454583697606, 0.0),
    (0.679409568299024406, 0.109387158802297642, 0.219086362515982044),
    (0.562757134668604683, 0.123491976262065851, 0.0),
    (0.433395394129247191, 0.134709217311473326, 0.269266719309996355),
    (0.294392862701460198, 0.142775938577060081, 0.0),
    (0.148874338981631211, 0.147739104901338491, 0.295524224714752870),
    (0.0, 0.149445554002916906, 0.0),
])
_GK_X, _GK_WK, _GK_WG = np.concatenate([_QK21 * (-1.0, 1.0, 1.0), _QK21[-2::-1]]).T
_GK_CHUNK = 1024
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _qk21(f, half):
    """qk21 on rows of node values ``f`` over intervals of half-length
    ``half`` > 0: (integrals, QUADPACK error estimates)."""
    resk = f @ _GK_WK
    resg = f @ _GK_WG
    resabs = np.abs(f) @ _GK_WK * half
    # a non-finite node value gives a non-finite result, which the caller's
    # check reports; it needs no warning here
    with np.errstate(divide="ignore", invalid="ignore"):
        resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_WK * half
        err = np.abs(resk - resg) * half
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # round-off floor
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def _gauss_kronrod(fn, owner, lo, hi, n, epsabs, epsrel, limit, value=None, parts=1):
    """Adaptive qk21 quadrature of n integrals at once: (values, errors).

    Integral i is value[i] (an exact part, 0 by default) plus the integrals
    from lo[j] to hi[j] of the pieces j with owner[j] == i; ``fn(j, y)``
    gives the integrand at an (m, 21) array of nodes y, row r in piece j[r].
    Each piece runs in t in [0, 1] from ``parts`` equal subintervals: a
    bounded one by y = lo + w*t**2*(3 - 2t), w = hi - lo, an infinite one by
    y = lo + ((1 - t)/t)**2.  Their flat ends absorb an inverse-square-root
    singularity at a piece end, which bisection cannot resolve to 1e-8, and
    the tail map keeps y**-p bounded in t for p >= 1.5.  Every round applies
    qk21 with QUADPACK's error estimate to the new subintervals (at most
    _GK_CHUNK per call of ``fn``); each integral whose estimate exceeds
    max(epsabs, epsrel*|value|) bisects its largest-error subinterval, as
    QUADPACK does, while it holds fewer than ``limit`` (scalar or per
    integral).  The caller checks the result.
    """
    value = np.zeros(n) if value is None else value
    start, width, tail = lo, hi - lo, np.isinf(hi)

    def rule(piece, lo, hi):
        half = 0.5 * (hi - lo)
        t = 0.5 * (lo + hi)[:, None] + half[:, None] * _GK_X
        f = np.empty(t.shape)
        for rows, infinite in ((~tail[piece], False), (tail[piece], True)):
            if not rows.any():
                continue
            j, u = piece[rows], t[rows]
            a = start[j][:, None]
            if infinite:
                r = (1.0 - u) / u
                f[rows] = fn(j, a + r * r) * 2.0 * r / (u * u)
            else:
                w = width[j][:, None]
                f[rows] = fn(j, a + w * u * u * (3.0 - 2.0 * u)) * 6.0 * w * u * (1.0 - u)
        return _qk21(f, half)

    def evaluate(piece, lo, hi):
        out = [rule(piece[i:i + _GK_CHUNK], lo[i:i + _GK_CHUNK], hi[i:i + _GK_CHUNK])
               for i in range(0, piece.size, _GK_CHUNK)] or [(np.empty(0), np.empty(0))]
        return np.concatenate([v for v, _ in out]), np.concatenate([e for _, e in out])

    piece = np.repeat(np.arange(owner.size), parts)
    lo = np.tile(np.arange(parts) / parts, owner.size)
    hi = lo + 1.0 / parts
    error = np.zeros(n)
    val, err = evaluate(piece, lo, hi)
    while piece.size:
        point = owner[piece]
        total = value + np.bincount(point, weights=val, minlength=n)
        etotal = np.bincount(point, weights=err, minlength=n)
        short = ((etotal > np.maximum(epsabs, epsrel * np.abs(total)))
                 & (np.bincount(point, minlength=n) < limit))
        # each integral's largest-error subinterval leads its run in this order
        order = np.lexsort((-err, point))
        ranked = point[order]
        lead = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
        mid = 0.5 * (lo + hi)
        # QUADPACK's test for a subinterval too small to split
        splittable = (np.maximum(np.abs(lo), np.abs(hi))
                      > (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY))
        split = lead[short[point[lead]] & splittable[lead]]
        done = np.ones(n, dtype=bool)
        done[point[split]] = False
        done = done[point]
        value += np.bincount(point[done], weights=val[done], minlength=n)
        error += np.bincount(point[done], weights=err[done], minlength=n)
        stay = ~done
        stay[split] = False
        new_piece = np.concatenate([piece[split], piece[split]])
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_val, new_err = evaluate(new_piece, new_lo, new_hi)
        piece = np.concatenate([piece[stay], new_piece])
        lo, hi = np.concatenate([lo[stay], new_lo]), np.concatenate([hi[stay], new_hi])
        val, err = np.concatenate([val[stay], new_val]), np.concatenate([err[stay], new_err])
    return value, error


# Gauss-Legendre nodes and weights of the coarse and the fine cell rule
_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)
_CELL_BLOCK = 1 << 14   # nodes per batch of kernel_integral_cells, bounding its memory


def _pieces(knots, beta, x, upper):
    """(owner, lo, hi): the pieces of the points of the 1-D array x in point
    order, one per gap between the ``knots`` inside (x, upper) (none where
    x >= upper), in u = (y - x)**beta when beta < 1 and in y otherwise."""
    knots = np.unique(np.asarray(knots, dtype=float))
    ends = np.append(knots[knots < upper], upper)
    first = np.searchsorted(ends[:-1], x, side="right")
    count = np.where(x < upper, ends.size - first, 0)
    owner = np.repeat(np.arange(x.size), count)
    k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    j = first[owner] + k
    lo, hi = np.where(k == 0, x[owner], ends[np.maximum(j - 1, 0)]), ends[j]
    if beta < 1.0:
        lo, hi = (lo - x[owner]) ** beta, (hi - x[owner]) ** beta
    return owner, lo, hi


def kernel_integral_cells(fn, knots, beta, x, upper, cfg, what="kernel integral"):
    """(1/Gamma(beta)) * int_x^upper (y-x)**(beta-1) * fn(y) dy for a
    vectorized integrand that is smooth between consecutive ``knots``, with
    0 < beta <= 1 and a finite upper limit.

    The substitution u = (y-x)**beta removes the kernel singularity; each
    resulting cell takes fixed Gauss-Legendre, with the 8-vs-16-node
    difference as the error estimate.  ``fn`` takes the nodes as a 2-D array
    with one row per cell, each row between two consecutive knots, and
    returns values of its shape.  x may be a 1-D array (``fn`` must then
    not depend on x): the cells of all its points form one flat batch,
    evaluated in blocks of whole points of at most ~_CELL_BLOCK nodes, and
    an array comes back.  With a tuple of k names as ``what``, ``fn`` returns
    k stacked arrays, one per integrand, and k results come back from one pass
    over the nodes.  cfg.check_points checks every point in grid order (the
    rows of a point in the order of ``what``) as "<name> at x=<x>".
    """
    if not (0.0 < beta <= 1.0) or not math.isfinite(upper):
        raise DomainError("cell integration covers beta in (0,1] and finite range")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    names = (what,) if isinstance(what, str) else tuple(what)
    owner, left, right = _pieces(knots, beta, xs, upper)
    # piece offsets of the points; cells of points lo..hi-1 are first[lo]:first[hi]
    first = np.searchsorted(owner, np.arange(xs.size + 1))
    fine = np.zeros((len(names), xs.size))
    coarse = np.zeros((len(names), xs.size))
    cost = first[1:] * 24
    lo = 0
    while lo < xs.size:
        spent = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cost, spent + _CELL_BLOCK, side="right")))
        cells = slice(first[lo], first[hi])
        own, xo = owner[cells] - lo, xs[owner[cells]]
        half = 0.5 * (right[cells] - left[cells])
        mid = 0.5 * (left[cells] + right[cells])
        for (nodes, weights), out in ((_GL8, coarse), (_GL16, fine)):
            u = mid[:, None] + half[:, None] * nodes[None, :]
            y = u if beta == 1.0 else xo[:, None] + u ** (1.0 / beta)
            vals = np.asarray(fn(y), dtype=float).reshape((len(names),) + u.shape)
            for row, row_vals in zip(out, vals):
                sums = np.sum(half[:, None] * (weights[None, :] * row_vals), axis=1)
                row[lo:hi] = np.bincount(own, weights=sums, minlength=hi - lo)
        lo = hi
    scale = (1.0 / beta) * math.exp(-sc.gammaln(beta))
    val, err = scale * fine, scale * np.abs(fine - coarse)
    cfg.check_points(xs, val, err, names)
    out = tuple(val[:, 0].tolist()) if np.ndim(x) == 0 else tuple(val)
    return out[0] if isinstance(what, str) else out


def power_weight(c):
    """The weight p_c(y) = y**c as a vectorized callable."""
    def p(y):
        return np.asarray(y, dtype=float) ** c

    return p


def measure_knots(H):
    """Abscissae where H's density may have corners (tabulated grids) or the
    support begins/ends; used as quadrature breakpoints."""
    if isinstance(H, TabulatedCdf):
        return list(map(float, H.grid))
    return [float(v) for v in (H.lower, H.upper) if 0.0 < v < math.inf]


def _kernel_terms(h, beta, x, upper, knots, cfg):
    """(1/Gamma(beta)) * int_x^upper (y-x)**(beta-1) * h(y) dy at every point
    of the 1-D array x, beta > 0, for a vectorized h: unchecked (values,
    errors), 0 where x >= upper; h counts as 0 where y overflows.

    The pieces are those of _pieces, so a kink, jump or atom at a knot is a
    piece end on an infinite range too; for beta < 1 the kernel is 1/beta in
    u.  As quad was, the engine is asked for 0.01*atol and 0.01*rtol, with
    max(cfg.limit, 3k + 50) subintervals for k knots inside the range.
    """
    owner, lo, hi = _pieces(knots, beta, x, upper)
    xo = x[owner]

    def fn(piece, u):
        xp = xo[piece][:, None]
        with np.errstate(over="ignore"):
            y = xp + u ** (1.0 / beta) if beta < 1.0 else u
        finite = np.isfinite(y)
        y = np.where(finite, y, xp)
        vals = np.asarray(h(y.ravel()), dtype=float).reshape(y.shape)
        if beta > 1.0:
            vals = vals * (y - xp) ** (beta - 1.0)
        return np.where(finite, vals, 0.0)

    count = np.bincount(owner, minlength=x.size)
    limit = np.where(count > 1, np.maximum(cfg.limit, 3 * (count - 1) + 50), cfg.limit)
    val, err = _gauss_kronrod(fn, owner, lo, hi, x.size, 0.01 * cfg.atol, 0.01 * cfg.rtol, limit)
    scale = math.exp(-sc.gammaln(beta)) / min(beta, 1.0)
    return scale * val, scale * err


def _stieltjes_terms(g, H, beta, x, cfg):
    """(J_{beta,g} H)(x) at the points of the 1-D array x, beta > 0, for a
    vectorized g (beta > 1 if H is tabulated): unchecked (values, errors)."""
    if isinstance(H, PointMass):
        above = x < H.c
        gap = np.where(above, H.c - x, 1.0)
        val = float(g(H.c)) * gap ** (beta - 1.0) * math.exp(-sc.gammaln(beta))
        return np.where(above, val, 0.0), np.zeros(x.size)
    return _kernel_terms(lambda y: g(y) * np.asarray(H.pdf(y), dtype=float), beta, x,
                         H.upper, measure_knots(H), cfg)


def _stieltjes(g, H, beta, x, cfg):
    """(J_{beta,g} H)(x) at the points of the 1-D array x, beta > 0, checked;
    tabulated laws with beta <= 1 take the cell rule."""
    what = f"weyl_stieltjes(beta={beta})"
    if isinstance(H, TabulatedCdf) and beta <= 1.0:
        return kernel_integral_cells(lambda y: g(y) * np.asarray(H.pdf(y), dtype=float),
                                     H.grid, beta, x, H.upper, cfg, what=what)
    val, err = _stieltjes_terms(g, H, beta, x, cfg)
    cfg.check_points(x, val, err, what)
    return val


def weyl_integral(h, beta, x, upper=math.inf, cfg=None, points=None):
    """(I_beta h)(x) for beta >= 0; ``upper`` truncates the integration range.

    ``h`` is a scalar-valued callable of one float, wrapped once with
    np.vectorize; the abscissae in ``points`` (kinks, jumps) become piece
    ends.  Order zero returns h(x), an empty range (x >= upper) 0.0.  For
    beta in (0, 1), u = (y - x)**beta turns the singular kernel into the
    smooth integrand h(x + u**(1/beta)) / beta.  A NaN or infinite x or
    beta, or a NaN upper, raises DomainError.
    """
    if not (math.isfinite(beta) and beta >= 0.0 and math.isfinite(x)
            and not math.isnan(upper)):
        raise DomainError("need a finite order beta >= 0, a finite x and a non-NaN upper")
    cfg = cfg or QuadratureConfig()
    if beta == 0.0:
        return float(h(x))
    if not x < upper:
        return 0.0
    xs = np.array([float(x)])
    val, err = _kernel_terms(np.vectorize(h, otypes=[float]), beta, xs, upper,
                             () if points is None else points, cfg)
    cfg.check_points(xs, val, err, f"weyl_integral(beta={beta})")
    return float(val[0])


def weyl_stieltjes(g, H, beta, x, cfg=None):
    """(J_{beta,g} H)(x) against the probability measure of ``H``.

    ``g`` is a scalar-valued callable of one float, wrapped once with
    np.vectorize as in weyl_integral.  Supported measures: absolutely
    continuous laws (via ``H.pdf``), point masses (exact atom formula) and
    any mixture detectable through those two code paths.  Order zero
    returns g(x) * pdf(x) and requires a density; an empty range
    (x >= H.upper) gives 0.0.  A NaN or infinite x or beta raises DomainError.
    """
    if not (math.isfinite(beta) and beta >= 0.0 and math.isfinite(x)):
        raise DomainError("need a finite order beta >= 0 and a finite x")
    if not isinstance(H, Distribution):
        raise DomainError("weyl_stieltjes expects a distribution for H")
    cfg = cfg or QuadratureConfig()
    if beta == 0.0:
        if isinstance(H, PointMass):
            raise NoDensityError("point mass has no density; J_{0,g} undefined")
        return float(g(x)) * float(H.pdf(x))
    return float(_stieltjes(np.vectorize(g, otypes=[float]), H, beta,
                            np.array([float(x)]), cfg)[0])
