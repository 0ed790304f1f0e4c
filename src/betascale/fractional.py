"""Fractional integrals over the upper tail.

The order-``beta`` fractional integral of a function h over (x, inf) is

    (I_beta h)(x) = (1/Gamma(beta)) * int_x^inf (y - x)**(beta - 1) h(y) dy,

with the order-zero convention I_0 h := h.  The Stieltjes companion
integrates a kernel against the measure dH of a distribution function H:

    (J_{beta,g} H)(x) = (1/Gamma(beta)) * int_x^inf (y - x)**(beta - 1) g(y) dH(y),

with J_{0,g} H := g * h where h is the density of H.  For beta in (0, 1)
the kernel is integrably singular at y = x; the substitution u = (y - x)**beta
removes the singularity before quadrature.  A tabulated law's piece lying
between two knots at least its own width above x is far from the
singularity and runs in y instead, where its nodes do not depend on x: h is
evaluated once per call on each such gap's nodes, and the engine's first
round reads those pieces' integrand straight from that table.

Every kernel integral goes through one adaptive Gauss-Kronrod engine
(``_gauss_kronrod``), many points at once.  Each point's value depends on
that point alone, not on the other points of its call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .distributions import Distribution, PointMass, TabulatedCdf
from .errors import DomainError, NoDensityError, NumericError

__all__ = [
    "measure_knots",
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
    """A relative target: an integral's error estimate is at most rtol*|value|,
    QUADPACK's epsrel rule with no absolute term, and the engine's stop test;
    at most ``limit`` subintervals an integral.  A NaN, infinite or
    nonpositive rtol, or a limit that is no integer >= 1, raises DomainError,
    at construction and on every later assignment."""
    rtol: float = 1e-8
    limit: int = 200

    def __setattr__(self, name, value):
        if name == "rtol" and not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
            raise DomainError(f"rtol must be positive and finite, got {value!r}")
        if name == "limit" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                                or value < 1):
            raise DomainError(f"limit must be an integer >= 1, got {value!r}")
        super().__setattr__(name, value)

    def check(self, value, err, what):
        if not (math.isfinite(value) and math.isfinite(err)):
            raise NumericError(f"{what}: non-finite result {value} (error {err})", estimate=value)
        tol = self.rtol * abs(value)
        if err > tol:
            raise NumericError(f"{what}: quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
                               estimate=value)

    def check_points(self, x, value, err, what):
        """Check the integrals named ``what`` at the points of ``x`` (a scalar
        or 1-D array) in order, each through ``check`` as "<what> at x=<x>";
        the first failure raises its NumericError with that point as ``x``."""
        for xi, v, e in zip(np.asarray(x).ravel().tolist(), np.asarray(value).ravel().tolist(),
                            np.asarray(err).ravel().tolist()):
            try:
                self.check(v, e, f"{what} at x={xi}")
            except NumericError as exc:
                exc.x = xi
                raise


# the tail and elliptical layers' target: their tail probabilities and
# conditioning masses feed ratios, held one digit tighter than the default
_RELATIVE_CFG = QuadratureConfig(rtol=1e-9)


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
# subintervals per call of an integrand, bounded by the working set of one
# chunk, not by numpy's per-call overhead.  A (1280, 21) float array is
# 215 KB; a chunk read from the node table holds about 3 at once and one
# that calls the integrand up to ~9 (1.9 MB), inside a core's 2 MB L2.  On a
# 2-core Xeon, warmed, the 12 criterion-3 inversions took 107 ms at 320 rows,
# 95 at 640, 89 at 1280, 95 at 2560 and 124 at 20,000, with 0-1,700 minor
# faults a pass up to 1280 rows, ~6,000 at 2560 and 14,300 at 20,000: larger
# chunks spill out of L2, and malloc trims and refaults its heap top more often
_GK_CHUNK = 1280
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# QUADPACK's round-off floor 50*eps*resabs, which applies above resabs = _UFLOW
_ROUNDOFF = 50.0 * _EPS
_UFLOW = _TINY / _ROUNDOFF
# QUADPACK's bound below which a subinterval [a, b] is too small to split:
# max(|a|, |b|) <= _SPLIT_REL * (|mid| + _SPLIT_ABS)
_SPLIT_REL = 1.0 + 100.0 * _EPS
_SPLIT_ABS = 1000.0 * _TINY


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _qk21(f, half):
    """qk21 on rows of node values ``f`` over intervals of half-length
    ``half`` > 0: (integrals, QUADPACK error estimates).  Each row is summed
    on its own, so a row's result does not depend on the other rows.  ``f``
    is only read: |f| and then |f - resk/2| go into one scratch array."""
    # a non-finite node value gives a non-finite result, which the caller's
    # check reports; it needs no warning here.  einsum without ``optimize``
    # sums each row in its own loop, never through BLAS.
    resk = np.einsum("ij,j->i", f, _GK_WK)
    resg = np.einsum("ij,j->i", f, _GK_WG)
    scratch = np.abs(f)
    resabs = np.einsum("ij,j->i", scratch, _GK_WK) * half
    np.abs(np.subtract(f, 0.5 * resk[:, None], out=scratch), out=scratch)
    resasc = np.einsum("ij,j->i", scratch, _GK_WK) * half
    err = np.abs(resk - resg) * half
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # round-off floor
    err = np.where(resabs > _UFLOW, np.maximum(_ROUNDOFF * resabs, err), err)
    return resk * half, err


def _piece_nodes(a, w, mid, half, affine):
    """(y, t): qk21's nodes y, one row per subinterval mid +- half in t of a
    bounded piece from a of width w (1-D arrays), by the engine's affine map
    y = a + w*t or its smoothstep map y = a + w*t**2*(3 - 2t); t holds the
    nodes in t (None for the affine map)."""
    a = a[:, None]
    if affine:
        return a + (w * mid)[:, None] + (w * half)[:, None] * _GK_X, None
    t = mid[:, None] + half[:, None] * _GK_X
    return a + w[:, None] * t * t * (3.0 - 2.0 * t), t


def _engine_start(cfg, whole, owner=None, n=0):
    """(limit, parts), the start rule of every operator's engine run: each
    piece starts whole, where ``whole`` or cfg.limit < 4, else as 4 equal
    subintervals in t, so that one round of qk21 mostly meets the tolerance;
    an integral holds at most cfg.limit subintervals, or max(cfg.limit,
    3k + 50) where ``owner`` (of n integrals) cuts it into k + 1 > 1 pieces."""
    parts = 1 if whole or cfg.limit < 4 else 4
    if owner is None:
        return cfg.limit, parts
    count = np.bincount(owner, minlength=n)
    return np.where(count > 1, np.maximum(cfg.limit, 3 * (count - 1) + 50), cfg.limit), parts


def _gauss_kronrod(fn, owner, lo, hi, n, rtol, limit, value=None, parts=1, affine=False,
                   first=None):
    """Adaptive qk21 quadrature of n integrals at once: (values, errors).

    Integral i is value[i] (an exact part, 0 by default) plus the integrals
    from lo[j] to hi[j] of the pieces j with owner[j] == i; ``fn(j, y)``
    gives the integrand at an (m, 21) array of nodes y, row r in piece j[r],
    and may overwrite y.  Each piece runs in t in [0, 1] from ``parts``
    equal subintervals: a bounded one by y = lo + w*t**2*(3 - 2t), w = hi -
    lo, an infinite one by y = lo + ((1 - t)/t)**2.  Their flat ends absorb
    an inverse-square-root singularity at a piece end, which bisection
    cannot resolve to 1e-8, and the tail map keeps y**-p bounded in t for
    p >= 1.5.  An integrand with no such end (``affine``) takes y = lo +
    w*t on bounded pieces instead, whose constant Jacobian w scales each
    row's sums.  Every round applies
    qk21 with QUADPACK's error estimate to the new subintervals (at most
    _GK_CHUNK per call of ``fn``); each integral whose estimate exceeds
    rtol*|value| bisects its largest-error subinterval, as
    QUADPACK does, while it holds fewer than ``limit`` (scalar or per
    integral); the subintervals are counted only once a round's bound on
    them reaches the least limit.  The caller checks the result.

    ``first`` = (k, read) gives the first round the node values of the
    pieces k onward, bounded and whole (``affine``, parts == 1): read(j) is
    the integrand at the nodes of the pieces j, whose rows skip ``fn``.
    """
    value = np.zeros(n) if value is None else value
    start, width, tail = lo, hi - lo, np.isinf(hi)
    skip, read = first or (owner.size, None)
    # the kind of every piece, 0 bounded or 1 infinite, or None for a mix
    only = 1 if tail.all() else None if tail.any() else 0

    def mapped(j, mid, half, kind):
        """(node values, half-lengths) of qk21 on the subintervals mid +- half
        in t of the pieces j, all of one kind: 0 bounded, 1 infinite, 2 read."""
        if kind == 2:
            return read(j), width[j] * half
        if kind == 1:
            t = mid[:, None] + half[:, None] * _GK_X
            r = (1.0 - t) / t
            return fn(j, start[j][:, None] + r * r) * 2.0 * r / (t * t), half
        w = width[j]
        y, t = _piece_nodes(start[j], w, mid, half, affine)
        if affine:
            return fn(j, y), w * half
        w = w[:, None]
        return fn(j, y) * 6.0 * w * t * (1.0 - t), half

    def rule(piece, lo, hi, skip):
        """qk21 on the subintervals lo..hi in t of the pieces ``piece``, those
        from ``skip`` on read; the first round's pieces ascend."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if piece[-1] < skip:  # no row is read
            if only is not None:
                return _qk21(*mapped(piece, mid, half, only))
            infinite = tail[piece]
            if not infinite.any() or infinite.all():
                return _qk21(*mapped(piece, mid, half, int(infinite[0])))
            kinds = (~infinite, 0), (infinite, 1)
        elif piece[0] >= skip:
            return _qk21(*mapped(piece, mid, half, 2))
        else:
            infinite, tabled = tail[piece], piece >= skip
            kinds = [(rows, kind) for rows, kind in
                     ((~(infinite | tabled), 0), (infinite, 1), (tabled, 2)) if rows.any()]
        f, scale = np.empty((piece.size, _GK_X.size)), np.empty(piece.size)
        for rows, kind in kinds:
            f[rows], scale[rows] = mapped(piece[rows], mid[rows], half[rows], kind)
        return _qk21(f, scale)

    def evaluate(piece, lo, hi, skip=owner.size):
        if 0 < piece.size <= _GK_CHUNK:
            return rule(piece, lo, hi, skip)
        out = [rule(piece[i:i + _GK_CHUNK], lo[i:i + _GK_CHUNK], hi[i:i + _GK_CHUNK], skip)
               for i in range(0, piece.size, _GK_CHUNK)] or [(np.empty(0), np.empty(0))]
        return np.concatenate([v for v, _ in out]), np.concatenate([e for _, e in out])

    # piece j starts as the subintervals [k, k + 1] / parts in t, k < parts
    piece, k = np.divmod(np.arange(owner.size * parts), parts)
    lo = k / parts
    hi = lo + 1.0 / parts
    error = np.zeros(n)
    val, err = evaluate(piece, lo, hi, skip)
    # a bound on the subintervals of one integral, one more each round: while
    # it is below every limit, no integral can have reached its own
    most, least = piece.size, np.minimum.reduce(limit, axis=None) if piece.size else 0
    while piece.size:
        point = owner[piece]
        total = value + np.bincount(point, weights=val, minlength=n)
        etotal = np.bincount(point, weights=err, minlength=n)
        short = etotal > rtol * np.abs(total)
        if most >= least:
            short &= np.bincount(point, minlength=n) < limit
        if not short.any():
            return total, error + etotal
        most += 1
        # each integral's largest-error subinterval leads its run in this order
        order = np.lexsort((-err, point))
        ranked = point[order]
        head = np.empty(order.size, dtype=bool)
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        lead = order[head]
        a, b = lo[lead], hi[lead]
        mid = 0.5 * (a + b)
        # QUADPACK's test for a subinterval too small to split, for
        # 0 <= a < b <= 1
        cut = short[point[lead]] & (b > _SPLIT_REL * (mid + _SPLIT_ABS))
        split, a, b, mid = lead[cut], a[cut], b[cut], mid[cut]
        # the subintervals of the integrals that go on, the split ones after
        # this round
        stay = np.zeros(n, dtype=bool)
        stay[point[split]] = True
        stay = stay[point]
        if not stay.all():
            done = ~stay
            value += np.bincount(point[done], weights=val[done], minlength=n)
            error += np.bincount(point[done], weights=err[done], minlength=n)
        stay[split] = False
        # the left halves of the split subintervals, then their right halves
        new_piece = np.concatenate([piece[split], piece[split]])
        new_lo, new_hi = np.concatenate([a, mid]), np.concatenate([mid, b])
        new_val, new_err = evaluate(new_piece, new_lo, new_hi)
        piece = np.concatenate([piece[stay], new_piece])
        lo, hi = np.concatenate([lo[stay], new_lo]), np.concatenate([hi[stay], new_hi])
        val, err = np.concatenate([val[stay], new_val]), np.concatenate([err[stay], new_err])
    return value, error


def _pieces(bounds, x):
    """(owner, lo, hi, gap): the pieces in y of the points of the 1-D array x
    in point order, one per gap between the increasing ``bounds`` that ends
    above x (none where x >= bounds[-1]), from the larger of x and the gap's
    lower end; bounds[0] is -inf.  Piece r lies in the gap from ends[gap[r]]
    to ends[gap[r] + 1] of ends = bounds[1:], -1 below ends[0]."""
    owner, j = (x[:, None] < bounds[1:]).nonzero()
    return owner, np.maximum(x[owner], bounds[j]), bounds[j + 1], j - 1


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


def _kernel_integral(h, knots, beta, x, upper, cfg, what, affine=False):
    """(1/Gamma(beta)) * int_x^upper (y-x)**(beta-1) * h(y) dy at every point
    of the 1-D array x, beta > 0, for a vectorized h (at beta = 1 the plain
    integral of h, as the elliptical layer takes it), checked by
    cfg.check_points as ``what``: 0 where x >= upper; h counts as 0 where y
    overflows.

    The pieces are those of _pieces, so a kink, jump or atom at a knot is a
    piece end on an infinite range too.  For beta < 1 a piece runs in
    u = (y - x)**beta, where the kernel is 1/beta; for beta >= 1 it runs in
    y with the kernel weight (y - x)**(beta - 1) in the integrand.  h takes
    the nodes as an (m, 21) array, one row per subinterval.  With ``affine``
    (h piecewise polynomial between the knots) and beta <= 1 the bounded
    pieces take the engine's affine map; for beta > 1 the kernel weight's
    derivative is singular at x, which the smoothstep map absorbs.

    An ``affine`` integrand also runs in y, kernel weight times beta, each
    piece of beta < 1 whose left end is a knot at least the piece's width
    above x; only the first piece of a point and the pieces close to x keep
    u, where the kernel's singularity is near.  The pieces in u come first,
    each point's in their order, then the pieces in y, so that the engine's
    calls of h mostly hold one kind of row.  The nodes of a whole bounded
    gap between two knots do not depend on x in y, so for beta < 1 h is
    evaluated once per call on the affine whole-piece nodes of each gap
    that a piece in y fills.  The engine's first round, whose pieces in y
    are such whole gaps, reads their values from that table, times the
    kernel weight at the point, without building nodes or calling h; a
    bisected piece calls h at its own nodes.

    The engine starts by _engine_start: with at most 2 knots (at most 3
    pieces a point) each piece starts as 4 subintervals, as in the mixture
    form of an analytic law; an ``affine`` integrand, whose polynomial
    pieces converge whole, and a call with more knots start from whole
    pieces.  Pieces and start depend on the call's knots and x alone.
    """
    knots = set(map(float, knots))
    bounds = np.array([-math.inf, *sorted(k for k in knots if k < upper), upper])
    owner, lo, hi, gap = _pieces(bounds, x)
    ends = bounds[1:]
    near = owner.size if beta < 1.0 else 0  # pieces [0, near) run in u
    if affine and beta < 1.0:
        far = lo - x[owner] >= hi - lo
        near -= np.count_nonzero(far)
        order = np.argsort(far, kind="stable")
        owner, lo, hi, gap = owner[order], lo[order], hi[order], gap[order][near:]
        del far, order  # not held through the engine's run
    else:
        gap = np.empty(0, dtype=int)  # no piece reads the table
    if near:
        xo = x[owner[:near]]  # fn and read gather x per chunk: no copy per piece is held
        lo[:near], hi[:near] = (lo[:near] - xo) ** beta, (hi[:near] - xo) ** beta
        del xo

    def weight(y, xp):
        """The kernel weight of rows in y: (y - x)**(beta - 1), times beta for beta < 1."""
        with np.errstate(divide="ignore", over="ignore"):
            w = (y - xp) ** (beta - 1.0)
        return beta * w if beta < 1.0 else w

    # the table: h on the whole-piece nodes of each gap that a piece in y
    # fills, from which the first round reads those pieces' node values
    first = None
    if gap.size:
        gaps = np.flatnonzero(np.bincount(gap, minlength=ends.size - 1))
        half = np.full(gaps.size, 0.5)
        y_tab = np.zeros((ends.size - 1, _GK_X.size))
        y_tab[gaps] = _piece_nodes(ends[gaps], np.diff(ends)[gaps], half, half, True)[0]
        h_tab = np.zeros(y_tab.shape)
        h_tab[gaps] = h(y_tab[gaps])

        def read(j):
            """fn's values on the whole pieces j in y, from the table, built in
            place in the rows that the gather y_tab[g] copies out: the same
            operations in weight's order, and the table is never written."""
            g = gap[j - near]
            rows = y_tab[g]
            rows -= x[owner[j]][:, None]
            with np.errstate(divide="ignore", over="ignore"):
                np.power(rows, beta - 1.0, out=rows)
            rows *= beta
            rows *= h_tab[g]
            return rows

        first = near, read

    def fn(piece, u):
        xp = x[owner[piece]][:, None]
        # the rows in u: those of the pieces below near
        if 0 < near < owner.size:
            inu = piece < near
            some, every = inu.any(), inu.all()
        else:
            inu = some = every = near > 0
        y = u
        if some:
            with np.errstate(over="ignore"):
                y = xp + u ** (1.0 / beta)
            if not every:
                y = np.where(inu[:, None], y, u)
        finite = np.isfinite(y)
        whole = finite.all()
        if not whole:
            y = np.where(finite, y, xp)
        vals = np.asarray(h(y), dtype=float)
        if beta != 1.0 and not every:  # rows in y; for beta > 1 all of them
            w = weight(y, xp)
            vals = vals * (np.where(inu[:, None], 1.0, w) if some else w)
        return vals if whole else np.where(finite, vals, 0.0)

    limit, parts = _engine_start(cfg, affine or len(knots) > 2,
                                 owner if ends.size > 1 else None, x.size)
    val, err = _gauss_kronrod(fn, owner, lo, hi, x.size, cfg.rtol, limit, parts=parts,
                              affine=affine and beta <= 1.0, first=first)
    scale = math.exp(-sc.gammaln(beta)) / min(beta, 1.0)
    val, err = scale * val, scale * err
    cfg.check_points(x, val, err, what)
    return val


def _law_integral(h, H, beta, x, upper, cfg, what):
    """_kernel_integral of h over (x, upper) with H's knots as piece ends,
    affine for a tabulated H, whose integrands are piecewise polynomial."""
    return _kernel_integral(h, measure_knots(H), beta, x, upper, cfg, what,
                            affine=isinstance(H, TabulatedCdf))


def _stieltjes(g, H, beta, x, cfg):
    """(J_{beta,g} H)(x) at the points of the 1-D array x, beta > 0, checked,
    for a vectorized g; a point mass takes the exact atom formula."""
    what = f"weyl_stieltjes(beta={beta})"
    if not isinstance(H, PointMass):
        return _law_integral(lambda y: g(y) * np.asarray(H.pdf(y), dtype=float), H, beta, x,
                             H.upper, cfg, what)
    above = x < H.c
    gap = np.where(above, H.c - x, 1.0)
    val = float(g(H.c)) * gap ** (beta - 1.0) * math.exp(-sc.gammaln(beta))
    val = np.where(above, val, 0.0)
    cfg.check_points(x, val, np.zeros(x.size), what)
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
    val = _kernel_integral(np.vectorize(h, otypes=[float]), () if points is None else points,
                           beta, np.array([float(x)]), upper, cfg, f"weyl_integral(beta={beta})")
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
