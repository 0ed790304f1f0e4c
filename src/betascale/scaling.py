"""Beta random scaling: the forward map and its inversion.

For Y ~ H on [0, inf) and an independent beta multiplier B with parameters
(alpha, beta), the product X = B*Y has distribution function

    F(x) = Gamma(alpha+beta)/Gamma(alpha) * x**alpha * (I_beta p_{-alpha-beta} H)(x),

with the same identity holding for survivor functions and the density given
by the Stieltjes companion.  The map can be undone: one explicit step when
beta <= 1, or a chain of partial steps (each removing at most one unit of
the beta parameter) for larger beta, materializing intermediate laws as
tabulated CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc
# nothing here calls quad; perfbench/tracer.py wraps the module-level quad of
# every quadrature layer, so the name stays bound
from scipy.integrate import quad  # noqa: F401

from .distributions import Distribution, TabulatedCdf
from .errors import DomainError, NumericError, StageError
from .fractional import (QuadratureConfig, kernel_integral_cells, measure_knots,
                         power_weight, weyl_integral, weyl_stieltjes)

__all__ = [
    "ScalingParams",
    "IterationPlan",
    "forward_cdf",
    "forward_sf",
    "forward_pdf",
    "forward_tabulated",
    "invert_onestep",
    "invert_step",
    "invert_iterative",
    "corollary_check",
    "chain_forward",
]


@dataclass(frozen=True)
class ScalingParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise DomainError("scaling parameters must be positive and finite")


def _params(alpha, beta):
    return ScalingParams(float(alpha), float(beta))


def _points(x, what="evaluation point"):
    """x as a float array after checking that every entry is finite and positive."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError(f"{what} must be finite")
    if np.any(xs <= 0):
        raise DomainError(f"{what} must be positive")
    return xs


def _check_forward_args(H, x):
    if not isinstance(H, Distribution):
        raise DomainError("H must be a distribution")
    if H.lower < 0:
        raise DomainError("beta scaling requires a law on [0, inf)")
    return _points(x)


def _const_K(alpha, beta):
    return math.exp(sc.gammaln(alpha + beta) - sc.gammaln(alpha))


def _support_points(H):
    return measure_knots(H) or None


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
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_WK * half
    err = np.abs(resk - resg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # round-off floor
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def _node_map(alpha, beta, s):
    """(b, weight) at s in [0, 1]: b = (1 - (1 - s)**(1/beta))**(1/alpha), the
    Kumaraswamy(alpha, beta) quantile, and the density ratio f_B(b) / f_K(b)
    = ((1 - b) / (1 - b**alpha))**(beta - 1) / (alpha * beta * B(alpha, beta))
    of Beta(alpha, beta) to Kumaraswamy(alpha, beta), so that
    E[g(B)] = int_0^1 g(b) * weight ds.  Both laws have the endpoint exponents
    alpha - 1 and beta - 1, so the ratio is smooth and bounded on [0, 1].

    e = 1 - b**alpha = (1 - s)**(1/beta); log b comes from log1p(-e) or from
    log(b**alpha) = log(-expm1(log e)), whichever argument is the small one,
    and 1 - b from -expm1(log b), so b and 1 - b keep their relative accuracy
    near both ends.  e is floored at 1e-300, where b is 1 and the ratio
    1/alpha to double precision.
    """
    with np.errstate(divide="ignore"):
        log_e = np.log1p(-s) / beta
        e = np.maximum(np.exp(log_e), 1e-300)
        log_b = np.where(e < 0.5, np.log1p(-e), np.log(-np.expm1(log_e))) / alpha
    ratio = -np.expm1(log_b) / e
    return np.exp(log_b), ratio ** (beta - 1.0) * math.exp(
        -math.log(alpha * beta) - sc.betaln(alpha, beta))


def _mixture(H, alpha, beta, x, kind, cfg, what=None):
    """E[g(x / B)] for B ~ Beta(alpha, beta) at every x of a 1-D array of
    points below H.upper, with g = H.cdf ("cdf"), H.sf ("sf") or
    y -> H.pdf(y) / b ("pdf"): the mixture form of the forward map.

    Where x/b lies outside H's support g is constant: g(inf) for b < x/r_H
    and g(0-) for b > x/l_H.  Those pieces take their exact Beta mass from
    betainc / betaincc, and each point integrates the single piece between
    them.  On it, b = Q_K(s) (see _node_map) with s running over
    [K(x/r_H), K(x/l_H)] = [a, a + w], K(z) = 1 - (1 - z**alpha)**beta the
    Kumaraswamy CDF, and s = a + w * t**2 * (3 - 2t), t in [0, 1]: the flat
    ends of that map absorb the inverse-square-root singularities a density
    can leave at a piece end (Beta(1.5, .5) at r_H), which bisection in s
    cannot resolve to 1e-8 in double precision.

    Adaptive qk21 on all points at once: each piece starts as its two halves
    in t (one piece when cfg.limit < 6), every round applies the 21-point
    Gauss-Kronrod rule with QUADPACK's error estimate to the new
    subintervals of all points (at most _GK_CHUNK per call of the law,
    bounding memory), and each point still short of max(atol, rtol*|value|)
    bisects its largest-error subinterval, as QUADPACK does, while it holds
    fewer than cfg.limit.  Every point is then checked against cfg in grid
    order; the first failure raises NumericError naming its x, and
    ``what`` when given.
    """
    n = x.size
    b_lo = x / H.upper if math.isfinite(H.upper) else np.zeros(n)
    b_hi = np.minimum(x / H.lower, 1.0) if H.lower > 0 else np.ones(n)
    with np.errstate(divide="ignore"):
        s_lo, s_hi = (-np.expm1(beta * np.log1p(-b ** alpha)) for b in (b_lo, b_hi))
    if kind == "cdf":
        value = sc.betainc(alpha, beta, b_lo)
    elif kind == "sf":
        value = sc.betaincc(alpha, beta, b_hi)
    else:
        value = np.zeros(n)
    owner = np.flatnonzero(s_hi > s_lo)
    start, width = s_lo[owner], (s_hi - s_lo)[owner]

    empty = 1.0 if kind == "cdf" else 0.0     # g(inf)
    law = getattr(H, kind)

    def rule(piece, lo, hi):
        half = 0.5 * (hi - lo)
        t = 0.5 * (lo + hi)[:, None] + half[:, None] * _GK_X
        w = width[piece][:, None]
        bb, weight = _node_map(alpha, beta, start[piece][:, None] + w * t * t * (3.0 - 2.0 * t))
        with np.errstate(divide="ignore", over="ignore"):
            y = x[owner[piece]][:, None] / bb
        finite = np.isfinite(y)
        vals = np.asarray(law(np.where(finite, y, 1.0).ravel()), dtype=float).reshape(y.shape)
        if kind == "pdf":
            vals = vals / np.where(finite, bb, 1.0)
        return _qk21(np.where(finite, vals, empty) * weight * 6.0 * w * t * (1.0 - t), half)

    def evaluate(piece, lo, hi):
        out = [rule(piece[i:i + _GK_CHUNK], lo[i:i + _GK_CHUNK], hi[i:i + _GK_CHUNK])
               for i in range(0, piece.size, _GK_CHUNK)] or [(np.empty(0), np.empty(0))]
        return np.concatenate([v for v, _ in out]), np.concatenate([e for _, e in out])

    parts = 2 if cfg.limit >= 6 else 1
    piece = np.repeat(np.arange(owner.size), parts)
    lo = np.tile(np.arange(parts) / parts, owner.size)
    hi = lo + 1.0 / parts
    error = np.zeros(n)
    val, err = evaluate(piece, lo, hi)
    while piece.size:
        point = owner[piece]
        total = value + np.bincount(point, weights=val, minlength=n)
        etotal = np.bincount(point, weights=err, minlength=n)
        short = ((etotal > np.maximum(cfg.atol, cfg.rtol * np.abs(total)))
                 & (np.bincount(point, minlength=n) < cfg.limit))
        # each point's largest-error subinterval leads its run in this order
        order = np.lexsort((-err, point))
        lead = order[np.r_[True, point[order][1:] != point[order][:-1]]]
        mid = 0.5 * (lo + hi)
        # QUADPACK's test for a subinterval too small to split
        splittable = np.abs(hi) > (1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY)
        split = lead[short[point[lead]] & splittable[lead]]
        done = np.ones(n, dtype=bool)
        done[point[split]] = False
        done = done[point]
        value += np.bincount(point[done], weights=val[done], minlength=n)
        error += np.bincount(point[done], weights=err[done], minlength=n)
        stay = ~done
        stay[split] = False
        new_piece = np.tile(piece[split], 2)
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_val, new_err = evaluate(new_piece, new_lo, new_hi)
        piece = np.concatenate([piece[stay], new_piece])
        lo, hi = np.concatenate([lo[stay], new_lo]), np.concatenate([hi[stay], new_hi])
        val, err = np.concatenate([val[stay], new_val]), np.concatenate([err[stay], new_err])
    what = what or ("mixture density quadrature" if kind == "pdf" else "mixture quadrature")
    for xi, v, e in zip(x, value, error):
        cfg.check(v, e, f"{what} at x={float(xi)}")
    return value


def _weyl(H, p, x, kind, cfg):
    """One point of the fractional-operator form of the forward map, without
    the constant _const_K: x**alpha * (I_beta p_{-alpha-beta} G)(x) with G =
    H.cdf or H.sf, or x**(alpha-1) * (J_{beta, p_{1-alpha-beta}} H)(x)."""
    if kind == "pdf":
        return x ** (p.alpha - 1.0) * weyl_stieltjes(
            power_weight(1.0 - p.alpha - p.beta), H, p.beta, x, cfg=cfg)
    c = p.alpha + p.beta
    law = H.cdf if kind == "cdf" else H.sf
    upper = H.upper if kind == "sf" and math.isfinite(H.upper) else math.inf

    def h(y):
        return y ** (-c) * float(law(y))

    return x ** p.alpha * weyl_integral(h, p.beta, x, upper=upper, cfg=cfg,
                                        points=_support_points(H))


_AT_OR_ABOVE_UPPER = {"cdf": 1.0, "sf": 0.0, "pdf": 0.0}


def _forward(H, alpha, beta, x, kind, mode, cfg):
    p = _params(alpha, beta)
    xs = _check_forward_args(H, x)
    if mode not in ("weyl", "mixture"):
        raise DomainError(f"unknown forward mode {mode!r}")
    cfg = cfg or QuadratureConfig()
    flat = xs.ravel()
    out = np.full(flat.shape, _AT_OR_ABOVE_UPPER[kind])
    below = flat < H.upper
    if mode == "mixture":
        out[below] = _mixture(H, p.alpha, p.beta, flat[below], kind, cfg)
    else:
        out[below] = [_const_K(p.alpha, p.beta) * _weyl(H, p, float(v), kind, cfg)
                      for v in flat[below]]
    out = (np.maximum(out, 0.0) if kind == "pdf" else np.clip(out, 0.0, 1.0)).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def forward_cdf(H, alpha, beta, x, mode="weyl", cfg=None):
    """CDF of B_{alpha,beta} * Y at x; ``mixture`` mode is the independent oracle.

    x may be an array: the result then has its shape (a float for scalar x),
    and mixture mode integrates all of its points at once.
    """
    return _forward(H, alpha, beta, x, "cdf", mode, cfg)


def forward_sf(H, alpha, beta, x, mode="weyl", cfg=None):
    """Survivor function of B_{alpha,beta} * Y at x (scalar or array, as forward_cdf)."""
    return _forward(H, alpha, beta, x, "sf", mode, cfg)


def forward_pdf(H, alpha, beta, x, mode="weyl", cfg=None):
    """Density of B_{alpha,beta} * Y at x (scalar or array, as forward_cdf)."""
    return _forward(H, alpha, beta, x, "pdf", mode, cfg)


def forward_tabulated(H, alpha, beta, grid=None, n_points=200, q_max=1e-4,
                      mode="mixture", cfg=None):
    """Materialize the scaled law on a grid as a TabulatedCdf.

    The default grid is geometric on (0, x_max] with x_max the 1 - q_max
    quantile of the scaled law (bounded by r_H when finite).
    """
    p = _params(alpha, beta)
    # absolute tolerance relaxed: near the origin the scaled CDF is O(x),
    # and the default 1e-10 absolute target is unreachable for the
    # breakpointed mixture quadrature there
    cfg = cfg or QuadratureConfig(atol=1e-8, rtol=1e-8)
    if grid is None:
        x_hi = float(H.quantile(1.0 - q_max))
        if math.isfinite(H.upper):
            x_hi = min(x_hi, H.upper)
        x_lo = max(x_hi * 1e-4, 1e-8)
        grid = np.geomspace(x_lo, x_hi, n_points)
    vals = forward_cdf(H, p.alpha, p.beta, grid, mode=mode, cfg=cfg)
    return TabulatedCdf(grid, vals, rectify=True)


# ---------------------------------------------------------------------------
# inversion

def _full_step(F, base, lam, x, cfg, stage=None):
    """Remove one beta factor B_{base, lam} with lam in (0, 1].

    If F is the law of B_{base,lam} * Y this returns the survivor of Y at x:

        sf_Y(x) = Gamma(base)/Gamma(base+lam) * x**(base+lam)
                  * [base * (I_delta p_{-base-1} sf_F)(x)
                     + (J_{delta, p_{-base}} F)(x)],   delta = 1 - lam.

    delta = 0 invokes the order-zero conventions, so no numerical
    differentiation is involved: the density term comes from F's own pdf.

    x may be a 1-D array, the grid of an inversion stage.  For tabulated F
    and 0 < delta <= 1 both integrals of all points run as one batch of
    cells, with one evaluation of F's cubic and its derivative per node;
    other laws, and a batch that fails a check, take the points one
    at a time, in order, so that the first failure raises NumericError, or
    StageError naming ``stage`` and that x when a stage is given.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError("each inversion step removes an amount in (0, 1]")
    delta = 1.0 - lam
    if delta < 1e-12:
        delta = 0.0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    upper = F.upper if math.isfinite(F.upper) else math.inf
    cells = isinstance(F, TabulatedCdf) and 0.0 < delta <= 1.0

    def sf_term(y):
        return y ** (-base - 1.0) * np.asarray(F.sf(y), dtype=float)

    def both_terms(y):
        sf, pdf = F.sf_pdf(y)
        return np.stack([y ** (-base - 1.0) * sf, y ** -base * pdf])

    vals = None
    if cells:
        try:
            t1, t2 = kernel_integral_cells(
                both_terms, F.grid, delta, xs, upper, cfg,
                what=("inversion survivor integral", f"weyl_stieltjes(beta={delta})"))
            vals = base * t1 + t2
        except NumericError:
            pass
    if vals is None:
        vals = np.empty_like(xs)
        for j, xj in enumerate(map(float, xs)):
            try:
                if cells:
                    t1 = kernel_integral_cells(sf_term, F.grid, delta, xj, upper, cfg,
                                               what=f"inversion survivor integral (x={xj})")
                else:
                    t1 = weyl_integral(sf_term, delta, xj, upper=upper, cfg=cfg,
                                       points=_support_points(F))
                vals[j] = base * t1 + weyl_stieltjes(power_weight(-base), F, delta, xj, cfg=cfg)
            except NumericError as exc:
                if stage is None:
                    raise
                raise StageError(f"stage {stage} failed at x={xj}: {exc}", stage=stage,
                                 estimate=exc.estimate) from exc
    K = math.exp(sc.gammaln(base) - sc.gammaln(base + lam))
    out = np.clip(K * xs ** (base + lam) * vals, 0.0, 1.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def invert_onestep(F, alpha, beta, x, cfg=None, allow_higher_order=False):
    """Survivor of Y at x when F is the law of B_{alpha,beta} * Y, beta <= 1.

    For beta > 1 the explicit formula needs an order-n derivative of noisy
    data; it is available behind ``allow_higher_order`` with central
    differencing, but the chained route (invert_iterative) is preferred.
    """
    p = _params(alpha, beta)
    cfg = cfg or QuadratureConfig()
    if x <= 0:
        return 1.0
    if p.beta <= 1.0:
        return _full_step(F, p.alpha, p.beta, x, cfg)
    if not allow_higher_order:
        raise DomainError("beta > 1 requires invert_iterative "
                          "(or pass allow_higher_order=True)")
    return _invert_higher_order(F, p.alpha, p.beta, x, cfg)


def _invert_higher_order(F, alpha, beta, x, cfg):
    """(-1)**n * Gamma(a)/Gamma(a+b) * x**(a+b) * (I_delta D^n p_{-a} sf_F)(x)."""
    n = int(beta) if float(beta).is_integer() else int(math.floor(beta)) + 1
    delta = n - beta
    h = max(1e-5, 1e-5 * x) * n

    def g(y):
        return y ** (-alpha) * float(F.sf(y))

    coeffs = [(-1.0) ** k * math.comb(n, k) for k in range(n + 1)]

    def dng(y):
        return sum(c * g(y + (n / 2.0 - k) * h) for k, c in enumerate(coeffs)) / h ** n

    upper = F.upper if math.isfinite(F.upper) else math.inf
    val = weyl_integral(dng, delta, x, upper=upper, cfg=cfg)
    val *= (-1.0) ** n * math.exp(sc.gammaln(alpha) - sc.gammaln(alpha + beta)) \
        * x ** (alpha + beta)
    return min(max(val, 0.0), 1.0)


def invert_step(F, alpha, lam, beta, x, cfg=None):
    """Partial inversion: peel the last beta factor of amount ``lam`` off F.

    F is the law of B_{alpha,beta} * Y; the return value is the survivor at
    x of the intermediate law carrying parameters (alpha, beta - lam).  The
    removed amount must lie in (0, 1]; lam = beta recovers invert_onestep.
    """
    p = _params(alpha, beta)
    cfg = cfg or QuadratureConfig()
    lam = float(lam)
    if not 0.0 < lam <= min(p.beta, 1.0) + 1e-12:
        raise DomainError("step amount must lie in (0, min(beta, 1)]")
    lam = min(lam, p.beta, 1.0)
    target = p.beta - lam
    if target >= 1.0:
        raise DomainError("remaining order beta - lam must lie in [0, 1); "
                          "use an iteration plan with more stages")
    return _full_step(F, p.alpha + target, lam, x, cfg)


@dataclass
class IterationPlan:
    """Decreasing breakpoints beta = b_0 > b_1 > ... > b_k > 0 (0 appended).

    Stage i removes lam_i = b_{i-1} - b_i, each in (0, 1].
    """

    breakpoints: list = field(default_factory=list)

    def __post_init__(self):
        bps = [float(b) for b in self.breakpoints]
        if not all(math.isfinite(b) for b in bps):
            raise DomainError("plan breakpoints must be finite")
        if bps and bps[-1] == 0.0:
            bps = bps[:-1]
        if not bps:
            raise DomainError("iteration plan needs at least one breakpoint")
        full = bps + [0.0]
        lams = [full[i] - full[i + 1] for i in range(len(full) - 1)]
        if any(l <= 0.0 or l > 1.0 + 1e-12 for l in lams):
            raise DomainError("plan breakpoints must decrease in steps of (0, 1]")
        self.breakpoints = bps
        self.lams = [min(l, 1.0) for l in lams]
        self.deltas = [1.0 - l for l in self.lams]

    @property
    def beta(self):
        return self.breakpoints[0]

    @classmethod
    def parse(cls, text):
        return cls([float(t) for t in str(text).split(",") if t.strip() != ""])

    @classmethod
    def default_for(cls, beta):
        """Split beta into equal steps of size <= 1."""
        k = int(math.ceil(beta - 1e-12))
        return cls([beta * (k - i) / k for i in range(k)])


def invert_iterative(F, alpha, plan, grid, cfg=None, mono_tol=1e-3):
    """Undo scaling by B_{alpha, beta} through the plan's chain of steps.

    Each stage removes one sub-unit amount and materializes the intermediate
    law on ``grid`` as a monotone-rectified TabulatedCdf; the return value
    is the recovered base law.  A stage whose raw values violate
    monotonicity by more than ``mono_tol`` raises a stage error.
    """
    if not isinstance(plan, IterationPlan):
        plan = IterationPlan(list(plan))
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    # the recovered CDF is only accurate to the tabulation error (~1e-3),
    # so the default 1e-10 absolute quadrature floor buys nothing and can
    # fail spuriously deep in the tail of the extended working grid
    cfg = cfg or QuadratureConfig(atol=1e-6, rtol=1e-6)
    grid = _points(grid, "grid")
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing and positive")

    # Work on a denser superset of the query grid.  Intermediate tabulations
    # feed the next stage's integrals, so they must (a) reach the upper tail
    # of F -- truncating at the query grid loses mass -- and (b) stay fine
    # where the query grid is coarse, or interpolation error compounds.
    hi = F.upper if math.isfinite(F.upper) else float(F.quantile(1.0 - 1e-6))
    hi = max(hi, grid[-1])
    work = np.union1d(grid, np.linspace(grid[0], hi, max(3 * grid.size, 120)))
    grid = work[work > 0]

    current = F
    targets = plan.breakpoints[1:] + [0.0]
    for i, (lam, target) in enumerate(zip(plan.lams, targets), start=1):
        sf_vals = _full_step(current, alpha + target, lam, grid, cfg, stage=i)
        cdf_vals = 1.0 - sf_vals
        drops = np.diff(cdf_vals)
        worst = float(-drops.min()) if drops.size else 0.0
        if worst > mono_tol:
            raise StageError(
                f"stage {i}: monotonicity violated by {worst:.3e} before rectification",
                stage=i)
        current = TabulatedCdf(grid, cdf_vals, rectify=True)
    return current


# ---------------------------------------------------------------------------
# consistency checks and chains

def corollary_check(H, alpha, beta, x, cfg=None):
    """Both sides of the density identity, as (LHS, RHS).

    LHS: x**(alpha-1) * (J_{beta, p_{1-alpha-beta}} H)(x).
    RHS: d/dx [ x**alpha * (I_beta p_{-alpha-beta} H)(x) ] by central
    difference.  They agree when H has a density.
    """
    p = _params(alpha, beta)
    _check_forward_args(H, x)
    cfg = cfg or QuadratureConfig()
    step = 1e-4 * max(1.0, x)
    rhs = (_weyl(H, p, x + step, "cdf", cfg) - _weyl(H, p, x - step, "cdf", cfg)) / (2.0 * step)
    return _weyl(H, p, x, "pdf", cfg), rhs


def chain_forward(H, params, x, cfg=None):
    """CDF at x after applying a sequence of independent beta multipliers.

    Each entry of ``params`` is a ScalingParams or an (alpha, beta) pair;
    the empty chain returns H(x).  Evaluation nests the mixture engine
    functionally, with no intermediate tabulation: level k is the mixture
    over the k-th multiplier of level k - 1, whose CDF at all nodes of a
    round is one call of the engine.  Every level checks its points against
    cfg, so a miss raises NumericError naming the level and the point.
    """
    x = _points(x)
    cfg = cfg or QuadratureConfig(atol=1e-11, rtol=1e-10)
    pairs = [(p.alpha, p.beta) if isinstance(p, ScalingParams)
             else (_params(*p).alpha, _params(*p).beta) for p in params]
    law = H
    for level, (a, b) in enumerate(pairs, start=1):
        law = _Chained(law, a, b, cfg, f"chain_forward level {level}")
    return float(np.clip(law.cdf(x), 0.0, 1.0))


class _Chained:
    """The law of B * Y for Y ~ ``inner`` and B ~ Beta(alpha, beta), as far
    as the mixture engine uses it: its support and a vectorised CDF."""

    def __init__(self, inner, alpha, beta, cfg, what):
        self.inner, self.alpha, self.beta, self.cfg, self.what = inner, alpha, beta, cfg, what
        self.lower, self.upper = 0.0, inner.upper

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.ones(z.shape)
        below = z < self.upper
        out[below] = _mixture(self.inner, self.alpha, self.beta, z[below], "cdf", self.cfg,
                              what=self.what)
        return out
