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

from .distributions import Distribution, TabulatedCdf
from .errors import DomainError, NumericError, StageError
from .fractional import (QuadratureConfig, _gauss_kronrod, _kernel_terms, _quad_on_access,
                         _stieltjes, _stieltjes_terms, kernel_integral_cells,
                         measure_knots, power_weight)

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

__getattr__ = _quad_on_access(globals())


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
    and g(0-) for b > x/l_H, pieces that take their exact Beta mass from
    betainc / betaincc.  The single piece between them runs in b = Q_K(s)
    (see _node_map), s in [K(x/r_H), K(x/l_H)] with K the Kumaraswamy CDF.
    All points go through one call of fractional._gauss_kronrod at cfg's
    own tolerances, whose end-flat map of the piece absorbs the
    inverse-square-root singularity a density can leave at a piece end
    (Beta(1.5, .5) at r_H); each piece starts as its two halves (one when
    cfg.limit < 6).  The first failure of cfg.check_points in grid order
    names ``what`` and x.
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
    empty = 1.0 if kind == "cdf" else 0.0     # g(inf)
    law = getattr(H, kind)

    def integrand(piece, s):
        bb, weight = _node_map(alpha, beta, s)
        with np.errstate(divide="ignore", over="ignore"):
            y = x[owner[piece]][:, None] / bb
        finite = np.isfinite(y)
        vals = np.asarray(law(np.where(finite, y, 1.0).ravel()), dtype=float).reshape(y.shape)
        if kind == "pdf":
            vals = vals / np.where(finite, bb, 1.0)
        return np.where(finite, vals, empty) * weight

    value, error = _gauss_kronrod(integrand, owner, s_lo[owner], s_hi[owner], n, cfg.atol,
                                  cfg.rtol, cfg.limit, value, parts=2 if cfg.limit >= 6 else 1)
    cfg.check_points(x, value, error, what or (
        "mixture density quadrature" if kind == "pdf" else "mixture quadrature"))
    return value


def _weyl(H, p, x, kind, cfg):
    """x**alpha * (I_beta p_{-alpha-beta} G)(x) with G = H.cdf or H.sf, or
    x**(alpha-1) * (J_{beta, p_{1-alpha-beta}} H)(x), at every x of a 1-D
    array: the forward map without _const_K, checked under the operator's name."""
    if kind == "pdf":
        return x ** (p.alpha - 1.0) * _stieltjes(
            power_weight(1.0 - p.alpha - p.beta), H, p.beta, x, cfg)
    c = p.alpha + p.beta
    law = H.cdf if kind == "cdf" else H.sf
    upper = H.upper if kind == "sf" else math.inf
    val, err = _kernel_terms(lambda y: y ** (-c) * np.asarray(law(y), dtype=float), p.beta, x,
                             upper, measure_knots(H), cfg)
    cfg.check_points(x, val, err, f"weyl_integral(beta={p.beta})")
    return x ** p.alpha * val


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
        out[below] = _const_K(p.alpha, p.beta) * _weyl(H, p, flat[below], kind, cfg)
    out = (np.maximum(out, 0.0) if kind == "pdf" else np.clip(out, 0.0, 1.0)).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def forward_cdf(H, alpha, beta, x, mode="weyl", cfg=None):
    """CDF of B_{alpha,beta} * Y at x; ``mixture`` mode is the independent oracle.

    x may be an array: the result then has its shape (a float for scalar x),
    and either mode integrates all of its points at once.
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

    x may be a 1-D array, the grid of an inversion stage, which takes one
    pass over it: at delta = 0 the order-zero closed form on the whole
    array; for tabulated F one batch of cells, with one evaluation of F's
    cubic and its derivative per node for both integrals; for other laws
    one run of the adaptive engine per integral over the whole grid.  The
    first point in grid order that fails its check raises NumericError, or
    StageError naming ``stage`` and that x when a stage is given.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError("each inversion step removes an amount in (0, 1]")
    delta = 1.0 - lam
    if delta < 1e-12:
        delta = 0.0
    xs = np.atleast_1d(np.asarray(x, dtype=float))

    def sf_term(y):
        return y ** (-base - 1.0) * np.asarray(F.sf(y), dtype=float)

    def both_terms(y):
        sf, pdf = F.sf_pdf(y)
        return np.stack([y ** (-base - 1.0) * sf, y ** -base * pdf])

    try:
        if delta == 0.0:
            vals = base * sf_term(xs) + xs ** -base * np.asarray(F.pdf(xs), dtype=float)
        elif isinstance(F, TabulatedCdf):
            t1, t2 = kernel_integral_cells(
                both_terms, F.grid, delta, xs, F.upper, cfg,
                what=("inversion survivor integral", f"weyl_stieltjes(beta={delta})"))
            vals = base * t1 + t2
        else:
            t1, e1 = _kernel_terms(sf_term, delta, xs, F.upper, measure_knots(F), cfg)
            t2, e2 = _stieltjes_terms(power_weight(-base), F, delta, xs, cfg)
            cfg.check_points(xs, [t1, t2], [e1, e2],
                             (f"weyl_integral(beta={delta})", f"weyl_stieltjes(beta={delta})"))
            vals = base * t1 + t2
    except NumericError as exc:
        if stage is None:
            raise
        raise StageError(f"stage {stage} failed at x={exc.x}: {exc}", stage=stage,
                         estimate=exc.estimate, x=exc.x) from exc
    K = math.exp(sc.gammaln(base) - sc.gammaln(base + lam))
    out = np.clip(K * xs ** (base + lam) * vals, 0.0, 1.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def _survivor(step, x):
    """step(points) at the points x > 0 of a scalar or array x and survivor
    1.0 elsewhere, a float for scalar x; non-finite x raises DomainError."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("evaluation point must be finite")
    out = np.ones(xs.shape)
    if np.any(xs > 0):
        out[xs > 0] = step(xs[xs > 0])
    return float(out) if out.ndim == 0 else out


def invert_onestep(F, alpha, beta, x, cfg=None, allow_higher_order=False):
    """Survivor of Y at x when F is the law of B_{alpha,beta} * Y, beta <= 1.

    x may be a scalar or an array (a float or an array of its shape comes
    back); the survivor is 1.0 where x <= 0.  For beta > 1 the explicit
    formula needs an order-n derivative of noisy data; it is available
    behind ``allow_higher_order`` with central differencing, but the
    chained route (invert_iterative) is preferred.
    """
    p = _params(alpha, beta)
    cfg = cfg or QuadratureConfig()
    if p.beta <= 1.0:
        return _survivor(lambda xs: _full_step(F, p.alpha, p.beta, xs, cfg), x)
    if not allow_higher_order:
        raise DomainError("beta > 1 requires invert_iterative "
                          "(or pass allow_higher_order=True)")
    return _survivor(lambda xs: _invert_higher_order(F, p.alpha, p.beta, xs, cfg), x)


def _invert_higher_order(F, alpha, beta, x, cfg):
    """(-1)**n * Gamma(a)/Gamma(a+b) * x**(a+b) * (I_delta D^n p_{-a} sf_F)(x)
    at every point of the 1-D array x, with D^n g(y) by central differences
    of step n * max(1e-5, 1e-5 * y), capped at y / n so that every node
    y + (n/2 - k) * h stays at or above y / 2 > 0."""
    n = int(beta) if float(beta).is_integer() else int(math.floor(beta)) + 1
    delta = n - beta
    coeffs = [(-1.0) ** k * math.comb(n, k) for k in range(n + 1)]

    def dng(y):
        h = np.minimum(n * np.maximum(1e-5, 1e-5 * y), y / n)
        return sum(c * (y + (n / 2.0 - k) * h) ** (-alpha)
                   * np.asarray(F.sf(y + (n / 2.0 - k) * h), dtype=float)
                   for k, c in enumerate(coeffs)) / h ** n

    if delta == 0.0:
        val = dng(x)
    else:
        val, err = _kernel_terms(dng, delta, x, F.upper, measure_knots(F), cfg)
        cfg.check_points(x, val, err, f"weyl_integral(beta={delta})")
    val = val * (-1.0) ** n * math.exp(sc.gammaln(alpha) - sc.gammaln(alpha + beta)) \
        * x ** (alpha + beta)
    return np.clip(val, 0.0, 1.0)


def invert_step(F, alpha, lam, beta, x, cfg=None):
    """Partial inversion: peel the last beta factor of amount ``lam`` off F.

    F is the law of B_{alpha,beta} * Y; the return value is the survivor at
    x of the intermediate law carrying parameters (alpha, beta - lam), for
    scalar or array x as in invert_onestep.  The removed amount must lie in
    (0, 1]; lam = beta recovers invert_onestep.
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
    return _survivor(lambda xs: _full_step(F, p.alpha + target, lam, xs, cfg), x)


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
    difference, with step min(1e-4 * max(1, x), x / 2).  They agree when H
    has a density.
    """
    p = _params(alpha, beta)
    _check_forward_args(H, x)
    cfg = cfg or QuadratureConfig()
    step = min(1e-4 * max(1.0, x), 0.5 * x)
    below, above = _weyl(H, p, np.array([x - step, x + step]), "cdf", cfg)
    return float(_weyl(H, p, np.array([x]), "pdf", cfg)[0]), float((above - below) / (2.0 * step))


def chain_forward(H, params, x, cfg=None):
    """CDF at x (a scalar or an array) after applying a sequence of
    independent beta multipliers.

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
    out = np.clip(law.cdf(x), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


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
