"""Estimator pipeline for elliptical samples with Weibull-type radial tails.

From (u, v) pairs: a rank-based correlation estimate, pseudo-radii, a
log-spacing estimator of the Weibull tail exponent theta from the top k_n
order statistics, the companion scale estimate r, and plug-in Gaussian
conditional survivor / quantile estimators built from the fitted scaling
function w(x) = r*theta*x**(theta-1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc

from .errors import DomainError, NumericError, StageError

__all__ = [
    "SampleBatch",
    "EstimatorConfig",
    "TailFitResult",
    "PipelineResult",
    "kendall_rho",
    "pseudo_radii",
    "gg_theta",
    "r_hat",
    "w_hat",
    "h_hat",
    "psi_hat",
    "quantile_hat",
    "pipeline",
]


@dataclass
class SampleBatch:
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise DomainError("u and v must be 1-d arrays of equal length")
        if self.u.size < 2:
            raise DomainError("need at least two pairs")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise DomainError("sample contains non-finite values")

    @property
    def n(self):
        return self.u.size

    @classmethod
    def from_pairs(cls, pairs):
        pairs = np.asarray(pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DomainError(f"pairs must be an (n, 2) array, got shape {pairs.shape}")
        return cls(pairs[:, 0], pairs[:, 1])


@dataclass
class EstimatorConfig:
    k_n: int | None = None        # default ceil(n**0.6), capped at n // 3
    radius_source: str = "R1"

    def resolve_k(self, n):
        """k_n for a sample of n, capped at n // 3; an explicit k_n <= 0 or
        a sample with n // 3 < 1 raises DomainError, as does a k_n that is
        not an integer."""
        if self.k_n is not None and not (isinstance(self.k_n, numbers.Integral) and self.k_n >= 1):
            raise DomainError(f"k_n must be a positive integer, got {self.k_n}")
        k = self.k_n if self.k_n is not None else int(math.ceil(n ** 0.6))
        k = min(k, n // 3)
        if k < 1:
            raise DomainError("sample too small for tail fitting")
        return k


@dataclass
class TailFitResult:
    theta: float
    r: float
    source: str
    k_n: int
    n_used: int
    n_dropped: int = 0


@dataclass
class PipelineResult:
    tau: float
    rho: float
    fit: TailFitResult
    warnings: list = field(default_factory=list)

    def psi(self, x, y):
        return psi_hat(self.fit, self.rho, x, y)

    def theta_fn(self, x, s):
        return quantile_hat(self.fit, self.rho, x, s)


# ---------------------------------------------------------------------------
# Kendall's tau

def _run_starts(xs):
    """True where sorted ``xs`` starts a run of equal values."""
    starts = np.empty(xs.size, dtype=bool)
    starts[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=starts[1:])
    return starts


def _tied_pairs(starts):
    """Number of pairs sharing a value, from the run starts of the sorted values."""
    if starts.all():
        return 0
    counts = np.diff(np.append(np.flatnonzero(starts), starts.size))
    return int(np.sum(counts * (counts - 1) // 2))


_BLOCK_LEVELS = 5                # merge levels 0-4 are one pass over blocks of 32
_BLOCK = 1 << _BLOCK_LEVELS


def _key_dtype(n):
    """The key dtype of ``_inversions`` on n ranks: a key (pair, rank, side)
    of merge level s takes 2*bits - s bits, where bits is the bit length of
    n - 1, so level 5's keys, the widest, fit in uint32 for n <= 2**18."""
    bits = max(int(n - 1).bit_length(), 1)
    return np.uint32 if 2 * bits - _BLOCK_LEVELS <= 32 else np.int64


def _block_inversions(ranks):
    """Inversions inside each block of 32 positions of integer ``ranks`` (and
    inside the shorter last block), from the ranks d = 1..31 apart."""
    m = ranks.size - ranks.size % _BLOCK
    # row i holds element i of every whole block, so each comparison is contiguous
    cols = ranks[:m].reshape(-1, _BLOCK).T.astype(np.int32, order="C")
    tail = ranks[m:]
    return sum(int(np.count_nonzero(cols[:-d] > cols[d:]))
               + int(np.count_nonzero(tail[:-d] > tail[d:])) for d in range(1, _BLOCK))


def _right_positions(n, s):
    """Sum of the positions 0..n-1 with bit s set, the right blocks of merge
    level s: q whole pairs of blocks of b = 2**s, then c positions more."""
    b = 1 << s
    q, r = divmod(n, 2 * b)
    c = max(r - b, 0)
    return (q * b * (2 * q * b + b - 1) + c * (4 * q * b + 2 * b + c - 1)) // 2


def _inversions(ranks):
    """Number of strict inversions (ranks[i] > ranks[j], i < j) of integer
    ranks in [0, n), n < 2**31, by bottom-up merge levels.

    The first ``_BLOCK_LEVELS`` levels are one pass over the blocks of
    ``_BLOCK`` positions (``_block_inversions``).  Each later level s sorts
    every pair of blocks of 2**s positions at once, as keys (pair, rank,
    side).  An element of a right block moves left by the number of larger
    elements of its left block, which are its inversions across the two
    blocks; equal ranks keep the left block first.  The moves do not depend
    on the order inside a block, so the first blocks are merged unsorted.
    A level's count is the positions of its right-block elements before the
    sort, a closed form in (n, s) (``_right_positions``), minus their
    positions after it, one int64 dot product with the int64 side bits;
    neither sum exceeds n(n-1)/2 < 2**63.  The keys are uint32 where the
    widest of them fits in 32 bits, and int64 above (``_key_dtype``).
    """
    n = len(ranks)
    bits = max(int(n - 1).bit_length(), 1)
    ranks = np.asarray(ranks)
    count = _block_inversions(ranks)
    dtype = _key_dtype(n)
    pos = np.arange(n, dtype=np.int64)
    at = pos.astype(dtype, copy=False)
    ranks2 = ranks.astype(dtype)
    ranks2 <<= 1
    key = np.empty(n, dtype=dtype)
    bit = np.empty(n, dtype=dtype)
    side = np.empty(n, dtype=np.int64)
    for s in range(_BLOCK_LEVELS, bits):
        np.right_shift(at, s, out=bit)
        bit &= 1                                     # 1 in right blocks
        np.right_shift(at, s + 1, out=key)
        key <<= bits + 1
        key |= ranks2
        key |= bit
        key.sort()
        np.bitwise_and(key, 1, out=side)
        count += _right_positions(n, s) - int(pos @ side)   # positions before - after
        np.bitwise_and(key, ((1 << bits) - 1) << 1, out=ranks2)
    return count


def _sort_u_ties(su, seq):
    """(seq, joint): v's ranks ``seq``, in the order of u sorted with run
    starts ``su``, sorted by the int64 key (u rank, v rank) so that v ascends
    within each run of tied u; and the number of pairs tied in both."""
    key = (np.cumsum(su) - 1) * seq.size + seq
    key.sort()
    return key % seq.size, _tied_pairs(_run_starts(key))


def kendall_rho(batch: SampleBatch):
    """(tau, rho): tau with ties counted as zero, rho = sin(pi*tau/2).

    v's dense ranks, gathered in u order from one argsort per column, have
    the discordant pairs as strict inversions once v ascends within each run
    of tied u (``_sort_u_ties``, run only when u has such a run)."""
    n = batch.n
    n0 = n * (n - 1) // 2
    ou = np.argsort(batch.u)
    su = _run_starts(batch.u[ou])
    if not su[1:].any():
        raise DomainError("Kendall's tau undefined: all u values tied")
    ov = np.argsort(batch.v)
    sv = _run_starts(batch.v[ov])
    if not sv[1:].any():
        raise DomainError("Kendall's tau undefined: all v values tied")
    rv = np.empty(n, dtype=np.int32)                 # n < 2**31, as _inversions needs
    rv[ov] = np.cumsum(sv, dtype=np.int32) - 1
    seq = rv[ou]
    ties = _tied_pairs(sv)
    if not su.all():
        seq, joint = _sort_u_ties(su, seq)
        ties += _tied_pairs(su) - joint
    tau = (n0 - ties - 2 * _inversions(seq)) / n0
    rho = math.sin(math.pi * tau / 2.0)
    return tau, rho


# ---------------------------------------------------------------------------
# radii and tail fit

def _source_radii(batch: SampleBatch, rho, source):
    """The radii of one source: "R1" (u), "R2" (the elliptical radii implied
    by rho) or "V" (v).  Every source needs |rho| < 1."""
    if not -1.0 < rho < 1.0:
        raise DomainError("need |rho| < 1 for pseudo-radii")
    if source == "R2":
        resid = (batch.v - rho * batch.u) / math.sqrt(1.0 - rho ** 2)
        return np.sqrt(batch.u ** 2 + resid ** 2)
    return batch.u if source == "R1" else batch.v


def pseudo_radii(batch: SampleBatch, rho):
    """(R1, R2): the raw u-coordinates and the elliptical radii implied by rho."""
    r2 = _source_radii(batch, rho, "R2")
    return batch.u.copy(), r2


def _top_order_stats(radii, k):
    """(top, n, k, dropped): the top k order statistics of the positive radii,
    ascending, with k capped at n - 1, where n is the number of positive
    radii and dropped the number of the others.  A non-finite radius raises
    DomainError."""
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii)):
        raise DomainError("radii must be finite")
    pos = radii[radii > 0]
    dropped = radii.size - pos.size
    n = pos.size
    if n < 3:
        raise DomainError("too few positive radii for tail fitting")
    k = min(k, n - 1)
    if k < 1:
        raise DomainError("too few positive radii for the requested k_n")
    top = np.sort(np.partition(pos, n - k)[n - k:])   # R_{n-k+1:n} .. R_{n:n} ascending
    return top, n, k, dropped


def _theta_from_top(top, n, k):
    pivot_log = math.log(top[0])         # log R_{n-k+1:n} (the k-th largest)
    base = math.log(n / k)
    if base <= 0.0:
        raise DomainError("k_n too large: need k_n < n")
    log_ratio = np.log(n / np.arange(1, k + 1))      # log(n/i), i = 1..k
    keep = log_ratio > 1.0
    kept = int(np.sum(keep))
    m_sum = float(np.sum(np.log(top[::-1][keep]) - pivot_log))
    t_sum = float(np.sum(np.log(log_ratio[keep]) - math.log(base)))
    if kept == 0 or m_sum <= 0.0:
        raise NumericError("degenerate tail: top order statistics coincide")
    return (t_sum / kept) / (m_sum / kept)


def _scale_from_top(top, n, k, theta):
    val = float(np.sum(np.log(n / np.arange(1, k + 1)) / top[::-1] ** theta)) / k
    if val <= 0:
        raise NumericError("nonpositive scale estimate")
    return val


def gg_theta(radii, k_n):
    """Log-spacing estimate of theta in sf(x) = exp(-r x**theta (1 + o(1))).

    theta_hat = T_n / M_n with
      M_n = (1/k) sum_i [log R_{n-i+1:n} - log R_{n-k+1:n}]
      T_n = (1/k) sum_i [log log(n/i) - log log(n/k)]
    Terms with log(n/i) <= 1 are excluded from both sums, which preserves
    the exact identity theta_hat = theta on exact Weibull quantiles.
    """
    top, n, k, _ = _top_order_stats(radii, k_n)
    return _theta_from_top(top, n, k)


def r_hat(radii, theta, k_n):
    """Scale estimate (1/k) sum_i log(n/i) / R_{n-i+1:n}**theta."""
    if not (math.isfinite(theta) and theta > 0):
        raise DomainError(f"theta must be positive and finite, got {theta!r}")
    top, n, k, _ = _top_order_stats(radii, k_n)
    return _scale_from_top(top, n, k, theta)


def w_hat(fit: TailFitResult, x):
    """Fitted scaling function w(x) = r*theta*x**(theta-1)."""
    if not (math.isfinite(x) and x > 0):
        raise DomainError("x must be positive and finite")
    return fit.r * fit.theta * x ** (fit.theta - 1.0)


def h_hat(fit: TailFitResult, x):
    """sqrt(w_hat(x)/x), the standardization rate of the conditional limit."""
    return math.sqrt(w_hat(fit, x) / x)


def psi_hat(fit: TailFitResult, rho, x, y):
    """Plug-in Gaussian estimate of P(V > y | U > x)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("conditioning level and threshold must be finite")
    if not -1.0 < rho < 1.0:
        raise DomainError("need |rho| < 1")
    z = h_hat(fit, x) * (y - rho * x) / math.sqrt(1.0 - rho ** 2)
    return float(sc.ndtr(-z))


def quantile_hat(fit: TailFitResult, rho, x, s):
    """Plug-in conditional quantile: the exact inverse of psi_hat in y."""
    if not 0.0 < s < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    if not -1.0 < rho < 1.0:
        raise DomainError("need |rho| < 1")
    return rho * x + math.sqrt(1.0 - rho ** 2) * float(sc.ndtri(s)) / h_hat(fit, x)


# ---------------------------------------------------------------------------
# pipeline

def pipeline(batch: SampleBatch, cfg: EstimatorConfig | None = None):
    """kendall_rho -> pseudo_radii -> gg_theta -> r_hat, with bound estimators."""
    cfg = cfg or EstimatorConfig()
    # the config is checked before any stage runs, so a bad one costs nothing
    source = cfg.radius_source.upper()
    if source not in ("R1", "R2", "V"):
        raise DomainError(f"unknown radius source {cfg.radius_source!r}")
    k = cfg.resolve_k(batch.n)
    warnings = []
    if batch.n < 100:
        warnings.append("small sample: n < 100; tail estimates are unreliable")
    if cfg.k_n is not None and k < cfg.k_n:
        warnings.append(f"k_n={cfg.k_n} capped at n // 3 = {k}")
    try:
        tau, rho = kendall_rho(batch)
    except (DomainError, NumericError) as exc:
        raise StageError(f"correlation stage failed: {exc}", stage="kendall") from exc
    try:
        radii = _source_radii(batch, rho, source)
    except (DomainError, NumericError) as exc:
        raise StageError(f"radius stage failed: {exc}", stage="radii") from exc
    try:
        top, n_used, k, dropped = _top_order_stats(radii, k)
        theta = _theta_from_top(top, n_used, k)
        r = _scale_from_top(top, n_used, k, theta)
    except (DomainError, NumericError) as exc:
        raise StageError(f"tail-fit stage failed: {exc}", stage="tail_fit") from exc
    if dropped:
        warnings.append(f"excluded {dropped} nonpositive radii from tail fitting")
    fit = TailFitResult(theta=theta, r=r, source=source, k_n=k,
                        n_used=n_used, n_dropped=dropped)
    return PipelineResult(tau=tau, rho=rho, fit=fit, warnings=warnings)
