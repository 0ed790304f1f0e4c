"""Array paths of the sample-based layers against scalar and brute-force
references: the Kendall count, tabulated and Kotz quantiles, the arc
half-widths and the importance sampler's standard error."""

import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from betascale import (
    DomainError,
    EllipticalModel,
    Kotz,
    Rayleigh,
    SampleBatch,
    TabulatedCdf,
    conditional_density_point,
    kendall_rho,
    make_rng,
    sample_elliptical,
)
from betascale.elliptical import _exceed_montecarlo, _half_widths
from betascale import estimation
from betascale.estimation import (_BLOCK_LEVELS, _inversions, _key_dtype, _right_positions,
                                  _top_order_stats)


# ---------------------------------------------------------------------------
# Kendall's tau

def brute_tau(u, v):
    """O(n^2) tau-a: (concordant - discordant) / (n choose 2), ties count 0."""
    n = len(u)
    s = sum(np.sign(u[i] - u[j]) * np.sign(v[i] - v[j])
            for i in range(n) for j in range(i + 1, n))
    return s / (n * (n - 1) // 2)


tie_heavy = st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(tie_heavy)
def test_kendall_matches_brute_force_with_ties(uv):
    u, v = (np.array(c, dtype=float) for c in uv)
    if np.all(u == u[0]) or np.all(v == v[0]):
        with pytest.raises(DomainError):
            kendall_rho(SampleBatch(u, v))
        return
    tau, rho = kendall_rho(SampleBatch(u, v))
    assert tau == pytest.approx(brute_tau(u, v), abs=1e-15)
    assert rho == math.sin(math.pi * tau / 2.0)


@pytest.mark.parametrize("u, v, which", [
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "u"),
    ([1.0, 2.0, 3.0], [0.0, -0.0, 0.0], "v"),
    ([5.0, 5.0], [5.0, 5.0], "u"),
])
def test_kendall_all_tied_raises(u, v, which):
    with pytest.raises(DomainError, match=f"all {which} values tied"):
        kendall_rho(SampleBatch(u, v))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=70))
def test_inversions_brute_force(ranks):
    r = np.array(ranks)
    n = r.size
    ranks = np.unique(r, return_inverse=True)[1]
    expect = sum(int(ranks[i] > ranks[j]) for i in range(n) for j in range(i + 1, n))
    assert _inversions(ranks) == expect


def test_kendall_large_sample_against_brute_force_blocks():
    """A 3000-pair sample with heavy ties against the O(n^2) count."""
    rng = make_rng(17)
    u = np.round(rng.normal(size=3000), 1)
    v = np.round(u + rng.normal(size=3000), 1)
    du = np.sign(u[:, None] - u[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    expect = np.triu(du * dv, 1).sum() / (3000 * 2999 // 2)
    assert kendall_rho(SampleBatch(u, v))[0] == pytest.approx(expect, abs=1e-15)


def merge_level_inversions(ranks):
    """The bottom-up merge count with one int64 sort per level from level 0,
    as ``_inversions`` counted before its 16-wide block base and 32-bit keys."""
    n = len(ranks)
    bits = max(int(n - 1).bit_length(), 1)
    pos = np.arange(n, dtype=np.int64)
    ranks2 = np.asarray(ranks, dtype=np.int64) << 1
    key = np.empty(n, dtype=np.int64)
    side = np.empty(n, dtype=np.int64)
    count = 0
    s = 0
    while (1 << s) < n:
        np.right_shift(pos, s, out=side)
        side &= 1
        np.right_shift(pos, s + 1, out=key)
        key <<= bits + 1
        key |= ranks2
        key |= side
        key.sort()
        count += int(pos @ side)
        np.bitwise_and(key, 1, out=side)
        count -= int(pos @ side)
        np.bitwise_and(key, ((1 << bits) - 1) << 1, out=ranks2)
        s += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 2 ** 16 + 1, 2 ** 18 + 1])
@pytest.mark.parametrize("kind", ["tie-heavy", "decreasing", "sorted"])
def test_inversions_against_merge_levels_at_every_regime_boundary(n, kind):
    """Sizes at the block base's edges (one block, a ragged last block) and at
    the key width's edge (2**18 + 1 is the first n with int64 keys)."""
    ranks = {"tie-heavy": make_rng(n).integers(0, 3, size=n),
             "decreasing": np.arange(n)[::-1],
             "sorted": np.arange(n)}[kind]
    count = _inversions(ranks)
    assert count == merge_level_inversions(ranks)
    if kind != "tie-heavy":
        assert count == (n * (n - 1) // 2 if kind == "decreasing" else 0)


@pytest.mark.parametrize("n", [5, 2 ** 7 + 3, 2 ** 16 + 1, 2 ** 18 + 1])
def test_inversions_of_random_permutations_against_merge_levels(n):
    ranks = make_rng(n).permutation(n)
    assert _inversions(ranks) == merge_level_inversions(ranks)


@pytest.mark.parametrize("n, dtype", [
    (2, np.uint32), (17, np.uint32), (200_000, np.uint32), (2 ** 18, np.uint32),
    (2 ** 18 + 1, np.int64), (2 ** 31 - 1, np.int64)])
def test_key_width(n, dtype):
    assert _key_dtype(n) is dtype


def rayleigh_batch():
    """200k Rayleigh pairs at rho = 0.5, the law and size ``elliptical_estimate`` fits."""
    pairs = sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 200_000, seed=11)
    return SampleBatch.from_pairs(pairs)


def joint_v_ranks(batch):
    """The v ranks of the pairs in (u, v) order, as ``kendall_rho`` counts
    them, from a dense ranking of each column and one int64 sort of the keys
    (u rank, v rank)."""
    n = batch.n
    ranks = []
    for x in (batch.u, batch.v):
        order = np.argsort(x)
        xs = x[order]
        r = np.empty(n, dtype=np.int64)
        r[order] = np.cumsum(np.append(True, xs[1:] != xs[:-1])) - 1
        ranks.append(r)
    key = ranks[0] * n + ranks[1]
    key.sort()
    return key % n


def test_kendall_tau_bit_equal_to_merge_levels_on_200k_pairs():
    batch = rayleigh_batch()
    n = batch.n
    n0 = n * (n - 1) // 2
    assert np.unique(batch.u).size == n == np.unique(batch.v).size   # no tied pairs
    tau = (n0 - 2 * merge_level_inversions(joint_v_ranks(batch))) / n0
    assert kendall_rho(batch) == (tau, math.sin(math.pi * tau / 2.0))


def oracle_kendall(batch):
    """(tau, rho) from ``joint_v_ranks`` counted by ``merge_level_inversions``,
    with the tied pairs counted by ``np.unique`` on each column's ranks and
    on the pairs' joint keys."""
    n = batch.n
    n0 = n * (n - 1) // 2
    ru, rv = (np.unique(x, return_inverse=True)[1] for x in (batch.u, batch.v))

    def tied(x):
        counts = np.unique(x, return_counts=True)[1].astype(np.int64)
        return int(np.sum(counts * (counts - 1) // 2))

    ties = tied(ru) + tied(rv) - tied(ru * n + rv)
    tau = (n0 - ties - 2 * merge_level_inversions(joint_v_ranks(batch))) / n0
    return tau, math.sin(math.pi * tau / 2.0)


@pytest.fixture(scope="module")
def rayleigh():
    return rayleigh_batch()


def with_ties(batch, kind):
    """``batch`` with ties put into u only, v only or both by rounding, or
    with signed zeros (0.0 and -0.0, which tie) put into both."""
    u, v = batch.u.copy(), batch.v.copy()
    if kind == "u":
        u = np.round(u, 2)
    elif kind == "v":
        v = np.round(v, 2)
    elif kind == "both":
        u, v = np.round(u, 1), np.round(v, 1)
    else:
        u[::5], u[2::5], v[1::7], v[3::7] = 0.0, -0.0, -0.0, 0.0
    return SampleBatch(u, v)


@pytest.mark.parametrize("kind", ["u", "v", "both", "signed zeros"])
def test_kendall_with_ties_bit_equal_to_merge_levels_on_200k_pairs(rayleigh, kind, monkeypatch):
    """The tie key sort runs exactly when u has a tied run."""
    batch = with_ties(rayleigh, kind)
    sorts = []
    sort_u_ties = estimation._sort_u_ties
    monkeypatch.setattr(estimation, "_sort_u_ties",
                        lambda *args: sorts.append(1) or sort_u_ties(*args))
    assert kendall_rho(batch) == oracle_kendall(batch)
    assert len(sorts) == (np.unique(batch.u).size < batch.n) == (kind != "v")


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 2 ** 16 + 1, 2 ** 18 + 1])
def test_right_positions_closed_form_against_brute_force(n):
    """The sum of the right-block positions at every merge level s."""
    pos = np.arange(n)
    for s in range(max((n - 1).bit_length(), 1)):
        assert _right_positions(n, s) == int(pos[((pos >> s) & 1).astype(bool)].sum())


def kendall_report(repeats=5):
    """Seconds of kendall_rho on ``rayleigh_batch``, of its ranking stage
    alone (with the inversion count stubbed out), and of ``_inversions`` and
    ``merge_level_inversions`` on its v ranks (best of ``repeats``); then the
    number of sort passes on int64 and on uint32 keys, and the number of
    kendall_rho calls that ran the tie key sort."""
    batch = rayleigh_batch()
    ranks = joint_v_ranks(batch)

    def best(fn, arg):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - t0)
        return min(times)

    inversions, sort_u_ties = estimation._inversions, estimation._sort_u_ties
    tie_sorts = []
    estimation._sort_u_ties = lambda *args: tie_sorts.append(1) or sort_u_ties(*args)
    try:
        kendall_s = best(kendall_rho, batch)
        estimation._inversions = lambda seq: 0
        ranking_s = best(kendall_rho, batch)
    finally:
        estimation._inversions, estimation._sort_u_ties = inversions, sort_u_ties
    passes = (batch.n - 1).bit_length() - _BLOCK_LEVELS   # one per merge level above the blocks
    wide = _key_dtype(batch.n) is np.int64
    return (kendall_s, ranking_s, best(_inversions, ranks), best(merge_level_inversions, ranks),
            passes * wide, passes * (not wide), len(tie_sorts))


# ---------------------------------------------------------------------------
# tabulated quantiles

def solves_interpolant(tab, u, q):
    """q is tab's quantile of u: the end rules outside (values[0],
    values[-1]); otherwise q lies on the piece [grid[k-1], grid[k]] with
    values[k-1] < u <= values[k], and scipy's PCHIP reaches u at q to 2 ulp
    of 1 plus the density's share of 4 ulp of q."""
    g, v = tab.grid, tab.values
    u = min(max(u, 0.0), 1.0)
    if u <= v[0]:
        return q == g[0]
    if u >= v[-1]:
        return q == g[-1]
    k = np.searchsorted(v, u, "left")
    cdf = PchipInterpolator(g, v)(q)
    return g[k - 1] <= q <= g[k] and abs(cdf - u) <= 4.4e-16 + 4.0 * tab.pdf(q) * np.spacing(q)


@pytest.fixture(scope="module")
def tab():
    grid = np.linspace(0.0, 7.0, 200)
    return TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2))


def test_tabulated_quantile_bitwise_equal_to_scalar(tab):
    u = np.concatenate([make_rng(3).random(300),
                        [0.0, 1.0, -0.5, 2.0, tab.values[0], tab.values[-1], 1e-300,
                         np.nextafter(tab.values[-1], 0.0), 0.5]])
    out = tab.quantile(u)
    singles = np.array([tab.quantile(float(x)) for x in u])
    assert all(solves_interpolant(tab, x, q) for x, q in zip(u, out))
    assert np.array_equal(singles, out)
    assert out[-9] == tab.grid[0] and out[-8] == tab.grid[-1]


def test_tabulated_quantile_shapes(tab):
    q = tab.quantile(np.float64(0.3))
    assert type(q) is float
    assert solves_interpolant(tab, 0.3, q)
    u = make_rng(4).random((7, 5))
    out = tab.quantile(u)
    assert out.shape == (7, 5)
    assert np.array_equal(out.ravel(), tab.quantile(u.ravel()))
    assert tab.quantile(np.array([])).shape == (0,)


# ---------------------------------------------------------------------------
# Kotz quantiles

def brentq_quantile(k, u):
    if u <= 0.0:
        return k.x0
    target = math.log1p(-u)
    hi = max(1.0, 2.0 * k.x0 + 1.0)
    while k._log_tail(hi) > target:
        hi *= 2.0
    return brentq(lambda x: k._log_tail(x) - target, k.x0 + 1e-300, hi,
                  xtol=1e-13, rtol=8.9e-16)


@pytest.mark.parametrize("m, r, theta", [(2.0, 1.0, 2.0), (3.0, 0.5, 0.7), (1.5, 2.0, 1.0)])
def test_kotz_quantile_closed_form_n0(m, r, theta):
    k = Kotz(m, 0.0, r, theta)
    u = make_rng(5).random(2000)
    exact = (np.log(m / (1.0 - u)) / r) ** (1.0 / theta)
    np.testing.assert_allclose(k.quantile(u), exact, rtol=1e-12, atol=0)
    s = np.geomspace(1e-300, 0.999, 500)
    np.testing.assert_allclose(k.isf(s), (np.log(m / s) / r) ** (1.0 / theta), rtol=1e-12, atol=0)


@pytest.mark.parametrize("m, r, theta", [(2.0, 1.0, 2.0), (3.0, 0.5, 0.7), (1.5, 2.0, 1.0),
                                         (1.0, 1.5, 0.5), (1.2, 1.0, 0.5), (10.0, 0.3, 3.0),
                                         (2.0, 1.0, 1.5)])
def test_kotz_n0_quantiles_against_mpmath(m, r, theta):
    """With N = 0 the quantile is (log(M/(1 - u))/r)**(1/theta) to a few ulp:
    log1p, log M, their sum and the division round once each, and the power
    scales a relative error by 1/theta.  x0 is quantile(0) bit for bit, and
    no draw lies below it: numpy's array power can round 1 ulp below its
    scalar power, as its AVX-512 loop does for (log 2)**(1/1.5)."""
    k = Kotz(m, 0.0, r, theta)
    u = np.concatenate([make_rng(8).random(300), [1e-300, 1e-16, 0.5, 1.0 - 2.0 ** -53]])
    with mpmath.workdps(40):
        root = lambda level: float((mpmath.log(level) / r) ** (1 / mpmath.mpf(theta)))
        exact = np.array([root(m / (1 - mpmath.mpf(x))) for x in u])
        x0 = root(mpmath.mpf(m))
    np.testing.assert_allclose(k.quantile(u), exact, rtol=(1.0 + 2.0 / theta) * 2.0 ** -52, atol=0)
    assert k.x0 == pytest.approx(x0, rel=2.0 ** -52, abs=0.0)
    assert k.quantile(0.0) == k.x0 and k.isf(1.0) == k.x0
    assert k.quantile(np.array([0.0, 1e-300])).tolist() == [k.x0, k.x0]


@pytest.mark.parametrize("params", [(5.0, 2.0, 1.0, 2.0), (3.0, -1.0, 0.5, 0.7),
                                    (50.0, 3.0, 2.0, 1.5)])
def test_kotz_quantile_against_scalar_brentq(params):
    k = Kotz(*params)
    u = np.concatenate([make_rng(6).random(300), [1e-12, 0.5, 1.0 - 1e-12]])
    ref = np.array([brentq_quantile(k, x) for x in u])
    out = k.quantile(u)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 + 8.9e-16 * ref.max())
    # the roots solve sf(x) = 1 - u
    np.testing.assert_allclose(k.sf(out[:-1]), 1.0 - u[:-1], rtol=1e-9)


def test_kotz_quantile_edges():
    k = Kotz(5.0, 2.0, 1.0, 2.0)
    assert k.quantile(0.0) == k.x0 and k.quantile(-1.0) == k.x0
    assert k.isf(1.0) == k.x0 and k.isf(3.0) == k.x0
    assert k.quantile(1.0) == math.inf and k.isf(0.0) == math.inf
    assert type(k.quantile(0.5)) is float and type(k.isf(0.5)) is float
    x = k.isf(1e-300)
    assert math.isfinite(x) and x > 20.0
    assert k._log_tail(x) == pytest.approx(math.log(1e-300), rel=1e-14)
    assert k.quantile(make_rng(7).random((4, 3))).shape == (4, 3)


# ---------------------------------------------------------------------------
# importance sampler

def _half_width(level, r):
    """Scalar reference: half-width of the angle arc {phi: r*cos(phi) > level}."""
    if r <= 0.0:
        return math.pi if level < 0 else 0.0
    ratio = level / r
    if ratio >= 1.0:
        return 0.0
    if ratio <= -1.0:
        return math.pi
    return math.acos(ratio)


@pytest.mark.parametrize("level", [-2.0, -0.5, 0.0, 0.5, 2.0])
def test_half_widths_match_scalar(level):
    r = np.array([0.0, -1.0, 0.25, 0.5, 1.0, 2.0, 4.0, abs(level), 1e-300, 1e300])
    out = _half_widths(level, r)
    ref = np.array([_half_width(level, x) for x in r])
    np.testing.assert_allclose(out, ref, rtol=0, atol=4.5e-16)


def test_importance_se_matches_seed_spread():
    """The reported standard error against the spread of the estimate over
    40 seeds; the sample sd of 40 values is itself ~11% uncertain, so the
    ratio must lie within [1/1.35, 1.35].  The old (1 - est)**2 form reads
    ~1.5 at x = 6.  Levels 1 and 3, where P(U > x) is 0.16 and 1.3e-3, check
    the SE away from the far tail too."""
    m = EllipticalModel(0.5, Rayleigh(1.0))
    for x in (6.0, 1.0, 3.0):
        res = np.array([_exceed_montecarlo(m, x, 0.6 * x, 20_000, seed) for seed in range(40)])
        ratio = np.median(res[:, 1]) / np.std(res[:, 0], ddof=1)
        assert 1.0 / 1.35 <= ratio <= 1.35, x


def test_point_density_array_matches_scalar():
    m = EllipticalModel(0.3, Kotz(5.0, 2.0, 1.0, 2.0))
    t = np.linspace(-4.0, 4.0, 17)
    out = conditional_density_point(m, 2.5, t)
    assert np.array_equal(out, [conditional_density_point(m, 2.5, float(x)) for x in t])
    assert conditional_density_point(m, 2.5, t.reshape(1, 17)).shape == (1, 17)
    bounded = EllipticalModel(0.3, TabulatedCdf(np.linspace(0, 3, 50), np.linspace(0, 1, 50)))
    dens = conditional_density_point(bounded, 2.5, np.array([0.0, 50.0]), w=lambda x: 1.0)
    assert dens[0] > 0.0 and dens[1] == 0.0


def test_top_order_stats_equals_full_sort():
    radii = make_rng(8).normal(size=5001)
    top, n, k, dropped = _top_order_stats(radii, 300)
    assert np.array_equal(top, np.sort(radii[radii > 0])[-300:])


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, betascale.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_cli_import_needs_only_numpy_and_scipy_special():
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.linalg")
    code = f"import sys, betascale.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_quad_bindings_resolve_to_scipy_on_access():
    # perfbench/tracer.py wraps each quadrature layer's module-level quad
    code = ("import sys, scipy.integrate\n"
            "from betascale import elliptical, fractional, scaling\n"
            "print([m.quad is scipy.integrate.quad for m in (fractional, scaling, elliptical)])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[True, True, True]"
    from betascale import fractional
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        fractional.nope
