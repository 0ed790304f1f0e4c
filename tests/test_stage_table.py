"""The kernel integral of a tabulated law, whose pieces away from x run in y
and read the integrand from one table of whole-gap nodes per call, against
the all-u-map integral it replaced as the oracle: stage survivors and weyl
forward maps of tables, the first failing point, the engine's work and
batched against per-point output.  Also the forward-then-invert property
and the report of the criterion-3 inversions' cost."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from betascale import (Beta, Exponential, Gamma, IterationPlan, Rayleigh,
                       StageError, Uniform, forward_cdf, forward_pdf,
                       forward_tabulated, invert_iterative, invert_onestep)
from betascale import fractional
from betascale.fractional import _law_integral
from betascale.scaling import _INVERT_CFG as STAGE_CFG, _full_step
from test_mixture import _FailAt
from test_pchip import criterion3_tables, random_table

DELTAS = (0.2, 0.3, 0.5, 0.8)


def u_map_kernel_integral(h, knots, beta, x, upper, cfg, what, affine=False):
    """The kernel integral with every piece of beta < 1 in u = (y - x)**beta
    and h evaluated at every row's own nodes: fractional._kernel_integral
    before the pieces away from x ran in y."""
    knots, count, owner, lo, hi = oracle_pieces(knots, upper, x)
    xo = x[owner]
    if beta < 1.0:
        lo, hi = (lo - xo) ** beta, (hi - xo) ** beta

    def fn(piece, u):
        xp = xo[piece][:, None]
        with np.errstate(over="ignore"):
            y = xp + u ** (1.0 / beta) if beta < 1.0 else u
        finite = np.isfinite(y)
        whole = finite.all()
        if not whole:
            y = np.where(finite, y, xp)
        vals = np.asarray(h(y), dtype=float)
        if beta > 1.0:
            vals = vals * (y - xp) ** (beta - 1.0)
        return vals if whole else np.where(finite, vals, 0.0)

    limit = np.where(count > 1, np.maximum(cfg.limit, 3 * (count - 1) + 50), cfg.limit)
    parts = 4 if not affine and knots.size <= 2 and cfg.limit >= 4 else 1
    scale = math.exp(-sc.gammaln(beta)) / min(beta, 1.0)
    val, err = fractional._gauss_kronrod(fn, owner, lo, hi, x.size, cfg.rtol, limit,
                                         parts=parts, affine=affine and beta <= 1.0)
    val, err = scale * val, scale * err
    cfg.check_points(x, val, err, what)
    return val


def oracle_pieces(knots, upper, x):
    """(knots, pieces per point, owner, lo, hi): the oracles' sorted unique
    knots and pieces in y, one per gap between the knots below upper and
    upper inside (x, upper), each point's in order."""
    knots = np.unique(np.asarray(knots, dtype=float))
    ends = np.append(knots[knots < upper], upper)
    first = np.searchsorted(ends[:-1], x, side="right")
    count = np.where(x < upper, ends.size - first, 0)
    owner = np.repeat(np.arange(x.size), count)
    k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    j = first[owner] + k
    return knots, count, owner, np.where(k == 0, x[owner], ends[np.maximum(j - 1, 0)]), ends[j]


def no_table_kernel_integral(h, knots, beta, x, upper, cfg, what, affine=False):
    """The kernel integral with the pieces of an ``affine`` integrand of
    beta < 1 that lie at least their own width above x in y and the others
    in u, and h evaluated at every row's own nodes:
    fractional._kernel_integral without its table of whole-gap nodes."""
    knots, count, owner, lo, hi = oracle_pieces(knots, upper, x)
    near = owner.size if beta < 1.0 else 0
    if affine and beta < 1.0:
        far = lo - x[owner] >= hi - lo
        near -= np.count_nonzero(far)
        order = np.argsort(far, kind="stable")
        owner, lo, hi = owner[order], lo[order], hi[order]
    xo = x[owner]
    lo[:near], hi[:near] = (lo[:near] - xo[:near]) ** beta, (hi[:near] - xo[:near]) ** beta

    def fn(piece, u):
        xp = xo[piece][:, None]
        inu = piece < near
        y = u
        if inu.any():
            with np.errstate(over="ignore"):
                y = xp + u ** (1.0 / beta)
            if not inu.all():
                y = np.where(inu[:, None], y, u)
        finite = np.isfinite(y)
        whole = finite.all()
        if not whole:
            y = np.where(finite, y, xp)
        vals = np.asarray(h(y), dtype=float)
        if beta > 1.0:
            vals = vals * (y - xp) ** (beta - 1.0)
        elif beta < 1.0 and not inu.all():
            with np.errstate(divide="ignore", over="ignore"):
                w = beta * (y - xp) ** (beta - 1.0)
            vals = vals * (np.where(inu[:, None], 1.0, w) if inu.any() else w)
        return vals if whole else np.where(finite, vals, 0.0)

    limit = np.where(count > 1, np.maximum(cfg.limit, 3 * (count - 1) + 50), cfg.limit)
    parts = 4 if not affine and knots.size <= 2 and cfg.limit >= 4 else 1
    scale = math.exp(-sc.gammaln(beta)) / min(beta, 1.0)
    val, err = fractional._gauss_kronrod(fn, owner, lo, hi, x.size, cfg.rtol, limit,
                                         parts=parts, affine=affine and beta <= 1.0)
    val, err = scale * val, scale * err
    cfg.check_points(x, val, err, what)
    return val


def under_oracle(monkeypatch, call, oracle=u_map_kernel_integral):
    """call() with an oracle kernel integral, the all-u-map one by default,
    in the library's place."""
    with monkeypatch.context() as m:
        m.setattr(fractional, "_kernel_integral", oracle)
        return call()


def counting_qk21(monkeypatch, call):
    """(call(), [rows of each qk21 call])."""
    rows, qk21 = [], fractional._qk21
    with monkeypatch.context() as m:
        m.setattr(fractional, "_qk21", lambda f, half: rows.append(len(f)) or qk21(f, half))
        return call(), rows


@pytest.fixture(scope="module")
def tables():
    out = dict(criterion3_tables())
    out.update({f"random {s}": random_table(s) for s in range(12)})
    return out


def points(F, n=40):
    """n geometric points over F's grid and every 5th knot: points between
    knots, on knots, below the grid and at its top."""
    g = F.grid
    lo = max(g[0], 1e-3 * g[-1])
    return np.union1d(np.geomspace(0.5 * lo, g[-1], n), g[::5])


def stage(F, delta, x, cfg=STAGE_CFG, base=1.5):
    """The survivor an inversion stage of F computes at x before its clip to
    [0, 1]: _full_step's h integrated by _law_integral."""
    def h(y):
        sf, pdf = F.sf_pdf(y)
        return y ** -base * (base * sf / y + pdf)

    K = math.exp(sc.gammaln(base) - sc.gammaln(base + 1.0 - delta))
    return K * x ** (base + 1.0 - delta) * _law_integral(h, F, delta, x, F.upper, cfg, "stage")


# ---------------------------------------------------------------------------
# against the all-u-map oracle

@pytest.mark.parametrize("delta", DELTAS)
def test_stage_matches_the_u_map_oracle(monkeypatch, tables, delta):
    for name, F in tables.items():
        x = points(F)
        (ours, calls) = counting_qk21(monkeypatch, lambda: stage(F, delta, x))
        (ref, ref_calls) = counting_qk21(monkeypatch,
                                         lambda: under_oracle(monkeypatch,
                                                              lambda: stage(F, delta, x)))
        assert np.abs(ours - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max()), name
        # the same rounds of the same subintervals
        assert calls == ref_calls, name


@pytest.mark.parametrize("beta", [0.3, 1.0, 1.6])
@pytest.mark.parametrize("forward", [forward_cdf, forward_pdf])
def test_weyl_forward_of_a_table_matches_the_u_map_oracle(monkeypatch, tables, forward, beta):
    for name, F in tables.items():
        x = points(F, 12)
        run = lambda: forward(F, 1.5, beta, x, mode="weyl")
        ours, calls = counting_qk21(monkeypatch, run)
        ref, ref_calls = counting_qk21(monkeypatch, lambda: under_oracle(monkeypatch, run))
        assert np.abs(ours - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max()), name
        assert calls == ref_calls, name
        if beta >= 1.0:
            # no piece runs in u and no table is built: the oracle's own code
            assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes(), name


def test_first_failing_point_matches_the_u_map_oracle(monkeypatch, tables):
    for name in ("Exponential a=1 b=0.5", "Beta a=2 b=0.7", "random 3"):
        F = tables[name]
        grid = points(F)
        cfg = _FailAt(weyl_integral=[grid[30], grid[9], grid[17]])
        for delta in (0.2, 0.5):
            run = lambda: _full_step(F, 1.0, 1.0 - delta, grid, cfg, stage=2)
            with pytest.raises(StageError) as ours:
                run()
            with pytest.raises(StageError) as ref:
                under_oracle(monkeypatch, run)
            assert ours.value.x == ref.value.x == grid[9]
            assert str(ours.value) == str(ref.value)


@pytest.mark.parametrize("delta", DELTAS)
def test_batched_stage_equals_per_point_stage(tables, delta):
    for name in ("product of uniforms", "Uniform a=1 b=0.5", "Exponential a=2 b=0.7",
                 "random 0", "random 5", "random 11"):
        F = tables[name]
        x = points(F)[::4]
        batched = stage(F, delta, x)
        single = np.concatenate([stage(F, delta, x[i:i + 1]) for i in range(x.size)])
        assert batched.tobytes() == single.tobytes(), name


@pytest.mark.parametrize("beta", [0.3, 1.0, 1.6])
def test_batched_weyl_forward_equals_per_point_forward(tables, beta):
    for name in ("Beta a=1 b=1", "random 7"):
        F = tables[name]
        x = points(F, 12)
        for forward in (forward_cdf, forward_pdf):
            batched = forward(F, 1.5, beta, x, mode="weyl")
            single = np.array([forward(F, 1.5, beta, float(v), mode="weyl") for v in x])
            assert batched.tobytes() == single.tobytes(), name


def test_whole_gap_rows_read_the_table(monkeypatch):
    """h sees the whole-gap nodes once per call and otherwise only the rows
    that are no whole gap: the first piece of a point and those near it."""
    F = forward_tabulated(Exponential(1.0), 1.0, 0.5, n_points=120)
    x = points(F)
    seen = []

    def h(y):
        seen.append(y.copy())
        return y ** -1.5 * F.sf(y)

    _law_integral(h, F, 0.5, x, F.upper, STAGE_CFG, "probe")
    ours = np.concatenate(seen)
    seen.clear()
    under_oracle(monkeypatch, lambda: _law_integral(h, F, 0.5, x, F.upper, STAGE_CFG, "probe"))
    ref = np.concatenate(seen)
    whole = whole_gap_rows(F.grid, F.upper, ours)
    # one table row per gap that a piece in y fills, no row twice
    assert 0 < whole.sum() < F.grid.size
    assert np.unique(ours[whole], axis=0).shape[0] == whole.sum()
    assert 5 * ours.shape[0] < ref.shape[0]


# ---------------------------------------------------------------------------
# against the oracle without the table: the same bytes

def no_table(monkeypatch, call):
    return under_oracle(monkeypatch, call, no_table_kernel_integral)


@pytest.mark.parametrize("delta", DELTAS)
def test_stage_equals_the_no_table_oracle(monkeypatch, tables, delta):
    for name, F in tables.items():
        x = points(F)
        ours, calls = counting_qk21(monkeypatch, lambda: stage(F, delta, x))
        ref, ref_calls = counting_qk21(monkeypatch,
                                       lambda: no_table(monkeypatch, lambda: stage(F, delta, x)))
        assert ours.tobytes() == ref.tobytes(), name
        assert calls == ref_calls, name


@pytest.mark.parametrize("forward", [forward_cdf, forward_pdf])
def test_weyl_forward_of_a_table_equals_the_no_table_oracle(monkeypatch, tables, forward):
    for name, F in tables.items():
        run = lambda: forward(F, 1.5, 0.3, points(F, 12), mode="weyl")
        assert run().tobytes() == no_table(monkeypatch, run).tobytes(), name


def test_criterion3_inversions_equal_the_no_table_oracle(monkeypatch):
    def recovered(F, alpha, plan, grid):
        try:
            G = invert_iterative(F, alpha, plan, grid)
        except StageError as exc:
            return str(exc), exc.x
        return G.grid.tobytes(), G.values.tobytes()

    for case in criterion3_inversions():
        assert recovered(*case) == no_table(monkeypatch, lambda: recovered(*case))


def test_first_round_reads_every_whole_piece_in_y(monkeypatch, tables):
    """The first round reads each piece in y once from the table, and fn
    sees none of their whole-gap rows; fn sees only bisected ones."""
    engine = fractional._gauss_kronrod
    F = tables["Exponential a=1 b=0.5"]
    x = points(F)
    seen = {}

    def spy(fn, owner, lo, hi, n, *args, first=None, **kwargs):
        skip, read = first
        seen.update(pieces=owner.size, skip=skip, read=[], fn=[])

        def fn_spy(j, y):
            seen["fn"].append(y[j >= skip])
            return fn(j, y)

        return engine(fn_spy, owner, lo, hi, n, *args,
                      first=(skip, lambda j: seen["read"].append(j) or read(j)), **kwargs)

    monkeypatch.setattr(fractional, "_gauss_kronrod", spy)
    stage(F, 0.5, x)
    assert 0 < seen["skip"] < seen["pieces"]
    read = np.concatenate(seen["read"])
    assert read.tolist() == list(range(seen["skip"], seen["pieces"]))
    in_y = np.concatenate(seen["fn"])
    assert not whole_gap_rows(F.grid, F.upper, in_y).any()


# ---------------------------------------------------------------------------
# forward then invert

_ONESTEP_LAWS = [Exponential(1.0), Gamma(2.5, 1.5), Rayleigh(1.0)]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_ONESTEP_LAWS))), st.floats(0.5, 3.0), st.floats(0.2, 1.0),
       st.floats(0.05, 0.95))
def test_forward_tabulated_then_invert_onestep_recovers_the_law(law, alpha, beta, q):
    # the all-u-map engine missed by at most 1.76e-4 over these 24 examples;
    # the bound allows 2.8x that
    H = _ONESTEP_LAWS[law]
    F = forward_tabulated(H, alpha, beta, n_points=200)
    x = float(H.quantile(q))
    assert abs(invert_onestep(F, alpha, beta, x) - float(H.sf(x))) <= 5e-4


# ---------------------------------------------------------------------------
# the cost of the criterion-3 inversions, reported by CI

def whole_gap_rows(knots, upper, y):
    """Which rows of the nodes y are the whole-piece nodes of a gap between
    two of the knots (below upper), in the engine's affine map."""
    ends = np.append(knots[knots < upper], upper)
    half = np.full(ends.size - 1, 0.5)
    gap = fractional._piece_nodes(ends[:-1], np.diff(ends), half, half, True)[0]
    g = np.clip(np.searchsorted(ends, y[:, 0]) - 1, 0, ends.size - 2)
    return (y == gap[g]).all(axis=1)


def criterion3_inversions():
    """perfbench's tabulate_invert inversions: forward_tabulated (240 points)
    of four laws at three (alpha, beta), each to be inverted on a 50-point
    grid by the default plan."""
    out = []
    for H in (Uniform(0.0, 1.0), Exponential(1.0), Beta(2.0, 2.0), Rayleigh(1.0)):
        for alpha, beta in ((1.0, 0.5), (2.0, 0.7), (1.0, 1.6)):
            hi = H.upper if math.isfinite(H.upper) else float(H.quantile(0.995))
            grid = np.geomspace(max(1e-3, 1e-3 * hi), hi * 0.999, 50)
            out.append((forward_tabulated(H, alpha, beta, n_points=240), alpha,
                        IterationPlan.default_for(beta), grid))
    return out


def test_chunk_size_changes_no_result(monkeypatch):
    """The 12 criterion-3 forward tabulations (mixture mode) and the (1, 1.6)
    inversion of one give the same bytes in the engine's chunks as in chunks
    of 320 rows."""
    def run():
        cases = criterion3_inversions()
        F, alpha, plan, grid = cases[5]  # Exponential(1) at (1, 1.6)
        G = invert_iterative(F, alpha, plan, grid)
        return [c[0].values.tobytes() for c in cases], G.grid.tobytes(), G.values.tobytes()

    ours, rows = counting_qk21(monkeypatch, run)
    # some engine round is larger than 320 rows, so the chunks differ
    assert max(rows) > 320
    monkeypatch.setattr(fractional, "_GK_CHUNK", 320)
    assert run() == ours


def forward_table_report(repeats=3):
    """(the best of ``repeats`` timed runs of the 12 forward tabulations of
    criterion3_inversions in seconds, inf for none; then the qk21 rows
    (subintervals) of one more run)."""
    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        criterion3_inversions()
        best = min(best, time.perf_counter() - t)
    rows, qk21 = [], fractional._qk21
    fractional._qk21 = lambda f, half: rows.append(len(f)) or qk21(f, half)
    try:
        criterion3_inversions()
    finally:
        fractional._qk21 = qk21
    return best, sum(rows)


def stage_report(repeats=3, first_round=None):
    """(the best of ``repeats`` timed runs of the 12 criterion-3 inversions
    in seconds, inf for none; then, from one more run, their qk21 calls, the
    subintervals of those calls and the share of the subintervals whose
    integrand came from the shared table).  With a dict ``first_round``, that
    run also stores in it how many of its kernel integrals' first-round
    subintervals were read straight from the table ("read") and how many had
    their nodes built ("built").  Uniform (1, 1.6) raises StageError at
    stage 2 and counts up to there."""
    cases = criterion3_inversions()

    def run():
        for F, alpha, plan, grid in cases:
            try:
                invert_iterative(F, alpha, plan, grid)
            except StageError:
                pass

    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t)
    rows, direct, round1 = [], [0], {"read": 0, "built": 0}
    kernel, qk21, engine = fractional._kernel_integral, fractional._qk21, fractional._gauss_kronrod

    def spy(h, knots, beta, x, upper, cfg, what, affine=False):
        knots = np.asarray(knots, dtype=float)

        def counted(y):
            # beta >= 1 builds no table
            shared = whole_gap_rows(knots, upper, y).sum() if beta < 1.0 else 0
            direct[0] += y.shape[0] - shared
            return h(y)

        return kernel(counted, knots, beta, x, upper, cfg, what, affine)

    def engine_spy(fn, owner, lo, hi, n, *args, parts=1, first=None, **kwargs):
        round1["built"] += owner.size * parts
        if first is not None:
            skip, read = first

            def counted(j):
                round1["read"] += j.size
                round1["built"] -= j.size
                return read(j)

            first = skip, counted
        return engine(fn, owner, lo, hi, n, *args, parts=parts, first=first, **kwargs)

    fractional._kernel_integral, fractional._gauss_kronrod = spy, engine_spy
    fractional._qk21 = lambda f, half: rows.append(len(f)) or qk21(f, half)
    try:
        run()
    finally:
        fractional._kernel_integral, fractional._qk21 = kernel, qk21
        fractional._gauss_kronrod = engine
    if first_round is not None:
        first_round.update(round1)
    return best, len(rows), sum(rows), float(1.0 - direct[0] / sum(rows))


def test_stage_report(monkeypatch):
    _, calls, rows, shared = stage_report(0)
    # the oracle's engine work: every stage converged in its first round,
    # 577 qk21 calls of 181,905 subintervals, when the table came in
    _, ref_calls, ref_rows, ref_shared = under_oracle(monkeypatch, lambda: stage_report(0))
    assert (calls, rows) == (ref_calls, ref_rows)
    assert ref_shared == 0.0 and 0.5 < shared < 1.0


def test_stage_report_counts_the_first_round(monkeypatch):
    ours, ref = {}, {}
    _, _, rows, _ = stage_report(0, ours)
    under_oracle(monkeypatch, lambda: stage_report(0, ref))
    # every stage converges in its first round
    assert ours["read"] + ours["built"] == ref["built"] == rows
    assert ref["read"] == 0 and 0.5 * rows < ours["read"] < rows
