"""One adaptive Gauss-Kronrod engine for every kernel integral.

The library computes no integral through scipy's ``quad``: weyl mode, the
inversion stages, the corollary check and the elliptical conditionals all
run through ``fractional._gauss_kronrod``.  The operators are checked here
against mpmath references at fixed points, weyl mode against mixture mode
over random (law, alpha, beta, x), and the public operators' domain and
empty-range contract.
"""

import json
import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import betascale
import betascale.elliptical as elliptical
import betascale.fractional as fractional
import betascale.scaling as scaling
from betascale import (Beta, DomainError, EllipticalModel, Exponential, Gamma, IterationPlan,
                       NumericError, Pareto, PointMass, QuadratureConfig, Rayleigh, Uniform,
                       conditional_density_point, conditional_sf_exceed, corollary_check,
                       forward_cdf, forward_pdf, forward_sf, forward_tabulated, invert_iterative,
                       invert_onestep, invert_step, power_weight, weyl_integral, weyl_stieltjes)
from betascale.cli import main
from betascale.scaling import _full_step

# the acceptance bounds of weyl against mixture mode (test_forward_modes_agree)
# and of a forward density (test_forward_pdf_matches_cdf_derivative)
MODES_ABS = 1e-6
PDF_DERIV_ABS = 1e-5


# ---------------------------------------------------------------------------
# no scipy quad anywhere in the library

def test_library_never_calls_scipy_quad(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy quad called")

    # the modules bind scipy's quad on first access: patch them first, so that
    # the undo puts scipy's quad back and not the forbidden one
    for mod in (fractional, scaling, elliptical):
        monkeypatch.setattr(mod, "quad", forbidden)
    monkeypatch.setattr(scipy.integrate, "quad", forbidden)
    xs = np.array([0.3, 1.1, 2.5])
    for H in (Exponential(1.0), Beta(2.0, 2.0), Pareto(2.0, 1.0)):
        for fn in (forward_cdf, forward_sf, forward_pdf):
            for mode in ("weyl", "mixture"):
                assert np.all(np.isfinite(fn(H, 2.0, 0.7, xs, mode=mode)))
    assert np.all(np.isfinite(_full_step(Exponential(1.0), 1.5, 0.6, xs,
                                         fractional.QuadratureConfig())))
    lhs, rhs = corollary_check(Exponential(1.0), 2.0, 1.0, 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-5)
    m = EllipticalModel(0.5, Rayleigh(1.0))
    assert 0.0 < conditional_sf_exceed(m, 2.0, 1.0, method="quadrature") < 1.0
    assert np.all(conditional_density_point(m, 2.0, np.array([-1.0, 0.0, 1.0])) > 0.0)
    assert 0.0 <= invert_onestep(Uniform(0.0, 1.0), 1.0, 0.5, 0.5) <= 1.0


# ---------------------------------------------------------------------------
# mpmath references at fixed points

mp.mp.dps = 30


def _i_ref(h, beta, x, upper, points=()):
    """(I_beta h)(x) by mpmath."""
    edges = [x] + sorted(p for p in points if x < p < upper) + [upper]
    val = mp.quad(lambda y: (y - x) ** (beta - 1) * h(y), [mp.mpf(e) for e in edges])
    return float(val / mp.gamma(beta))


def _h_decay(y):
    return y ** -1.5 * mp.e ** -y


def _h_bounded(y):
    return 2 + mp.cos(3 * y)


def _h_jump(y):
    return (1 if y <= 1.5 else 0.25) / (1 + y * y)


@pytest.mark.parametrize("beta", [0.3, 1.0, 1.7])
def test_weyl_integral_matches_mpmath(beta):
    # the public operator takes scalar-only callables
    cases = [
        (lambda y: y ** -1.5 * math.exp(-y), _h_decay, 0.7, math.inf, None),
        (lambda y: 2.0 + math.cos(3.0 * y), _h_bounded, 0.4, 2.5, None),
        (lambda y: (1.0 if y <= 1.5 else 0.25) / (1.0 + y * y), _h_jump, 0.6, math.inf, [1.5]),
    ]
    for h, h_ref, x, upper, points in cases:
        ref = _i_ref(h_ref, beta, x, upper, points or ())
        assert weyl_integral(h, beta, x, upper=upper, points=points) == pytest.approx(
            ref, rel=1e-9)


def _gamma_pdf(y):
    return mp.mpf(1.3) ** 2.7 * y ** 1.7 * mp.e ** (-1.3 * y) / mp.gamma(2.7)


def _beta_pdf(y):
    return 12 * y * (1 - y) ** 2 if y < 1 else mp.mpf(0)


def _pareto_pdf(y):
    return 2 * y ** -3 if y >= 1 else mp.mpf(0)


@pytest.mark.parametrize("beta", [0.3, 1.0, 1.7])
def test_weyl_stieltjes_matches_mpmath(beta):
    g = lambda y: y ** -1.2
    cases = [
        (Gamma(2.7, 1.3), _gamma_pdf, 0.8, math.inf, ()),
        (Beta(2.0, 3.0), _beta_pdf, 0.35, 1.0, ()),
        (Pareto(2.0, 1.0), _pareto_pdf, 0.5, math.inf, (1.0,)),
    ]
    for H, pdf, x, upper, points in cases:
        # the reference density is the law's own
        assert float(H.pdf(0.6)) == pytest.approx(float(pdf(mp.mpf(0.6))), rel=1e-14)
        assert float(H.pdf(1.5)) == pytest.approx(float(pdf(mp.mpf(1.5))), rel=1e-14)
        ref = _i_ref(lambda y: y ** -1.2 * pdf(y), beta, x, upper, points)
        assert weyl_stieltjes(g, H, beta, x) == pytest.approx(ref, rel=1e-9)
    ref = float(mp.mpf(1.3) ** -1.2 * mp.mpf(0.8) ** (beta - 1) / mp.gamma(beta))
    assert weyl_stieltjes(g, PointMass(1.3), beta, 0.5) == pytest.approx(ref, rel=1e-13)


def test_weyl_density_of_a_tabulated_law_at_small_x():
    # the table's piecewise-quadratic density against QUADPACK over its knots,
    # with the kernel singularity at x as QAWS's algebraic weight
    T = forward_tabulated(Exponential(1.0), 1.0, 1.5, n_points=120)
    alpha, beta = 1.5, 0.7
    const = math.exp(math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta))
    for x in (0.05, 0.2, 1.0):
        f = lambda y: y ** (1.0 - alpha - beta) * float(T.pdf(y))
        ends = [x] + [k for k in T.grid if x < k < T.upper] + [T.upper]
        ref = scipy.integrate.quad(f, ends[0], ends[1], weight="alg", wvar=(beta - 1.0, 0.0),
                                   epsabs=1e-14, epsrel=1e-12)[0]
        for lo, hi in zip(ends[1:-1], ends[2:]):
            ref += scipy.integrate.quad(lambda y: (y - x) ** (beta - 1.0) * f(y), lo, hi,
                                        epsabs=1e-14, epsrel=1e-12)[0]
        # checked under the default QuadratureConfig, whose rtol bounds the gap
        assert forward_pdf(T, alpha, beta, x) == pytest.approx(const * x ** (alpha - 1.0) * ref,
                                                               rel=1e-8)


@pytest.mark.parametrize("m", sorted({1, 2, 7, 1023, 1025, fractional._GK_CHUNK - 1,
                                      fractional._GK_CHUNK, fractional._GK_CHUNK + 1}))
def test_qk21_row_does_not_depend_on_its_batch(m):
    rng = np.random.default_rng(m)
    f = rng.standard_normal((m, 21)) * rng.uniform(1e-3, 1e3, (m, 1))
    half = rng.uniform(1e-6, 1.0, m)
    f[1:2] = 0.0
    for r in range(0, m, 3):
        f[r, r % 21] = (math.inf, -math.inf, math.nan)[r // 3 % 3]
    val, err = fractional._qk21(f, half)

    def same(a, b):
        return a.tobytes() == b.tobytes()

    for r in range(m):
        v, e = fractional._qk21(f[r:r + 1], half[r:r + 1])
        assert same(v, val[r:r + 1]) and same(e, err[r:r + 1]), r
    pick = rng.permutation(m)[:(m + 1) // 2]
    v, e = fractional._qk21(f[pick], half[pick])
    assert same(v, val[pick]) and same(e, err[pick])
    # the same rows 8 bytes off any wider alignment
    moved = np.empty(f.size + 1)[1:].reshape(f.shape)
    moved[...] = f
    v, e = fractional._qk21(moved, half)
    assert same(v, val) and same(e, err)


# ---------------------------------------------------------------------------
# the engine's starting subdivision

# single points whose engine rounds are counted, here and in CI: three
# quantiles of each law, cdf, sf and pdf
ROUND_LAWS = [(Exponential(1.0), 0.6, 0.4), (Gamma(2.5, 1.5), 2.0, 0.5),
              (Rayleigh(1.0), 2.0, 0.7), (Pareto(2.0, 1.0), 2.0, 0.7),
              (Uniform(0.0, 1.0), 2.0, 0.7), (Beta(2.0, 2.0), 1.5, 0.5)]


def evaluate_single_weyl_points(mode="weyl"):
    """Evaluate each ROUND_LAWS point alone in ``mode``; returns their number."""
    n = 0
    for H, alpha, beta in ROUND_LAWS:
        for q in (0.1, 0.5, 0.9):
            x = float(H.quantile(q))
            for fn in (forward_cdf, forward_sf, forward_pdf):
                assert math.isfinite(fn(H, alpha, beta, x, mode=mode))
                n += 1
    return n


SINGLE_POINTS = os.path.join(os.path.dirname(__file__), "data", "single_points.json")


def single_point_hex():
    """float.hex of every ROUND_LAWS point alone in both modes, keyed by law,
    alpha, beta, quantile, function and mode.  A change that moves one of
    them captures tests/data/single_points.json again with
    capture_single_points().
    """
    out = {}
    for mode in ("weyl", "mixture"):
        for H, alpha, beta in ROUND_LAWS:
            for q in (0.1, 0.5, 0.9):
                x = float(H.quantile(q))
                for name, fn in (("cdf", forward_cdf), ("sf", forward_sf), ("pdf", forward_pdf)):
                    key = f"{type(H).__name__} {alpha} {beta} q={q} {name} {mode}"
                    out[key] = fn(H, alpha, beta, x, mode=mode).hex()
    return out


def capture_single_points(path=SINGLE_POINTS):
    """Write single_point_hex() to ``path``, tests/data/single_points.json by
    default, in that file's layout; from the tests directory with the
    library on the path:

        python -c "import test_engine as t; t.capture_single_points()"
    """
    with open(path, "w") as fh:
        json.dump(single_point_hex(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_capture_writes_the_stored_layout(tmp_path, monkeypatch):
    # the stored points captured again are the stored file, byte for byte
    with open(SINGLE_POINTS) as fh:
        stored = fh.read()
    monkeypatch.setattr(sys.modules[__name__], "single_point_hex", lambda: json.loads(stored))
    capture_single_points(tmp_path / "points.json")
    assert (tmp_path / "points.json").read_text() == stored


def test_single_points_are_byte_identical():
    # the bits of numpy 2.4.6 and scipy 1.17.1 on x86-64: another release, or
    # a CPU on which numpy's exp and log take another path, may round a
    # value differently and then needs its own capture
    with open(SINGLE_POINTS) as fh:
        assert single_point_hex() == json.load(fh), (
            f"captured with numpy 2.4.6 and scipy 1.17.1; this is numpy {np.__version__} "
            f"and scipy {scipy.__version__}")


def calls_per_single_point(mode):
    """Calls per ROUND_LAWS point in ``mode`` under sys.setprofile, after one
    warm pass: {"betascale": Python-level calls into the library, "numpy":
    Python-level calls into numpy (a generator's resumption counts), "C":
    calls of C functions}.  The numpy and C counts depend on the numpy
    release, so CI reports them with no threshold."""
    roots = {"betascale": os.path.dirname(betascale.__file__) + os.sep,
             "numpy": os.path.dirname(np.__file__) + os.sep}
    counts = dict.fromkeys(("betascale", "numpy", "C"), 0)

    def profile(frame, event, arg):
        if event == "c_call":
            counts["C"] += 1
        elif event == "call":
            path = frame.f_code.co_filename
            for name, root in roots.items():
                if path.startswith(root):
                    counts[name] += 1

    evaluate_single_weyl_points(mode)
    sys.setprofile(profile)
    try:
        n = evaluate_single_weyl_points(mode)
    finally:
        sys.setprofile(None)
    return {name: count / n for name, count in counts.items()}


def engine_rounds_per_point(monkeypatch, mode):
    """qk21 calls per ROUND_LAWS point in ``mode``, one call per round: a
    round of _GK_CHUNK rows or more would be cut into calls of which the
    first has exactly _GK_CHUNK rows."""
    calls = []
    qk21 = fractional._qk21
    monkeypatch.setattr(fractional, "_qk21", lambda f, half: calls.append(len(f)) or qk21(f, half))
    n = evaluate_single_weyl_points(mode)
    assert max(calls) < fractional._GK_CHUNK
    return len(calls) / n


def test_single_weyl_points_take_few_engine_rounds(monkeypatch):
    assert engine_rounds_per_point(monkeypatch, "weyl") <= 2.0


def test_single_mixture_points_take_few_engine_rounds(monkeypatch):
    # the one start rule of both modes: 2.02 rounds a point from two halves
    assert engine_rounds_per_point(monkeypatch, "mixture") <= 1.5


def test_tabulated_stage_starts_from_whole_pieces(monkeypatch):
    F = forward_tabulated(Exponential(1.0), 1.0, 0.5, n_points=60)
    seen = []
    engine = fractional._gauss_kronrod

    def spy(fn, owner, lo, hi, n, *args, parts=1, first=None, **kwargs):
        # the pieces of every row, whether it calls fn or the first round
        # reads it from the table
        rows = []
        seen.append((owner.size, parts, rows))
        if first is not None:
            skip, read = first
            first = skip, lambda j: rows.append(j) or read(j)
        return engine(lambda j, y: rows.append(j) or fn(j, y), owner, lo, hi, n, *args,
                      parts=parts, first=first, **kwargs)

    monkeypatch.setattr(fractional, "_gauss_kronrod", spy)
    invert_iterative(F, 1.0, IterationPlan([0.5]), np.geomspace(1e-2, 2.0, 12))
    (pieces, parts, rows), = seen
    assert parts == 1
    # the first round is every piece once, in order; a bisection follows it
    assert np.concatenate(rows)[:pieces].tolist() == list(range(pieces))


# ---------------------------------------------------------------------------
# the engine's round loop against its frozen unpruned form

def unpruned_gauss_kronrod(fn, owner, lo, hi, n, rtol, limit, value=None, parts=1,
                           affine=False, first=None):
    """fractional._gauss_kronrod before its rounds were pruned: every round
    concatenates its chunks' results, tests every subinterval for a split
    and takes its midpoint, adds the retired integrals' sums and counts
    each integral's subintervals against its limit.  Its stop test is the
    engine's, rtol*|value|."""
    _GK_X, _GK_CHUNK, _EPS, _TINY = (fractional._GK_X, fractional._GK_CHUNK, fractional._EPS,
                                     fractional._TINY)
    value = np.zeros(n) if value is None else value
    start, width, tail = lo, hi - lo, np.isinf(hi)
    skip, read = first or (owner.size, None)

    def mapped(j, mid, half, kind):
        if kind == 2:
            return read(j), width[j] * half
        if kind == 1:
            t = mid[:, None] + half[:, None] * _GK_X
            r = (1.0 - t) / t
            return fn(j, start[j][:, None] + r * r) * 2.0 * r / (t * t), half
        w = width[j]
        y, t = fractional._piece_nodes(start[j], w, mid, half, affine)
        if affine:
            return fn(j, y), w * half
        w = w[:, None]
        return fn(j, y) * 6.0 * w * t * (1.0 - t), half

    def rule(piece, lo, hi, skip):
        mid, half, infinite = 0.5 * (lo + hi), 0.5 * (hi - lo), tail[piece]
        if piece[-1] < skip:
            if not infinite.any() or infinite.all():
                return fractional._qk21(*mapped(piece, mid, half, int(infinite[0])))
            kinds = (~infinite, 0), (infinite, 1)
        elif piece[0] >= skip:
            return fractional._qk21(*mapped(piece, mid, half, 2))
        else:
            tabled = piece >= skip
            kinds = [(rows, kind) for rows, kind in
                     ((~(infinite | tabled), 0), (infinite, 1), (tabled, 2)) if rows.any()]
        f, scale = np.empty((piece.size, _GK_X.size)), np.empty(piece.size)
        for rows, kind in kinds:
            f[rows], scale[rows] = mapped(piece[rows], mid[rows], half[rows], kind)
        return fractional._qk21(f, scale)

    def evaluate(piece, lo, hi, skip=owner.size):
        out = [rule(piece[i:i + _GK_CHUNK], lo[i:i + _GK_CHUNK], hi[i:i + _GK_CHUNK], skip)
               for i in range(0, piece.size, _GK_CHUNK)] or [(np.empty(0), np.empty(0))]
        return np.concatenate([v for v, _ in out]), np.concatenate([e for _, e in out])

    piece = np.repeat(np.arange(owner.size), parts)
    lo = np.tile(np.arange(parts) / parts, owner.size)
    hi = lo + 1.0 / parts
    error = np.zeros(n)
    val, err = evaluate(piece, lo, hi, skip)
    while piece.size:
        point = owner[piece]
        total = value + np.bincount(point, weights=val, minlength=n)
        etotal = np.bincount(point, weights=err, minlength=n)
        short = ((etotal > rtol * np.abs(total))
                 & (np.bincount(point, minlength=n) < limit))
        if not short.any():
            return total, error + etotal
        order = np.lexsort((-err, point))
        ranked = point[order]
        lead = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
        mid = 0.5 * (lo + hi)
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


def engine_results(monkeypatch, engine, call, parts=None):
    """The bytes of (values, errors) of every engine run that call() makes
    with ``engine`` in the library's place, each run's ``parts`` forced to
    ``parts`` unless None, and the bytes of call()'s result or the message
    of the NumericError it raises."""
    runs = []

    def spy(*args, **kwargs):
        if parts is not None:
            kwargs["parts"] = parts
        val, err = engine(*args, **kwargs)
        runs.append((val.tobytes(), err.tobytes()))
        return val, err

    with monkeypatch.context() as m:
        for module in (fractional, scaling):
            m.setattr(module, "_gauss_kronrod", spy)
        try:
            out = call()
        except NumericError as exc:
            out = str(exc)
    if hasattr(out, "values"):  # a TabulatedCdf
        out = out.values
    return runs, out if isinstance(out, str) else np.asarray(out).tobytes()


def assert_same_engine_runs(monkeypatch, call, parts=None):
    library = engine_results(monkeypatch, fractional._gauss_kronrod, call, parts)
    frozen = engine_results(monkeypatch, unpruned_gauss_kronrod, call, parts)
    assert library[0], "no engine run"
    assert library == frozen


_WEYL_XS = np.array([0.05, 0.3, 0.9, 1.7, 4.0])


@pytest.mark.parametrize("mode", ["weyl", "mixture"])
def test_pruned_rounds_are_bit_identical_on_forward_points(monkeypatch, mode):
    for H, alpha, beta in ROUND_LAWS:
        for fn in (forward_cdf, forward_sf, forward_pdf):
            x = float(H.quantile(0.5))
            assert_same_engine_runs(monkeypatch, lambda: fn(H, alpha, beta, x, mode=mode))
            assert_same_engine_runs(monkeypatch, lambda: fn(H, alpha, beta, _WEYL_XS, mode=mode))


@pytest.mark.parametrize("parts", [1, 2, 4])
def test_pruned_rounds_are_bit_identical_on_mixture_calls_at_fixed_parts(monkeypatch, parts):
    # a tight tolerance and small limits make integrals stop at their limit,
    # a single point in the round its subintervals reach it, and several
    # points while others in the same call retire or split
    for cfg in (None, QuadratureConfig(rtol=1e-12, limit=7),
                QuadratureConfig(limit=3)):
        for H in (Beta(1.5, 0.5), Pareto(2.0, 1.0), Gamma(2.5, 1.5)):
            for fn in (forward_cdf, forward_pdf):
                for x in (_WEYL_XS, 0.93):
                    assert_same_engine_runs(
                        monkeypatch, lambda: fn(H, 1.0, 1.6, x, mode="mixture", cfg=cfg),
                        parts=parts)


def test_pruned_rounds_are_bit_identical_on_weyl_calls_with_points(monkeypatch):
    h = lambda y: (1.0 if y <= 1.5 else 0.25) / (1.0 + y * y)
    for beta in (0.3, 1.0, 1.7):
        assert_same_engine_runs(monkeypatch, lambda: weyl_integral(h, beta, 0.6,
                                                                   points=[1.5, 2.0, 3.0]))


@pytest.mark.parametrize("beta,plan", [(0.5, [0.5]), (1.6, [1.6, 0.8])])
def test_pruned_rounds_are_bit_identical_on_tabulated_stages(monkeypatch, beta, plan):
    # stages of delta < 1 read their far pieces straight from the gap table
    F = forward_tabulated(Exponential(1.0), 1.0, beta, n_points=60)
    grid = np.geomspace(1e-2, 3.0, 15)
    assert_same_engine_runs(monkeypatch, lambda: invert_iterative(F, 1.0, IterationPlan(plan),
                                                                  grid))
    assert_same_engine_runs(monkeypatch, lambda: forward_pdf(F, 1.5, 0.3, grid))


def test_pruned_rounds_are_bit_identical_on_conditional_quadrature(monkeypatch):
    for m in (EllipticalModel(0.5, Rayleigh(1.0)), EllipticalModel(-0.3, Uniform(0.0, 2.0))):
        for x, y in ((0.5, 0.2), (1.2, -0.4), (1.8, 1.0)):
            assert_same_engine_runs(
                monkeypatch, lambda: conditional_sf_exceed(m, x, y, method="quadrature"))


# ---------------------------------------------------------------------------
# weyl mode against mixture mode

_LAWS = [Exponential(1.0), Gamma(2.5, 1.5), Rayleigh(1.0), Pareto(2.0, 1.0),
         Uniform(0.0, 1.0), Beta(2.0, 2.0), Beta(1.5, 0.5)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_LAWS))), st.floats(0.3, 4.0), st.floats(0.2, 3.0),
       st.floats(0.01, 0.995))
def test_weyl_matches_mixture(law, alpha, beta, q):
    H = _LAWS[law]
    x = float(H.quantile(q))
    for fn, tol in ((forward_cdf, MODES_ABS), (forward_sf, MODES_ABS),
                    (forward_pdf, PDF_DERIV_ABS)):
        assert fn(H, alpha, beta, x, mode="weyl") == pytest.approx(
            fn(H, alpha, beta, x, mode="mixture"), abs=tol)


@pytest.mark.parametrize("H,alpha,beta,x", [(Exponential(1.0), 2.0, 0.7, 1e8),
                                            (Exponential(1.0), 2.0, 0.7, 1e12),
                                            (Gamma(2.5, 1.5), 2.0, 0.5, 1e6)])
def test_weyl_cdf_matches_mixture_at_large_x(H, alpha, beta, x):
    # the weyl integral is ~x**-alpha here and x**alpha magnifies its error:
    # under an absolute floor in the check weyl mode read 0.852, 0.125 and
    # 0.999849 with no error raised; held to a relative target it matches
    # mixture mode, which reads 1 to 4e-16
    assert forward_cdf(H, alpha, beta, x) == pytest.approx(
        forward_cdf(H, alpha, beta, x, mode="mixture"), abs=1e-10)


# ---------------------------------------------------------------------------
# the public operators' contract

def test_weyl_integral_empty_range_is_zero():
    assert weyl_integral(power_weight(-2.0), 0.5, 2.0, upper=1.0) == 0.0
    assert weyl_integral(power_weight(-2.0), 1.7, 1.0, upper=1.0) == 0.0
    assert weyl_stieltjes(power_weight(-2.0), Uniform(0.0, 1.0), 0.5, 1.5) == 0.0


@pytest.mark.parametrize("beta,x", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan)])
def test_weyl_operators_reject_nonfinite_order_or_point(beta, x):
    with pytest.raises(DomainError):
        weyl_integral(power_weight(-2.0), beta, x)
    with pytest.raises(DomainError):
        weyl_stieltjes(power_weight(-2.0), Exponential(1.0), beta, x)


def test_frac_weyl_cli_empty_range_and_nan(tmp_path, capsys):
    out = str(tmp_path / "w.json")
    assert main(["frac", "weyl", "--beta", "0.5", "--x", "2", "--upper", "1",
                 "--weight", "-2", "--out", out]) == 0
    with open(out) as fh:
        assert json.load(fh)["results"]["value"] == 0.0
    assert main(["frac", "weyl", "--beta", "nan", "--x", "1", "--weight", "-2"]) == 1
    assert main(["frac", "weyl", "--beta", "0.5", "--x", "nan", "--weight", "-2"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_corollary_check_below_the_default_step():
    for x in (1e-5, 1.5e-4):
        lhs, rhs = corollary_check(Exponential(1.0), 2.0, 0.5, x)
        assert lhs == pytest.approx(rhs, rel=1e-4)
        # both sides omit the forward map's constant Gamma(alpha+beta)/Gamma(alpha)
        pdf = forward_pdf(Exponential(1.0), 2.0, 0.5, x, mode="mixture")
        assert lhs * math.gamma(2.5) == pytest.approx(pdf, rel=1e-7)


def test_inversion_accepts_arrays():
    F = Uniform(0.0, 1.0)
    xs = np.array([[0.5, 1.0, -0.2], [0.1, 0.0, 0.9]])
    for fn in (lambda x: invert_onestep(F, 1.0, 0.5, x),
               lambda x: invert_step(F, 1.0, 0.5, 0.5, x)):
        out = fn(xs)
        assert out.shape == xs.shape
        singles = [fn(float(x)) for x in xs.ravel()]
        assert all(type(v) is float for v in singles)
        assert out.ravel() == pytest.approx(singles, rel=1e-14, abs=0.0)
        assert out[0, 2] == out[1, 1] == 1.0


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan], math.inf])
def test_inversion_rejects_nonfinite_points(x):
    with pytest.raises(DomainError):
        invert_onestep(Uniform(0.0, 1.0), 1.0, 0.5, x)
    with pytest.raises(DomainError):
        invert_step(Uniform(0.0, 1.0), 1.0, 0.5, 0.5, x)
