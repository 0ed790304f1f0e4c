"""Tests of the benchmark's own code (not part of the library's tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py
"""

import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for p in (HERE, SRC):
    if p not in sys.path:
        sys.path.insert(0, p)

import betascale  # noqa: E402
import betascale.cli  # noqa: E402,F401
import pytest  # noqa: E402

import calibrate  # noqa: E402
import harness  # noqa: E402
import oracles as O  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Ctx:
    def __init__(self, work_dir):
        self.work_dir = str(work_dir)
        self.env = harness.child_env(SRC, self.work_dir)


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_on_nested_spans():
    S = tracing.Span
    spans = [
        S(1, None, 0, "scaling.forward_tabulated", "scaling", 0.0, 10.0, dist_s=0.5),
        S(2, 1, 0, "scaling.forward_cdf", "scaling", 1.0, 4.0),
        S(3, 2, 0, "fractional.weyl_integral", "fractional", 2.0, 3.0),
        S(4, 1, 0, "fractional.weyl_stieltjes", "fractional", 3.0, 6.0, dist_s=1.0),  # overlaps 2
        S(5, 1, 0, "tails.predict_gumbel", "tails", 8.0, 9.0),
        S(6, None, 1, "estimation.kendall_rho", "estimation", 20.0, 22.5),
    ]
    selfs = tracing.self_times(spans)
    # children of span 1 cover [1, 6] and [8, 9]: 6 of its 10 seconds
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0 - 1.0)
    assert selfs[5] == pytest.approx(1.0)
    m = tracing.layer_metrics(spans, {"dist.time": 1.5})
    assert m["scaling.self_s"] == pytest.approx(3.5 + 2.0)
    assert m["fractional.self_s"] == pytest.approx(1.0 + 2.0)
    assert m["tails.self_s"] == pytest.approx(1.0)
    assert m["estimation.kendall_s"] == pytest.approx(2.5)
    assert m["distributions.self_s"] == pytest.approx(1.5)
    assert m["scaling.calls"] == 2 and m["fractional.calls"] == 2


def test_covered_clips_to_parent():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0) == pytest.approx(3.0)
    assert tracing._covered([], 0.0, 1.0) == 0.0


def test_tail_percentile_keeps_ten_beyond():
    for n in (12, 24, 100, 333):
        p = harness.tail_percentile(n)
        assert n - math.ceil(p / 100 * n) >= 10
        assert n - math.ceil((p + 1) / 100 * n) < 10


# -- calibration ----------------------------------------------------------------

def test_calibration_uses_nearby_reference_samples():
    cal = calibrate.Calibrator()
    r0 = calibrate.REF_NOMINAL_S
    cal.samples = [(10.0, r0, 2 * r0), (10.5, 2 * r0, 4 * r0), (10.7, 2 * r0, 4 * r0), (30.0, r0, 2 * r0)]
    # two samples (each two kernel runs) ran inside [10.45, 10.75], both at half speed
    assert cal.calibrated(10.45, 0.3) == pytest.approx((0.3 - 8 * r0) * 0.5)
    assert cal.calibrated(29.95, 0.01) == pytest.approx(0.01)
    # no sample within the window: the nearest one in time (30.0)
    assert cal.calibrated(25.0, 0.5) == pytest.approx(0.5)


def test_sampling_lands_inside_long_calls():
    cal = calibrate.Calibrator()
    before = signal.getsignal(signal.SIGALRM)
    with cal.sampling():
        t0 = calibrate.clock()
        while calibrate.clock() - t0 < 0.3:
            pass
        t1 = calibrate.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert sum(1 for t, _, _ in cal.samples if t0 < t <= t1) >= 3


def test_summary_takes_median_of_calibrated_executions():
    cal = calibrate.Calibrator()
    r0 = calibrate.REF_NOMINAL_S
    cal.samples = [(0.0, r0, 2 * r0), (100.0, 2 * r0, 4 * r0)]
    rec = harness.OpRecord()
    rec.starts, rec.latencies = [0.05, 0.06, 99.0], [1.0, 3.0, 2.0]  # calibrated: 1, 3, 1 - 2 r0
    s = harness.summarize([harness.Op("op", None, None)], [rec], {}, cal)
    assert s["wall_s"] == pytest.approx(1.0) and s["raw_wall_s"] == pytest.approx(2.0)


# -- the oracle gate is not a no-op -------------------------------------------

def test_check_records():
    assert O.close("x", 1.0, 1.0 + 5e-9, rtol=1e-8).ok
    assert not O.close("x", 1.0, 1.0 + 2e-8, rtol=1e-8).ok
    assert not O.close("x", float("nan"), 1.0, atol=1.0).ok
    assert O.band("b", 0.5, 0.45, 0.55).ok and O.band("b", 0.5, 0.45, 0.55).ratio is None
    assert not O.band("b", 0.56, 0.45, 0.55).ok
    assert O.close("s", 0.5, 0.51, atol=0.05, sampled=True).ratio is None
    assert O.close("d", 0.5, 0.51, atol=0.05).ratio == pytest.approx(0.2)
    assert O.flag("f", False).ratio is None and not O.flag("f", False).ok


def test_closed_forms_agree_with_library():
    assert O.pareto_scaled(2.0, 1.0, 1.0, 1.0)[1](3.0) == pytest.approx(1.0 / 27.0, rel=1e-13)
    assert O.uniform_scaled(1.0, 1.0)[1](0.5) == pytest.approx(1 - 0.5 + 0.5 * math.log(0.5))
    sf = O.uniform_scaled(2.0, 0.7)[1](0.4)
    assert betascale.forward_sf(betascale.Uniform(0, 1), 2.0, 0.7, 0.4, mode="mixture") == \
        pytest.approx(sf, rel=1e-8)
    ray = O.rayleigh_scaled(1.0, 2.0, 0.7)[1](1.3)
    assert betascale.forward_sf(betascale.Rayleigh(1.0), 2.0, 0.7, 1.3, mode="mixture") == \
        pytest.approx(ray, abs=1e-9)


def _ops(workload, tmp_path, seed=5):
    workload.setup(seed, Ctx(tmp_path))
    return workload.ops()


def test_point_eval_flags_perturbed_values(tmp_path, monkeypatch):
    w = workloads.PointEval()
    ops = [op for op in _ops(w, tmp_path) if op.label.startswith(("cdf", "predict_frechet"))
           and op.label not in w.known_failures]
    assert len(ops) > 20
    for op in ops:
        rec = harness.OpRecord()
        harness.execute(op, rec)
        assert rec.failures == 0, (op.label, rec.last_failure)

    cdf, frechet = betascale.forward_cdf, betascale.predict_frechet
    monkeypatch.setattr(betascale, "forward_cdf", lambda *a, **k: cdf(*a, **k) + 1e-5)

    def shifted(*a, **k):
        t = frechet(*a, **k)
        t.direct *= 1 + 1e-5
        return t

    monkeypatch.setattr(betascale, "predict_frechet", shifted)
    for op in ops:
        rec = harness.OpRecord()
        harness.execute(op, rec)
        assert rec.failures == 1, op.label


def test_elliptical_flags_perturbed_values(tmp_path, monkeypatch):
    w = workloads.EllipticalEstimate()
    ops = {op.label: op for op in _ops(w, tmp_path)}
    mc = [op for label, op in ops.items() if label.startswith("montecarlo")]
    radii = [op for label, op in ops.items() if label.startswith("sample")]
    for op in mc + radii:
        rec = harness.OpRecord()
        harness.execute(op, rec)
        assert rec.failures == 0, (op.label, rec.last_failure)
    monkeypatch.setattr(betascale, "conditional_sf_exceed", lambda *a, **k: 0.9)
    sample = betascale.sample_elliptical
    monkeypatch.setattr(betascale, "sample_elliptical", lambda *a, **k: sample(*a, **k) * (1 + 1e-7))
    for op in mc + radii:
        rec = harness.OpRecord()
        harness.execute(op, rec)
        assert rec.failures == 1, op.label


def test_raising_operation_counts_as_failure():
    rec = harness.OpRecord()
    harness.execute(harness.Op("boom", lambda: 1 / 0, lambda out: []), rec)
    assert rec.failures == 1 and "ZeroDivisionError" in rec.last_failure


# -- traced counts repeat exactly -----------------------------------------------

COUNTED = ("calls", "quad_calls", "integrand_evals")


def _traced_counts(workload, ops):
    tr = tracing.Tracer().install()
    try:
        for k, op in enumerate(ops):
            tr.op = k
            harness.execute(op, harness.OpRecord(), tr)
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr.spans, tr.counts)
    return {k: v for k, v in m.items()
            if k.endswith(COUNTED) or k in ("distributions.scalar_calls", "elliptical.mc_draws",
                                             "estimation.pairs", "scaling.points")}


def test_traced_counts_repeat(tmp_path):
    picks = []
    for cls, keep in ((workloads.PointEval, lambda l: l.endswith(("x=0.1", "x=0.5")) or "predict" in l),
                      (workloads.TabulateInvert, lambda l: l == "forward Rayleigh(1) a=1 b=0.5"),
                      (workloads.EllipticalEstimate, lambda l: l.startswith(("montecarlo", "sample",
                                                                            "convergence")))):
        w = cls()
        ops = [op for op in _ops(w, tmp_path / cls.__name__, seed=9) if keep(op.label)]
        assert ops, cls
        picks.append((w, ops))
    runs = []
    for _ in range(2):
        counts = {}
        for w, ops in picks:
            for k, v in _traced_counts(w, ops).items():
                counts[k] = counts.get(k, 0) + v
        runs.append(counts)
    assert runs[0] == runs[1]
    for key in ("scaling.calls", "scaling.quad_calls", "scaling.integrand_evals",
                "fractional.calls", "fractional.integrand_evals", "tails.calls",
                "elliptical.calls", "elliptical.mc_draws", "distributions.scalar_calls"):
        assert runs[0][key] > 0, key


def test_tracer_restores_library():
    dist = betascale.distributions
    before = (betascale.scaling.forward_cdf, betascale.cli.invert_iterative,
              betascale.estimation.kendall_rho, betascale.scaling.quad,
              dist.Exponential.__dict__["sf"], dist.Distribution.__dict__["isf"])
    tr = tracing.Tracer().install()
    assert betascale.scaling.forward_cdf is not before[0]
    assert betascale.tails.forward_sf is betascale.scaling.forward_sf
    tr.uninstall()
    after = (betascale.scaling.forward_cdf, betascale.cli.invert_iterative,
             betascale.estimation.kendall_rho, betascale.scaling.quad,
             dist.Exponential.__dict__["sf"], dist.Distribution.__dict__["isf"])
    assert all(a is b for a, b in zip(before, after))


# -- the command refuses to run without the library ------------------------------

def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point_eval",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
