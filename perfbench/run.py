"""betascale benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds, its times calibrated against a reference kernel (calibrate.py);
with ``--trace 1`` it makes an untraced, a traced and another untraced pass
and reports the per-layer metrics of the traced pass (see tracer.py).  Every
output is checked against an independent oracle (oracles.py).  The last line
of standard output is the JSON result.

Hygiene: one process and no worker threads (BLAS/OpenMP pinned to one
thread), bound to one CPU with its children; its only children are set-up's
fresh-interpreter imports, one at a time, each waited for; everything is
written under ./.perfbench_work; no machine setting is touched.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

E2E = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("setup_s", "s"),
       ("peak_rss_mb", "MB"), ("max_err_ratio", "ratio"), ("pass_frac", "share"))
PER_LAYER = (
    ("distributions.scalar_calls", "count"), ("distributions.array_calls", "count"),
    ("distributions.array_points", "count"), ("distributions.self_s", "s"),
    ("fractional.calls", "count"), ("fractional.quad_calls", "count"),
    ("fractional.integrand_evals", "count"),
    ("scaling.calls", "count"), ("scaling.quad_calls", "count"),
    ("scaling.integrand_evals", "count"), ("scaling.points", "count"),
    ("tails.calls", "count"),
    ("elliptical.calls", "count"), ("elliptical.quad_calls", "count"),
    ("elliptical.integrand_evals", "count"), ("elliptical.mc_draws", "count"),
    ("estimation.pairs", "count"),
    ("cli.invocations", "count"), ("cli.import_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)
# reported by the traced run alongside PER_LAYER; a time that is exactly zero
# on a workload that never reaches the layer stays out of the JSON line
REPORT_ONLY = (("distributions.quantile_s", "s"), ("fractional.self_s", "s"),
               ("scaling.self_s", "s"), ("tails.self_s", "s"), ("elliptical.self_s", "s"),
               ("estimation.kendall_s", "s"), ("estimation.fit_s", "s"),
               ("cli.overhead_s", "s"))
SETUP_REPS = 2


class Context:
    def __init__(self, work_dir, env):
        self.work_dir, self.env = work_dir, env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import betascale from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "betascale", "__init__.py")):
        raise SystemExit(f"betascale sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import betascale
    if not os.path.abspath(betascale.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"betascale imported from {betascale.__file__}, not {SRC}")
    return betascale


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def timed_setup(workload, seed, ctx, harness, cal, calibrate):
    """Set-up repeated SETUP_REPS times: a fresh-interpreter import of
    betascale.cli, plus law construction and input generation in process.
    setup_s is the median import, calibrated against the reference import
    timed before it, plus the median calibrated build."""
    refs, imports, builds = [], [], []
    for _ in range(SETUP_REPS):
        refs.append(harness.fresh_import_s(ctx.env, calibrate.REF_IMPORT))
        imports.append(harness.fresh_import_s(ctx.env))
        cal.take()
        with cal.sampling():
            t0 = harness.clock()
            workload.setup(seed, ctx)
            builds.append((t0, harness.clock() - t0))
        cal.take()
    import_s = statistics.median(i / r for i, r in zip(imports, refs)) * calibrate.REF_IMPORT_NOMINAL_S
    build_s = statistics.median(cal.calibrated(t0, dt) for t0, dt in builds)
    return import_s + build_s, imports, refs, [dt for _, dt in builds]


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_verdicts(ops, recs, known):
    failing = [(op.label, rec) for op, rec in zip(ops, recs) if rec.failures]
    unexpected = [label for label, _ in failing if label not in known]
    print(f"oracle verdicts: {len(ops) - len(failing)} of {len(ops)} operations pass")
    for label, rec in failing:
        tag = "known" if label in known else "NEW"
        print(f"  FAIL [{tag}] {label}: {rec.failures}/{len(rec.latencies)} executions; "
              f"{rec.last_failure}")
    for label in known:
        if label not in {l for l, _ in failing}:
            print(f"  note: known failure now passes: {label}")
    return not unexpected


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU, so that the
    reference kernel (calibrate.py) samples the CPU the measured work runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return max(allowed)


def main(argv=None):
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    lib = load_library()
    import calibrate
    import harness
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = None
    ctx = Context(work_dir, harness.child_env(SRC, work_dir))

    workload = workloads.WORKLOADS[args.workload]()
    cal = calibrate.Calibrator()
    setup_s, imports, import_refs, builds = timed_setup(workload, args.seed, ctx, harness, cal,
                                                        calibrate)
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "setup_raw_s": {"import": imports, "reference_import": import_refs, "build": builds},
            "trace": args.trace, "betascale": lib.__version__, "cpu": cpu, **environment(),
            "inputs": workload.sizes}
    print(f"# {workload.name}: {workload.why}")
    print("# " + json.dumps(info, sort_keys=True))
    print(f"# setup (raw): import {[round(t, 4) for t in imports]} s, reference import "
          f"{[round(t, 4) for t in import_refs]} s, build {[round(t, 4) for t in builds]} s")

    workload.warmup()
    ops = workload.ops()

    if args.trace:
        metrics, recs, extra = traced_run(ops, imports, harness, tracing, work_dir)
        for name, _unit in PER_LAYER + REPORT_ONLY:
            print(f"  {name:30s} {fmt(metrics[name])}")
        print(f"  tracing overhead: traced pass {extra['traced']:.4f} s - mean untraced pass "
              f"{extra['untraced']:.4f} s = {metrics['trace.overhead_s']:.4f} s")
        print(f"  spans written to {os.path.relpath(extra['spans_file'], ROOT)} "
              f"({extra['n_spans']} spans)")
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        recs = harness.measure(ops, args.seconds, cal)
        s = harness.summarize(ops, recs, workload.known_failures, cal)
        s["setup_s"] = setup_s
        s["peak_rss_mb"] = harness.peak_rss_mb()
        print(f"# {s['n_ops']} operations per pass, {s['executions']} executions "
              f"in {args.seconds:g} s")
        for name, unit in E2E:
            print(f"  {name:14s} {fmt(s[name]):>12s} {unit}")
        refs = [r for _, r, _ in cal.samples]
        print(f"  times are calibrated (calibrate.py): reference kernel median "
              f"{1e3 * statistics.median(refs):.3f} ms over {len(refs)} samples, nominal "
              f"{1e3 * calibrate.REF_NOMINAL_S:g} ms; raw wall_s {s['raw_wall_s']:.6g} s, "
              f"raw op_p50_ms {s['raw_op_p50_ms']:.6g} ms")
        print(f"  op_tail_ms is p{s['tail_pct']} over {s['n_ops']} operations "
              f"({s['tail_beyond']} beyond); fail_frac {1.0 - s['pass_frac']:.6g}; "
              f"max_err_ratio from {s['worst_op']}")
        out_metrics = {name: {"value": s[name], "unit": unit} for name, unit in E2E}
        info["per_op_ms"] = s["per_op_ms"]
        info["per_op_calibrated_ms"] = s["per_op_calibrated_ms"]
        info["reference_samples"] = cal.samples

    correct = report_verdicts(ops, recs, workload.known_failures)
    # an operation of the list fails if any of its executions fails, so the
    # two counts depend on the seed and the code, not on how many passes fit
    attempted = len(recs)
    failed = sum(1 for r in recs if r.failures)
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"info": info, "metrics": out_metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


def traced_run(ops, imports, harness, tracing, work_dir):
    """An untraced pass, a traced pass, and another untraced pass; the
    tracing overhead is the traced pass minus the mean of the other two."""
    recs = [harness.OpRecord() for _ in ops]
    untraced = harness.one_pass(ops, recs)
    tr = tracing.Tracer().install()
    try:
        traced = harness.one_pass(ops, recs, tr)
    finally:
        tr.uninstall()
    untraced = 0.5 * (untraced + harness.one_pass(ops, recs))
    spans = tr.spans
    m = tracing.layer_metrics(spans, tr.counts)
    # commands a user ran; check's in-process replay is a nested call
    m["cli.invocations"] = sum(1 for s in spans if s.name == "cli.main" and s.parent is None)
    m["cli.import_s"] = statistics.median(imports)
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    spans_file = os.path.join(work_dir, "spans.jsonl")
    with open(spans_file, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
    return m, recs, {"traced": traced, "untraced": untraced, "spans_file": spans_file,
                     "n_spans": len(spans)}


if __name__ == "__main__":
    sys.exit(main())
