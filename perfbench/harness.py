"""Measurement loop, statistics and the result record.

An operation (``Op``) is one user-level library call, or one ``betascale``
command for the cli workload.  Only ``Op.call`` is timed; its oracle checks
run afterwards, outside the timer (and, in a traced pass, with the tracer
paused so oracle work is never charged to a layer).

End-to-end statistics are taken over the workload's fixed operation list.
Every execution's time is calibrated against the reference kernel sampled
during and around it (calibrate.py: the host runs the same code up to ~1.8x
slower, for seconds to minutes at a time), and each operation is represented
by the median of its calibrated executions in the run.

* ``wall_s``       sum over the list: the time of one pass;
* ``op_p50_ms``    median over the list;
* ``op_tail_ms``   value at the highest integer percentile that leaves at
                   least ten operations beyond it (the report states which);
* ``pass_frac``    share of operations whose every execution met its oracle
                   (``fail_frac`` = 1 - pass_frac is printed alongside);
* ``max_err_ratio`` worst error / bound over the deterministic numerical
                   checks of the operations not on the workload's
                   known-failure list (known failures are counted by
                   pass_frac and printed with their errors; left in, one of
                   them would hide any other loss of accuracy).
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

clock = time.perf_counter


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label, self.call, self.check = label, call, check


class OpRecord:
    __slots__ = ("starts", "latencies", "failures", "ratios", "last_failure")

    def __init__(self):
        self.starts, self.latencies, self.failures, self.ratios = [], [], 0, []
        self.last_failure = None


def execute(op, rec, tracer=None):
    """Run one operation: time the call, then check its output."""
    t0 = clock()
    try:
        out = op.call()
        error = None
    except Exception as exc:  # an operation that raises is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    dt = clock() - t0
    rec.starts.append(t0)
    rec.latencies.append(dt)
    if error is None:
        try:
            if tracer is not None:
                with tracer.paused():
                    checks = op.check(out)
            else:
                checks = op.check(out)
        except Exception as exc:
            checks, error = [], f"check raised {type(exc).__name__}: {exc}"
        bad = [c for c in checks if not c.ok]
        rec.ratios.extend(c.ratio for c in checks if c.ratio is not None)
        if bad and error is None:
            error = "; ".join(map(repr, bad))
    if error is not None:
        rec.failures += 1
        rec.last_failure = error
    return dt


def measure(ops, seconds, cal):
    """Cycle through ``ops`` until ``seconds`` have passed and at least one
    complete pass is done, sampling the reference kernel throughout."""
    recs = [OpRecord() for _ in ops]
    t_end = clock() + seconds
    i = 0
    with cal.sampling():
        while i < len(ops) or clock() < t_end:
            execute(ops[i % len(ops)], recs[i % len(ops)])
            i += 1
    return recs


def one_pass(ops, recs, tracer=None):
    """One pass in order; returns the summed call time."""
    total = 0.0
    for k, (op, rec) in enumerate(zip(ops, recs)):
        if tracer is not None:
            tracer.op = k
        total += execute(op, rec, tracer)
    return total


def tail_percentile(n):
    """Highest integer percentile with at least ten of n values beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n)))


def summarize(ops, recs, known_failures, cal):
    calibrated = [[cal.calibrated(t0, dt) for t0, dt in zip(r.starts, r.latencies)] for r in recs]
    per_op = np.array([np.median(c) for c in calibrated])
    raw = np.array([np.median(r.latencies) for r in recs])
    p = tail_percentile(len(per_op))
    tail = float(np.percentile(per_op, p))
    # a known failure's error would mask every other loss of accuracy
    worst = max(((x, op.label) for op, r in zip(ops, recs) if op.label not in known_failures
                 for x in r.ratios), default=(float("nan"), None))
    passed = sum(1 for r in recs if r.failures == 0)
    return {
        "wall_s": float(per_op.sum()),
        "raw_wall_s": float(raw.sum()),
        "raw_op_p50_ms": 1e3 * float(np.median(raw)),
        "op_p50_ms": 1e3 * float(np.median(per_op)),
        "op_tail_ms": 1e3 * tail,
        "tail_pct": p,
        "tail_beyond": int(np.sum(per_op > tail)),
        "n_ops": len(per_op),
        "executions": sum(len(r.latencies) for r in recs),
        "max_err_ratio": worst[0],
        "worst_op": worst[1],
        "pass_frac": passed / len(recs),
        "per_op_ms": {op.label: [1e3 * x for x in r.latencies] for op, r in zip(ops, recs)},
        "per_op_calibrated_ms": {op.label: [1e3 * x for x in c] for op, c in zip(ops, calibrated)},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def child_env(src_dir, work_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work_dir
    return env


IMPORT_PROBE = ("import time; t = time.perf_counter(); import {}; "
                "print(repr(time.perf_counter() - t))")


def fresh_import_s(env, modules="betascale.cli"):
    """Time to import ``modules`` in a fresh interpreter (one child, waited for)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(modules)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])
