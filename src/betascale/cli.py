"""Command-line front end.

Subcommands: dist, frac, scale, tail, ellip, estimate, check.  Structured
results go to JSON, grids and samples to CSV; every output embeds a run
manifest (subcommand, parameters, seeds, version, input digests) so that a
prior output can be re-validated byte-for-byte with ``check``.

Exit codes: 0 success, 1 domain error, 2 numeric failure, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .distributions import dist_from_json, load_tabulated_csv, mda_classify, read_csv_columns
from .elliptical import (EllipticalModel, conditional_density_point,
                         conditional_sf_exceed, sample_elliptical)
from .errors import DomainError, NoDensityError, NumericError
from .estimation import EstimatorConfig, SampleBatch, pipeline
from .fractional import power_weight, weyl_integral, weyl_stieltjes
from .scaling import (IterationPlan, forward_cdf, forward_pdf, forward_sf,
                      invert_iterative)
from .tails import predict_frechet, predict_gumbel, predict_weibull

__all__ = ["main"]

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be a:b:n")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise DomainError("grid needs at least one point")
    return np.linspace(a, b, n)


def _parse_floats(text):
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _load_dist(path):
    if path.endswith(".csv"):
        return load_tabulated_csv(path)
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise DomainError(f"{path}: a distribution must be a JSON object")
        return dist_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)))
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise DomainError(f"{path}: missing parameter {exc}") from exc


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _strip_out(argv):
    """Drop '--out PATH' so the manifest is independent of the destination."""
    cleaned = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--out":
            skip = True
            continue
        cleaned.append(a)
    return cleaned


def _manifest(args, argv, input_paths):
    man = {
        "subcommand": args.command,
        "argv": _strip_out(argv),
        "params": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command", "func", "out") and v is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {p: _digest(p) for p in input_paths},
    }
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        man["timestamp"] = int(epoch)
    return man


def _atomic_write(path, data: bytes):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-betascale-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(payload, manifest, out):
    doc = {"manifest": manifest, "results": payload}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        _atomic_write(out, text.encode())
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, manifest, out):
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    if out:
        _atomic_write(out, buf.getvalue().encode())
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_dist(args, argv):
    if args.action == "eval":
        d = _load_dist(args.dist)
        fn = {"cdf": d.cdf, "sf": d.sf, "pdf": d.pdf, "quantile": d.quantile}[args.what]
        vals = [{"x": x, "value": float(fn(x))} for x in _parse_floats(args.x)]
        _emit_json(vals, _manifest(args, argv, [args.dist]), args.out)
    elif args.action == "sample":
        d = _load_dist(args.dist)
        draws = d.sample(args.n, args.seed)
        _emit_csv(["x"], [[float(v)] for v in draws],
                  _manifest(args, argv, [args.dist]), args.out)
    elif args.action == "mda":
        d = _load_dist(args.dist)
        m = mda_classify(d)
        payload = {"label": m.label, "gamma": m.gamma, "r_upper": m.r_upper,
                   "confident": m.confident}
        _emit_json(payload, _manifest(args, argv, [args.dist]), args.out)
    return 0


def _cmd_frac(args, argv):
    weight = power_weight(args.weight)
    if args.action == "weyl":
        upper = math.inf if args.upper is None else args.upper
        val = weyl_integral(weight, args.beta, args.x, upper=upper)
        inputs = []
    else:
        H = _load_dist(args.dist)
        val = weyl_stieltjes(weight, H, args.beta, args.x)
        inputs = [args.dist]
    _emit_json({"value": val}, _manifest(args, argv, inputs), args.out)
    return 0


def _cmd_scale(args, argv):
    d = _load_dist(args.dist)
    man = _manifest(args, argv, [args.dist])
    if args.action == "forward":
        grid = _parse_grid(args.x_grid)
        fn = {"cdf": forward_cdf, "sf": forward_sf, "pdf": forward_pdf}[args.what]
        vals = fn(d, args.alpha, args.beta, grid, mode=args.mode)
        rows = [[float(x), float(v)] for x, v in zip(grid, vals)]
        _emit_csv(["x", "value"], rows, man, args.out)
    else:
        plan = (IterationPlan.parse(args.plan) if args.plan
                else IterationPlan.default_for(args.beta))
        if abs(plan.beta - args.beta) > 1e-9:
            raise DomainError("plan must start at beta")
        if args.x_grid:
            grid = _parse_grid(args.x_grid)
        else:
            x_hi = float(d.quantile(1.0 - 1e-4))
            grid = np.geomspace(max(x_hi * 1e-4, 1e-8), x_hi, 200)
        rec = invert_iterative(d, args.alpha, plan, grid)
        rows = [[float(x), float(v)] for x, v in zip(grid, rec.cdf(grid))]
        _emit_csv(["x", "value"], rows, man, args.out)
    return 0


def _cmd_tail(args, argv):
    d = _load_dist(args.dist)
    mda = args.mda
    if mda == "auto":
        m = mda_classify(d)
        if m.label == "unclassified":
            raise DomainError("could not classify the law; pass --mda explicitly")
        mda = m.label
    fn = {"gumbel": predict_gumbel, "frechet": predict_frechet,
          "weibull": predict_weibull}[mda]
    triples = []
    for x in _parse_floats(args.x):
        t = fn(d, args.alpha, args.beta, x)
        triples.append({"x": x, "prediction": t.prediction, "direct": t.direct,
                        "ratio": t.ratio})
    _emit_json({"mda": mda, "triples": triples},
               _manifest(args, argv, [args.dist]), args.out)
    return 0


def _cmd_ellip(args, argv):
    radial = _load_dist(args.radial)
    model = EllipticalModel(rho=args.rho, radial=radial)
    man = _manifest(args, argv, [args.radial])
    if args.action == "simulate":
        pairs = sample_elliptical(model, args.n, args.seed)
        rows = [[float(u), float(v)] for u, v in pairs]
        _emit_csv(["u", "v"], rows, man, args.out)
    else:
        if args.kind == "point":
            t_grid = _parse_grid(args.t_grid) if args.t_grid else np.linspace(-3, 3, 61)
            dens = conditional_density_point(model, args.x, t_grid)
            payload = {"kind": "point", "x": args.x,
                       "density": [{"t": float(t), "value": float(z)}
                                   for t, z in zip(t_grid, dens)]}
        else:
            if args.y is None:
                raise DomainError("--y is required for kind=exceed")
            val = conditional_sf_exceed(model, args.x, args.y,
                                        method=args.method, n=args.n,
                                        seed=args.seed)
            payload = {"kind": "exceed", "x": args.x, "y": args.y, "value": val}
        _emit_json(payload, man, args.out)
    return 0


def _cmd_estimate(args, argv):
    batch = SampleBatch(*map(np.array, read_csv_columns(args.input, ("u", "v"))))
    k_n = None if args.kn == "auto" else int(args.kn)
    cfg = EstimatorConfig(k_n=k_n, radius_source=args.source.upper())
    res = pipeline(batch, cfg)
    levels = _parse_floats(args.s) if args.s else []
    payload = {
        "rho_hat": res.rho,
        "tau_hat": res.tau,
        "theta_hat": res.fit.theta,
        "r_hat": res.fit.r,
        "kn": res.fit.k_n,
        "source": res.fit.source,
        "psi": [{"x": args.x, "y": res.theta_fn(args.x, s),
                 "value": res.psi(args.x, res.theta_fn(args.x, s))}
                for s in levels],
        "theta_fn": [{"x": args.x, "s": s, "value": res.theta_fn(args.x, s)}
                     for s in levels],
        "warnings": res.warnings,
    }
    _emit_json(payload, _manifest(args, argv, [args.input]), args.out)
    return 0


def _cmd_check(args, argv):
    with open(args.file, "rb") as fh:
        original = fh.read()
    text = original.decode()
    if text.startswith("# manifest: "):
        man = json.loads(text.splitlines()[0][len("# manifest: "):])
    else:
        man = json.loads(text)["manifest"]
    cleaned = _strip_out(man["argv"])
    with tempfile.TemporaryDirectory() as td:
        tmp_out = os.path.join(td, "replay" + os.path.splitext(args.file)[1])
        code = main(cleaned + ["--out", tmp_out])
        if code != 0:
            sys.stderr.write("check: replay failed\n")
            return 2
        with open(tmp_out, "rb") as fh:
            replay = fh.read()
    if replay == original:
        print(f"check: OK {args.file}")
        return 0
    sys.stderr.write(f"check: MISMATCH for {args.file}\n")
    return 1


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser():
    p = _Parser(prog="betascale",
                description="Beta random scaling of distributions: forward map, "
                            "inversion, tail asymptotics, elliptical conditionals, "
                            "and tail estimation.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="evaluate, sample, or classify a distribution")
    ds = d.add_subparsers(dest="action", required=True)
    for name in ("eval", "sample", "mda"):
        dp = ds.add_parser(name)
        dp.add_argument("--dist", required=True)
        dp.add_argument("--out")
        if name == "eval":
            dp.add_argument("--what", choices=["cdf", "sf", "pdf", "quantile"],
                            required=True)
            dp.add_argument("--x", required=True)
        elif name == "sample":
            dp.add_argument("--n", type=int, required=True)
            dp.add_argument("--seed", type=int, required=True)
    d.set_defaults(func=_cmd_dist)

    f = sub.add_parser("frac", help="fractional integral debugging")
    fs = f.add_subparsers(dest="action", required=True)
    fw = fs.add_parser("weyl")
    fw.add_argument("--beta", type=float, required=True)
    fw.add_argument("--x", type=float, required=True)
    fw.add_argument("--weight", type=float, required=True)
    fw.add_argument("--upper", type=float)
    fw.add_argument("--out")
    fj = fs.add_parser("stieltjes")
    fj.add_argument("--dist", required=True)
    fj.add_argument("--beta", type=float, required=True)
    fj.add_argument("--x", type=float, required=True)
    fj.add_argument("--weight", type=float, required=True)
    fj.add_argument("--out")
    f.set_defaults(func=_cmd_frac)

    s = sub.add_parser("scale", help="forward beta scaling and its inversion")
    ss = s.add_subparsers(dest="action", required=True)
    sf_ = ss.add_parser("forward")
    sf_.add_argument("--dist", required=True)
    sf_.add_argument("--alpha", type=float, required=True)
    sf_.add_argument("--beta", type=float, required=True)
    sf_.add_argument("--x-grid", dest="x_grid", required=True)
    sf_.add_argument("--what", choices=["cdf", "sf", "pdf"], default="cdf")
    sf_.add_argument("--mode", choices=["weyl", "mixture"], default="weyl")
    sf_.add_argument("--out")
    si = ss.add_parser("invert")
    si.add_argument("--dist", required=True)
    si.add_argument("--alpha", type=float, required=True)
    si.add_argument("--beta", type=float, required=True)
    si.add_argument("--plan")
    si.add_argument("--x-grid", dest="x_grid")
    si.add_argument("--out")
    s.set_defaults(func=_cmd_scale)

    t = sub.add_parser("tail", help="tail asymptote ratio diagnostics")
    ts = t.add_subparsers(dest="action", required=True)
    tr = ts.add_parser("ratio")
    tr.add_argument("--dist", required=True)
    tr.add_argument("--alpha", type=float, required=True)
    tr.add_argument("--beta", type=float, required=True)
    tr.add_argument("--mda", choices=["auto", "gumbel", "frechet", "weibull"],
                    default="auto")
    tr.add_argument("--x", required=True)
    tr.add_argument("--out")
    t.set_defaults(func=_cmd_tail)

    e = sub.add_parser("ellip", help="elliptical sampling and conditionals")
    es = e.add_subparsers(dest="action", required=True)
    esim = es.add_parser("simulate")
    esim.add_argument("--rho", type=float, required=True)
    esim.add_argument("--radial", required=True)
    esim.add_argument("--n", type=int, required=True)
    esim.add_argument("--seed", type=int, required=True)
    esim.add_argument("--out")
    econ = es.add_parser("conditional")
    econ.add_argument("--rho", type=float, required=True)
    econ.add_argument("--radial", required=True)
    econ.add_argument("--x", type=float, required=True)
    econ.add_argument("--kind", choices=["point", "exceed"], required=True)
    econ.add_argument("--y", type=float)
    econ.add_argument("--t-grid", dest="t_grid")
    econ.add_argument("--method", choices=["quadrature", "montecarlo"],
                      default="quadrature")
    econ.add_argument("--n", type=int, default=100_000)
    econ.add_argument("--seed", type=int, default=0)
    econ.add_argument("--out")
    e.set_defaults(func=_cmd_ellip)

    est = sub.add_parser("estimate", help="tail-estimator pipeline on (u,v) data")
    est.add_argument("--input", required=True)
    est.add_argument("--kn", default="auto")
    est.add_argument("--source", choices=["r1", "r2", "v", "R1", "R2", "V"],
                     default="r1")
    est.add_argument("--x", type=float, required=True)
    est.add_argument("--s", default="")
    est.add_argument("--out")
    est.set_defaults(func=_cmd_estimate)

    chk = sub.add_parser("check", help="re-validate a prior output byte-for-byte")
    chk.add_argument("--file", required=True)
    chk.set_defaults(func=_cmd_check)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.func(args, argv)
    except (DomainError, NoDensityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
