"""Command-line front end.

Subcommands: dist, frac, scale, tail, ellip, estimate, check.  Structured
results go to JSON, grids and samples to CSV; every output embeds a run
manifest (subcommand, parameters, seeds, version, input digests) so that a
prior output can be re-validated byte-for-byte with ``check``.

Exit codes: 0 success, 1 domain error or unreadable file, 2 numeric failure,
64 usage.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .errors import DomainError, NumericError, parse_number
from .estimation import EstimatorConfig, SampleBatch, pipeline
from .fractional import power_weight, weyl_integral, weyl_stieltjes
from .scaling import (IterationPlan, default_grid, forward_cdf, forward_pdf,
                      forward_sf, invert_iterative)
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
    a, b, n = parse_number(parts[0]), parse_number(parts[1]), parse_number(parts[2], int)
    if n < 1:
        raise DomainError("grid needs at least one point")
    return np.linspace(a, b, n)


def _parse_floats(text):
    return [parse_number(t) for t in text.split(",") if t.strip() != ""]


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
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise DomainError(f"{path}: missing parameter {exc}") from exc


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _strip_out(argv):
    """Drop every spelling argparse reads as --out PATH ('--out PATH',
    '--out=PATH' and the abbreviations '--o', '--ou'), so the manifest is
    independent of the destination."""
    cleaned = []
    skip = False
    for a in argv:
        flag, eq, _ = a.partition("=")
        if skip:
            skip = False
        elif len(flag) > 2 and "--out".startswith(flag):
            skip = not eq
        else:
            cleaned.append(a)
    return cleaned


def _manifest(args, argv):
    """The run's manifest; its input is whichever of --dist, --radial or
    --input the action has."""
    inputs = [p for p in (getattr(args, k, None) for k in ("dist", "radial", "input")) if p]
    man = {
        "subcommand": args.command,
        "argv": _strip_out(argv),
        "params": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command", "func", "out") and v is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {p: _digest(p) for p in inputs},
    }
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        man["timestamp"] = int(epoch)
    return man


def _write(text, out):
    """Write text to standard output, or atomically to the file out."""
    if not out:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                               prefix=".tmp-betascale-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode())
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(payload, manifest, out):
    doc = {"manifest": manifest, "results": payload}
    _write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _emit_csv(header, rows, manifest, out):
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    _write(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# subcommand implementations; each gets the run's manifest from main (check
# writes none)

def _cmd_dist(args, man):
    d = _load_dist(args.dist)
    if args.action == "eval":
        fn = {"cdf": d.cdf, "sf": d.sf, "pdf": d.pdf, "quantile": d.quantile}[args.what]
        xs = _parse_floats(args.x)
        if not all(map(math.isfinite, xs)):
            raise DomainError("--x must be finite")
        _emit_json([{"x": x, "value": float(fn(x))} for x in xs], man, args.out)
    elif args.action == "sample":
        draws = d.sample(args.n, args.seed)
        _emit_csv(["x"], [[float(v)] for v in draws], man, args.out)
    else:
        m = mda_classify(d)
        payload = {"label": m.label, "gamma": m.gamma, "r_upper": m.r_upper,
                   "confident": m.confident}
        _emit_json(payload, man, args.out)
    return 0


def _cmd_frac(args, man):
    weight = power_weight(args.weight)
    if args.action == "weyl":
        upper = math.inf if args.upper is None else args.upper
        val = weyl_integral(weight, args.beta, args.x, upper=upper)
    else:
        val = weyl_stieltjes(weight, _load_dist(args.dist), args.beta, args.x)
    _emit_json({"value": val}, man, args.out)
    return 0


def _cmd_scale(args, man):
    d = _load_dist(args.dist)
    if args.action == "forward":
        grid = _parse_grid(args.x_grid)
        fn = {"cdf": forward_cdf, "sf": forward_sf, "pdf": forward_pdf}[args.what]
        vals = fn(d, args.alpha, args.beta, grid, mode=args.mode)
    else:
        plan = (IterationPlan.parse(args.plan) if args.plan
                else IterationPlan.default_for(args.beta))
        if not abs(plan.beta - args.beta) <= 1e-9:  # a NaN --beta fails too
            raise DomainError("plan must start at beta")
        grid = _parse_grid(args.x_grid) if args.x_grid else default_grid(d)
        vals = invert_iterative(d, args.alpha, plan, grid).cdf(grid)
    rows = [[float(x), float(v)] for x, v in zip(grid, vals)]
    _emit_csv(["x", "value"], rows, man, args.out)
    return 0


def _cmd_tail(args, man):
    d = _load_dist(args.dist)
    mda = mda_classify(d).label
    if mda == "unclassified":
        raise DomainError("could not classify the law's tail")
    fn = {"gumbel": predict_gumbel, "frechet": predict_frechet,
          "weibull": predict_weibull}[mda]
    triples = []
    for x in _parse_floats(args.x):
        t = fn(d, args.alpha, args.beta, x)
        triples.append({"x": x, "prediction": t.prediction, "direct": t.direct,
                        "ratio": t.ratio})
    _emit_json({"mda": mda, "triples": triples}, man, args.out)
    return 0


def _cmd_ellip(args, man):
    model = EllipticalModel(rho=args.rho, radial=_load_dist(args.radial))
    if args.action == "simulate":
        pairs = sample_elliptical(model, args.n, args.seed)
        _emit_csv(["u", "v"], [[float(u), float(v)] for u, v in pairs], man, args.out)
    elif args.kind == "point":
        t_grid = _parse_grid(args.t_grid) if args.t_grid else np.linspace(-3, 3, 61)
        dens = conditional_density_point(model, args.x, t_grid)
        payload = {"kind": "point", "x": args.x,
                   "density": [{"t": float(t), "value": float(z)}
                               for t, z in zip(t_grid, dens)]}
        _emit_json(payload, man, args.out)
    else:
        if args.y is None:
            raise DomainError("--y is required for kind=exceed")
        val = conditional_sf_exceed(model, args.x, args.y,
                                    method=args.method, n=args.n, seed=args.seed)
        payload = {"kind": "exceed", "x": args.x, "y": args.y, "value": val}
        _emit_json(payload, man, args.out)
    return 0


def _cmd_estimate(args, man):
    if not math.isfinite(args.x):
        raise DomainError("--x must be finite")
    k_n = None if args.kn == "auto" else parse_number(args.kn, int)
    levels = _parse_floats(args.s) if args.s else []
    batch = SampleBatch(*read_csv_columns(args.input, ("u", "v")))
    cfg = EstimatorConfig(k_n=k_n, radius_source=args.source.upper())
    res = pipeline(batch, cfg)
    thetas = [res.theta_fn(args.x, s) for s in levels]
    payload = {
        "rho_hat": res.rho,
        "tau_hat": res.tau,
        "theta_hat": res.fit.theta,
        "r_hat": res.fit.r,
        "kn": res.fit.k_n,
        "source": res.fit.source,
        "psi": [{"x": args.x, "y": th, "value": res.psi(args.x, th)} for th in thetas],
        "theta_fn": [{"x": args.x, "s": s, "value": th} for s, th in zip(levels, thetas)],
        "warnings": res.warnings,
    }
    _emit_json(payload, man, args.out)
    return 0


def _cmd_check(args, _man):
    with open(args.file, "rb") as fh:
        original = fh.read()
    try:
        text = original.decode()
        if text.startswith("# manifest: "):
            argv = json.loads(text.splitlines()[0][len("# manifest: "):])["argv"]
        else:
            argv = json.loads(text)["manifest"]["argv"]
        if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
            raise TypeError("argv is not a list of strings")
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"{args.file}: holds no betascale manifest") from exc
    cleaned = _strip_out(argv)
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

def _flags(**flags):
    """A parent parser declaring each flag (dest=add_argument keywords) once,
    for every action that lists it in ``parents``."""
    p = argparse.ArgumentParser(add_help=False)
    for dest, kw in flags.items():
        p.add_argument("--" + dest, **kw)
    return p


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: it holds no mutable
    defaults and no append actions, so one parse leaves nothing behind for
    the next."""
    p = _Parser(prog="betascale",
                description="Beta random scaling of distributions: forward map, "
                            "inversion, tail asymptotics, elliptical conditionals, "
                            "and tail estimation.")
    sub = p.add_subparsers(dest="command", required=True)
    real = dict(type=float, required=True)
    count = dict(type=int, required=True)
    out = _flags(out={})
    law = _flags(dist=dict(required=True))
    beta = _flags(beta=real)
    point = _flags(x=real)
    points = _flags(x=dict(required=True))
    scaled = [law, _flags(alpha=real), beta]
    draws = _flags(n=count, seed=count)
    model = _flags(rho=real, radial=dict(required=True))
    frac = [beta, point, _flags(weight=real)]

    d = sub.add_parser("dist", help="evaluate, sample, or classify a distribution")
    ds = d.add_subparsers(dest="action", required=True)
    dp = ds.add_parser("eval", parents=[law, points, out])
    dp.add_argument("--what", choices=["cdf", "sf", "pdf", "quantile"], required=True)
    ds.add_parser("sample", parents=[law, draws, out])
    ds.add_parser("mda", parents=[law, out])
    d.set_defaults(func=_cmd_dist)

    f = sub.add_parser("frac", help="fractional integral debugging")
    fs = f.add_subparsers(dest="action", required=True)
    fs.add_parser("weyl", parents=frac + [out]).add_argument("--upper", type=float)
    fs.add_parser("stieltjes", parents=[law, *frac, out])
    f.set_defaults(func=_cmd_frac)

    s = sub.add_parser("scale", help="forward beta scaling and its inversion")
    ss = s.add_subparsers(dest="action", required=True)
    sf_ = ss.add_parser("forward", parents=scaled + [out])
    sf_.add_argument("--x-grid", dest="x_grid", required=True)
    sf_.add_argument("--what", choices=["cdf", "sf", "pdf"], default="cdf")
    sf_.add_argument("--mode", choices=["weyl", "mixture"], default="weyl")
    si = ss.add_parser("invert", parents=scaled + [out])
    si.add_argument("--plan")
    si.add_argument("--x-grid", dest="x_grid")
    s.set_defaults(func=_cmd_scale)

    t = sub.add_parser("tail", help="tail asymptote ratio diagnostics")
    ts = t.add_subparsers(dest="action", required=True)
    ts.add_parser("ratio", parents=scaled + [points, out])
    t.set_defaults(func=_cmd_tail)

    e = sub.add_parser("ellip", help="elliptical sampling and conditionals")
    es = e.add_subparsers(dest="action", required=True)
    es.add_parser("simulate", parents=[model, draws, out])
    econ = es.add_parser("conditional", parents=[model, point, out])
    econ.add_argument("--kind", choices=["point", "exceed"], required=True)
    econ.add_argument("--y", type=float)
    econ.add_argument("--t-grid", dest="t_grid")
    econ.add_argument("--method", choices=["quadrature", "montecarlo"],
                      default="quadrature")
    econ.add_argument("--n", type=int, default=100_000)
    econ.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_cmd_ellip)

    est = sub.add_parser("estimate", parents=[point, out],
                         help="tail-estimator pipeline on (u,v) data")
    est.add_argument("--input", required=True)
    est.add_argument("--kn", default="auto")
    est.add_argument("--source", choices=["r1", "r2", "v", "R1", "R2", "V"],
                     default="r1")
    est.add_argument("--s", default="")
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
        return args.func(args, _manifest(args, argv))
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
