"""Outside-in tracer for betascale.

Nothing in the library is edited.  ``Tracer.install`` replaces, for the
duration of a traced pass, every binding of every public function of the
modules distributions, fractional, scaling, tails, elliptical, estimation and
cli with a span-recording wrapper.  Bindings are replaced in every betascale
namespace that holds them, because scaling, tails, cli and estimation bind
their callees by name (``betascale.scaling.weyl_integral``,
``betascale.cli.invert_iterative``, ``betascale.estimation.kendall_rho``...).

Hot paths get counters only, never one span per call:

* the ``cdf``/``sf``/``pdf``/``quantile``/``isf`` methods of every
  ``Distribution`` subclass (outermost call only, split scalar / array, with
  accumulated time; the time is also charged to the innermost open span so
  that a span's self time excludes it);
* each module's ``quad`` (calls and integrand evaluations);
* the integrand handed to ``kernel_integral_cells`` (nodes evaluated);
* the private per-point inversion step ``scaling._full_step`` (points).

``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from contextlib import contextmanager

import numpy as np

LAYERS = ("distributions", "fractional", "scaling", "tails", "elliptical",
          "estimation", "cli")
DIST_METHODS = ("cdf", "sf", "pdf", "quantile", "isf")
QUAD_LAYERS = ("fractional", "scaling", "elliptical")
POINT_FUNCS = {"scaling.forward_cdf", "scaling.forward_sf", "scaling.forward_pdf",
               "scaling.chain_forward", "scaling.corollary_check"}

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "parent", "op", "name", "layer", "start", "end", "dist_s")

    def __init__(self, sid, parent, op, name, layer, start, end=0.0, dist_s=0.0):
        self.sid, self.parent, self.op = sid, parent, op
        self.name, self.layer = name, layer
        self.start, self.end, self.dist_s = start, end, dist_s

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: self time}: duration minus the part its child spans cover,
    minus the distribution-method time charged to it directly."""
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: max(0.0, (s.end - s.start) - _covered(kids.get(s.sid, ()), s.start, s.end)
                       - s.dist_s)
            for s in spans}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.active = True
        self._cells = {}
        self._next = 0
        self._dist_depth = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _cell(self, key):
        return self._cells.setdefault(key, [0])

    @property
    def counts(self):
        return {k: v[0] for k, v in self._cells.items()}

    def bump(self, key, amount=1):
        self._cell(key)[0] += amount

    @contextmanager
    def paused(self):
        """Run library code (oracle checks) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _span_wrapper(self, qual, layer, fn, hook):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            stack = tr.stack
            tr._next += 1
            sp = Span(tr._next, stack[-1].sid if stack else None, tr.op, qual, layer, _clock())
            stack.append(sp)
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = _clock()
                stack.pop()
                tr.spans.append(sp)

        return traced

    def _method_wrapper(self, fn, is_quantile):
        tr = self
        scalar, arrays, points = self._cell("dist.scalar"), self._cell("dist.array"), \
            self._cell("dist.points")
        spent, qspent = self._cell("dist.time"), self._cell("dist.qtime")

        @functools.wraps(fn)
        def counted(obj, x, *args, **kwargs):
            if tr._dist_depth or not tr.active:
                return fn(obj, x, *args, **kwargs)
            tr._dist_depth = 1
            t0 = _clock()
            try:
                return fn(obj, x, *args, **kwargs)
            finally:
                dt = _clock() - t0
                tr._dist_depth = 0
                if np.ndim(x) == 0:
                    scalar[0] += 1
                else:
                    arrays[0] += 1
                    points[0] += int(np.size(x))
                spent[0] += dt
                if is_quantile:
                    qspent[0] += dt
                if tr.stack:
                    tr.stack[-1].dist_s += dt

        return counted

    def _quad_wrapper(self, layer, quad):
        tr = self
        calls, evals = self._cell(f"{layer}.quad_calls"), self._cell(f"{layer}.integrand_evals")

        @functools.wraps(quad)
        def counted_quad(func, a, b, *args, **kwargs):
            if not tr.active:
                return quad(func, a, b, *args, **kwargs)
            calls[0] += 1

            def integrand(*xs):
                evals[0] += 1
                return func(*xs)

            return quad(integrand, a, b, *args, **kwargs)

        return counted_quad

    # -- argument hooks: counts that need a look at the arguments ----------

    def _hooks(self, mods):
        tr = self
        cell_nodes = self._cell("fractional.integrand_evals")

        def cells_hook(args, kwargs):
            fn = args[0]

            def counted(y):
                cell_nodes[0] += int(np.size(y))
                return fn(y)

            return (counted,) + tuple(args[1:]), kwargs

        def draws(sig, n_of):
            def hook(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                tr.bump("elliptical.mc_draws", n_of(b.arguments))
                return args, kwargs
            return hook

        def pairs_hook(args, kwargs):
            batch = args[0] if args else kwargs["batch"]
            tr.bump("estimation.pairs", int(batch.n))
            return args, kwargs

        ell = mods["elliptical"]
        return {
            "fractional.kernel_integral_cells": cells_hook,
            "elliptical.sample_elliptical": draws(
                inspect.signature(ell.sample_elliptical), lambda a: int(a["n"])),
            "elliptical.conditional_sf_exceed": draws(
                inspect.signature(ell.conditional_sf_exceed),
                lambda a: int(a["n"]) if a["method"] == "montecarlo" else 0),
            "elliptical.convergence_diagnostic": draws(
                inspect.signature(ell.convergence_diagnostic),
                lambda a: int(a["n"]) * int(np.size(a["x_grid"]))),
            "estimation.kendall_rho": pairs_hook,
        }

    # -- install / uninstall -----------------------------------------------

    def _replace(self, ns, attr, new):
        self._undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def install(self):
        import betascale
        mods = {name: importlib.import_module(f"betascale.{name}") for name in LAYERS}
        namespaces = [betascale] + list(mods.values())
        hooks = self._hooks(mods)

        for layer, mod in mods.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                hook = hooks.get(qual)
                if qual in POINT_FUNCS:
                    hook = self._chain(hook, "scaling.points")
                wrapped = self._span_wrapper(qual, layer, fn, hook)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._replace(ns, attr, wrapped)

        scaling = mods["scaling"]
        step, points = scaling._full_step, self._cell("scaling.points")

        def counted_step(*args, **kwargs):
            if self.active:
                points[0] += 1
            return step(*args, **kwargs)

        self._replace(scaling, "_full_step", counted_step)

        for layer in QUAD_LAYERS:
            self._replace(mods[layer], "quad", self._quad_wrapper(layer, mods[layer].quad))

        dist = mods["distributions"]
        classes = [c for c in vars(dist).values()
                   if isinstance(c, type) and issubclass(c, dist.Distribution)]
        for cls in classes:
            for meth in DIST_METHODS:
                if meth in vars(cls):
                    self._replace(cls, meth, self._method_wrapper(
                        vars(cls)[meth], meth in ("quantile", "isf")))
        return self

    def _chain(self, hook, key):
        tr = self

        def counting(args, kwargs):
            tr.bump(key)
            return hook(args, kwargs) if hook is not None else (args, kwargs)

        return counting

    def uninstall(self):
        while self._undo:
            ns, attr, old = self._undo.pop()
            setattr(ns, attr, old)


def layer_metrics(spans, counts):
    """The per-layer metrics from spans (Span objects) and counters."""
    selfs = self_times(spans)
    by_layer = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    named = {}
    for s in spans:
        by_layer[s.layer] += selfs[s.sid]
        calls[s.layer] += 1
        named[s.name] = named.get(s.name, 0.0) + selfs[s.sid]
    c = lambda k: counts.get(k, 0)
    m = {
        "distributions.scalar_calls": c("dist.scalar"),
        "distributions.array_calls": c("dist.array"),
        "distributions.array_points": c("dist.points"),
        "distributions.self_s": c("dist.time") + by_layer["distributions"],
        "distributions.quantile_s": c("dist.qtime"),
    }
    for layer in ("fractional", "scaling", "tails", "elliptical"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = by_layer[layer]
        if layer in QUAD_LAYERS:
            m[f"{layer}.quad_calls"] = c(f"{layer}.quad_calls")
            m[f"{layer}.integrand_evals"] = c(f"{layer}.integrand_evals")
    m["scaling.points"] = c("scaling.points")
    m["elliptical.mc_draws"] = c("elliptical.mc_draws")
    m["estimation.calls"] = calls["estimation"]
    m["estimation.self_s"] = by_layer["estimation"]
    m["estimation.kendall_s"] = named.get("estimation.kendall_rho", 0.0)
    m["estimation.fit_s"] = named.get("estimation.gg_theta", 0.0) + named.get("estimation.r_hat", 0.0)
    m["estimation.pairs"] = c("estimation.pairs")
    m["cli.overhead_s"] = by_layer["cli"]
    return m
