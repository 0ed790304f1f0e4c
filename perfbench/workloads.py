"""The four workloads.  Each one says why it exists and which per-layer
metric should move which of its end-to-end metrics.

Every input is derived from the seed: jittered evaluation points, sample
seeds and the files handed to the CLI (tabulate_invert keeps criterion 3's
grids and takes only its case order from the seed; its docstring says
why).  The library sees only those generated inputs.

Per-layer metric -> end-to-end metric it should move (workload):

* distributions.scalar_calls / array_calls / array_points / self_s
      -> wall_s, op_tail_ms (tabulate_invert); op_p50_ms (point_eval);
         wall_s (cli).
* distributions.quantile_s
      -> wall_s (elliptical_estimate; cli: dist sample); not tabulate_invert.
* fractional.calls / self_s / quad_calls / integrand_evals
      -> wall_s (tabulate_invert, the inversion stages);
         op_p50_ms (point_eval, weyl mode).
* scaling.calls / self_s / quad_calls / integrand_evals / points
      -> wall_s (tabulate_invert); op_p50_ms (point_eval).
* tails.calls / self_s -> op_tail_ms (point_eval: far-tail predictions).
* elliptical.calls / self_s / quad_calls / integrand_evals / mc_draws
      -> wall_s (elliptical_estimate; cli: ellip conditional).
* estimation.kendall_s / fit_s / pairs
      -> wall_s (elliptical_estimate; cli: estimate).
* cli.invocations / overhead_s -> op_p50_ms, wall_s (cli).
* cli.import_s -> setup_s (every workload).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from collections import namedtuple

import numpy as np
from scipy.special import ndtr

import oracles as O
from harness import Op
import betascale as bs
import betascale.cli  # noqa: F401  (bs.cli)
from betascale import (Beta, EllipticalModel, EstimatorConfig, Exponential,
                       Gamma, IterationPlan, Kotz, Pareto, PointMass, Rayleigh,
                       SampleBatch, TabulatedCdf, Uniform)

CommandResult = namedtuple("CommandResult", "returncode stdout stderr")


def jittered_geom(rng, lo, hi, k):
    """k points, one uniformly placed in each of k equal log-strata of [lo, hi]."""
    u = (np.arange(k) + rng.random(k)) / k
    return lo * (hi / lo) ** u


def seed_int(rng):
    return int(rng.integers(1, 2 ** 31 - 1))


class Workload:
    name = ""
    why = ""
    known_failures = {}

    def setup(self, seed, ctx):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def warmup(self):
        pass


# ---------------------------------------------------------------------------

class TabulateInvert(Workload):
    """forward_tabulated (mixture mode, default 240-point geometric grid), then
    invert_iterative with IterationPlan.default_for(beta) on a 50-point grid,
    for Uniform(0,1), Exponential(1), Beta(2,2) and Rayleigh(1), each with
    (alpha, beta) in {(1, .5), (2, .7), (1, 1.6)}.

    Why: per-point scalar quadrature dominates here (one quad call per grid
    point, ~400 integrand and scalar distribution calls each), the mechanism
    ROADMAP item 2 replaces.  estimation and elliptical do no work.
    Oracles: each table against weyl mode at every 24th node (weyl vs
    mixture, 1e-6) and each round trip against the base law's sf (5e-3,
    criterion 3).  The cases that fail today stay in and count: Uniform
    (1, 1.6) raises StageError, Beta(2,2) (1, 1.6) round-trips at 6.9e-3, and
    the Uniform (2, .7) table misses weyl mode by 1.2e-6 at x = 1e-3.
    """

    name = "tabulate_invert"
    why = "per-point scalar quadrature of forward tabulation then chained inversion"
    LAWS = (("Uniform(0,1)", lambda: Uniform(0.0, 1.0)),
            ("Exponential(1)", lambda: Exponential(1.0)),
            ("Beta(2,2)", lambda: Beta(2.0, 2.0)),
            ("Rayleigh(1)", lambda: Rayleigh(1.0)))
    PARAMS = ((1.0, 0.5), (2.0, 0.7), (1.0, 1.6))
    known_failures = {
        "invert Uniform(0,1) a=1 b=1.6":
            "StageError: stage 2 monotonicity violated by 6.2e-03 before rectification",
        "invert Beta(2,2) a=1 b=1.6": "round trip 6.9e-3 misses 5e-3",
        "forward Uniform(0,1) a=2 b=0.7":
            "mixture table is 1.2e-6 off near x = 1e-3, where weyl mode matches the closed form",
    }

    def setup(self, seed, ctx):
        # The library's inputs are criterion 3's: the default forward grid and
        # an unjittered 50-point inversion grid.  The beta = 1.6 round trips
        # are ill-conditioned in the grid (moving the nodes by 2% of a step
        # moves the Beta(2,2) error between 5.7e-3 and 7.6e-3; 20% lets it
        # pass), so jittered grids would make the known failure come and go
        # with the seed.  The seed only orders the cases.
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for label, make in self.LAWS:
            H = make()
            for a, b in self.PARAMS:
                hi = H.upper if math.isfinite(H.upper) else float(H.quantile(0.995))
                g = np.geomspace(max(1e-3, 1e-3 * hi), hi * 0.999, 50)
                nodes = np.arange(12, 240, 24)
                self.cases.append({"label": f"{label} a={a:g} b={b:g}", "H": H, "a": a,
                                   "b": b, "grid": g, "plan": IterationPlan.default_for(b),
                                   "nodes": nodes, "F": None, "oracle": None})
        self.cases = [self.cases[i] for i in rng.permutation(len(self.cases))]
        self.sizes = {"cases": len(self.cases), "forward_points": 240, "invert_points": 50}

    def warmup(self):
        bs.forward_cdf(Exponential(1.0), 1.0, 0.5, 1.0, mode="mixture")
        bs.forward_cdf(Exponential(1.0), 1.0, 0.5, 1.0, mode="weyl")

    def ops(self):
        out = []
        for c in self.cases:
            out.append(Op(f"forward {c['label']}", self._forward(c), self._check_forward(c)))
            out.append(Op(f"invert {c['label']}", self._invert(c), self._check_invert(c)))
        return out

    @staticmethod
    def _forward(c):
        def call():
            c["F"] = None
            c["F"] = bs.forward_tabulated(c["H"], c["a"], c["b"], n_points=240)
            return c["F"]
        return call

    @staticmethod
    def _check_forward(c):
        def check(F):
            if c["oracle"] is None:
                c["oracle"] = [bs.forward_cdf(c["H"], c["a"], c["b"], float(F.grid[i]), mode="weyl")
                               for i in c["nodes"]]
            return [O.close(f"table at x={F.grid[i]:.4g} vs weyl", F.values[i], ref,
                            atol=O.MODES_ABS) for i, ref in zip(c["nodes"], c["oracle"])]
        return check

    @staticmethod
    def _invert(c):
        def call():
            if c["F"] is None:
                raise RuntimeError("forward tabulation failed")
            return bs.invert_iterative(c["F"], c["a"], c["plan"], c["grid"])
        return call

    @staticmethod
    def _check_invert(c):
        def check(rec):
            err = max(abs(float(rec.sf(float(x))) - float(c["H"].sf(float(x)))) for x in c["grid"])
            return [O.Check("round trip vs base sf", err, O.ROUNDTRIP_ABS)]
        return check


# ---------------------------------------------------------------------------

class PointEval(Workload):
    """Scattered single points of forward_cdf / forward_sf / forward_pdf in
    both weyl and mixture modes over Exponential, Gamma, Rayleigh, Pareto,
    Uniform, Beta and a point mass, plus predict_gumbel / predict_frechet /
    predict_weibull and density_ratio deep in the tail, where accuracy must be
    relative (the tails layer runs with atol = 1e-300).

    Why: the same scaling and fractional layers, one point at a time, where
    batching over a grid amortises nothing and far-tail relative accuracy
    matters; a change that speeds up tabulation but adds per-point overhead
    or loses tail accuracy shows here.  Points are stratified on a log scale
    and jittered by the seed, except the fixed ones described below.
    Oracles: closed forms (gamma and beta algebra, Pareto, product of
    uniforms, point mass <-> betainc) and an mpmath reference for Rayleigh.
    """

    name = "point_eval"
    why = "single-point forward values in both modes and far-tail asymptotes"
    K = 6

    @staticmethod
    def _laws():
        # A law's own tier-1 tolerance where one exists (Pareto, Uniform, the
        # Beta identity, point mass), else the forward map's generic ones.
        rel = (1e-12, O.VALUE_REL)
        generic = {"cdf": (O.MODES_ABS, 0.0), "sf": (O.MODES_ABS, 0.0), "pdf": (O.PDF_DERIV_ABS, 0.0)}
        # label, law, alpha, beta, x range, oracle (cdf, sf, pdf), (atol, rtol) or {fn: (atol, rtol)}
        return [
            ("Exponential(1)", Exponential(1.0), 0.6, 0.4, (0.05, 5.0), O.gamma_law(0.6, 1.0), generic),
            ("Gamma(2.5,1.5)", Gamma(2.5, 1.5), 2.0, 0.5, (0.2, 5.0), O.gamma_law(2.0, 1.5), generic),
            ("Rayleigh(1)", Rayleigh(1.0), 2.0, 0.7, (0.1, 3.0), O.rayleigh_scaled(1.0, 2.0, 0.7), generic),
            ("Pareto(2,1)", Pareto(2.0, 1.0), 2.0, 0.7, (1.05, 8.0),
             O.pareto_scaled(2.0, 1.0, 2.0, 0.7), {**generic, "cdf": (O.PARETO_ABS, 0.0),
                                                   "sf": (O.PARETO_ABS, 0.0)}),
            ("Uniform(0,1)", Uniform(0.0, 1.0), 2.0, 0.7, (0.05, 0.95), O.uniform_scaled(2.0, 0.7), rel),
            ("Uniform(0,1)", Uniform(0.0, 1.0), 1.0, 1.0, (0.05, 0.95), O.uniform_scaled(1.0, 1.0), rel),
            ("Beta(2,2)", Beta(2.0, 2.0), 1.5, 0.5, (0.05, 0.95), O.beta_law(1.5, 2.5), generic),
            ("Beta(1.5,0.5)", Beta(1.5, 0.5), 1.0, 0.5, (0.05, 0.95), O.beta_law(1.0, 1.0),
             {**generic, "cdf": (O.BETA_ABS, 0.0), "sf": (O.BETA_ABS, 0.0)}),
            # criterion 2 gates the point mass in mixture mode; weyl mode is probed below
            ("PointMass(1)", PointMass(1.0), 2.0, 3.0, (0.05, 0.95), O.pointmass_scaled(1.0, 2.0, 3.0),
             {"cdf": (O.POINTMASS_ABS, 0.0), "sf": (O.POINTMASS_ABS, 0.0)}),
        ]

    # weyl mode drops its quadrature breakpoints on an infinite range, so a
    # kink or jump of the integrand there (the upper end of a bounded law in
    # forward_cdf, the atom of a point mass, the Pareto density at xmin) is
    # missed at some x and not at others, 1-2% of points for Uniform.  At
    # jittered points the number of failures would depend on the seed, so
    # those evaluations sit at fixed points: the stratum midpoints for the
    # bounded laws' weyl cdf, and the probes below.  The point-mass points
    # 0.1, 0.5, 0.9 are the tier-1 ones; the other probes fail today.
    @staticmethod
    def _probes():
        pm = O.pointmass_scaled(1.0, 2.0, 3.0)[0]
        par = O.pareto_scaled(2.0, 1.0, 2.0, 0.7)[2]
        out = [("cdf", "PointMass(1)", PointMass(1.0), 2.0, 3.0, x, pm, (O.POINTMASS_WEYL_ABS, 0.0))
               for x in (0.1, 0.5, 0.9, 0.476)]
        out += [("pdf", "Pareto(2,1)", Pareto(2.0, 1.0), 2.0, 0.7, x, par, (O.PDF_DERIV_ABS, 0.0))
                for x in (0.47, 0.8)]
        out.append(("cdf", "Uniform(0,1)", Uniform(0.0, 1.0), 1.0, 1.0, 0.668,
                    O.uniform_scaled(1.0, 1.0)[0], (1e-12, O.VALUE_REL)))
        out.append(("cdf", "Beta(1.5,0.5)", Beta(1.5, 0.5), 1.0, 0.5, 0.6387,
                    O.beta_law(1.0, 1.0)[0], (O.BETA_ABS, 0.0)))
        return out

    known_failures = {
        "cdf PointMass(1) a=2 b=3 weyl x=0.476": "weyl mode misses the atom (error 1.4e-4)",
        "pdf Pareto(2,1) a=2 b=0.7 weyl x=0.47": "weyl mode misses the density jump at xmin",
        "pdf Pareto(2,1) a=2 b=0.7 weyl x=0.8": "weyl mode misses the density jump at xmin",
        "cdf Uniform(0,1) a=1 b=1 weyl x=0.668": "weyl mode misses the kink at the upper end (6e-7)",
        "cdf Beta(1.5,0.5) a=1 b=0.5 weyl x=0.6387": "weyl mode misses the kink at the upper end (2e-5)",
    }

    def setup(self, seed, ctx):
        rng = np.random.default_rng([seed, 2])
        self.specs = []
        mid = (np.arange(self.K) + 0.5) / self.K
        for label, H, a, b, (lo, hi), oracle, bounds in self._laws():
            xs = jittered_geom(rng, lo, hi, self.K)
            fixed = lo * (hi / lo) ** mid
            modes = ("mixture",) if isinstance(H, PointMass) else ("weyl", "mixture")
            for fname, ref in zip(("cdf", "sf", "pdf"), oracle):
                if ref is None:
                    continue
                tol = bounds if isinstance(bounds, tuple) else bounds[fname]
                for mode in modes:
                    at_kink = mode == "weyl" and fname == "cdf" and math.isfinite(H.upper)
                    for x in (fixed if at_kink else xs):
                        self.specs.append(("forward", f"{fname} {label} a={a:g} b={b:g} {mode} x={x:.4g}",
                                           (H, a, b, float(x), fname, mode, ref, tol)))
        for fname, label, H, a, b, x, ref, tol in self._probes():
            self.specs.append(("forward", f"{fname} {label} a={a:g} b={b:g} weyl x={x:g}",
                               (H, a, b, x, fname, "weyl", ref, tol)))
        # tail levels move by at most 1%: the asymptotic ratio checks set
        # max_err_ratio here, and they drift with x
        jit = lambda v: float(v * (1.0 + rng.uniform(-0.01, 0.01)))
        ex, ray, par = Exponential(1.0), Rayleigh(1.0), Pareto(2.0, 1.0)
        gam, uni, bet = Gamma(2.5, 1.5), Uniform(0.0, 1.0), Beta(2.0, 2.0)
        tails = []
        for x in (20.0, 25.0, 30.0):
            tails.append(("gumbel", ex, 1.0, 1.0, jit(x), O.exponential_uniform_scaled()[1], True))
        for x in (15.0, 20.0):
            tails.append(("gumbel", gam, 2.0, 0.5, jit(x), O.gamma_law(2.0, 1.5)[1], False))
        for x in (5.0, 6.0):
            tails.append(("gumbel", ray, 2.0, 0.7, jit(x), O.rayleigh_scaled(1.0, 2.0, 0.7)[1], False))
        for x in (8.0, 30.0, 100.0):
            tails.append(("frechet", par, 2.0, 0.7, jit(x), O.pareto_scaled(2.0, 1.0, 2.0, 0.7)[1], True))
        for d in (0.01, 0.003, 0.001):
            tails.append(("weibull", uni, 1.0, 1.0, jit(d), O.uniform_scaled(1.0, 1.0)[1], False))
        for d in (0.01, 0.001):
            tails.append(("weibull", bet, 1.5, 0.5, jit(d), O.beta_law(1.5, 2.5)[1], False))
        for kind, H, a, b, x, ref, ratio_check in tails:
            self.specs.append(("predict", f"predict_{kind} {type(H).__name__} a={a:g} b={b:g} x={x:.4g}",
                               (kind, H, a, b, x, ref, ratio_check)))
        for mode, H, xs in (("frechet", par, (10.0, 30.0)), ("gumbel", ex, (20.0, 25.0)),
                            ("weibull", uni, (1e-3, 5e-4))):
            for x in xs:
                x = jit(x)
                self.specs.append(("density", f"density_ratio {mode} {type(H).__name__} a=1 b=1 x={x:.4g}",
                                   (mode, H, x)))
        self.sizes = {"forward_ops": sum(s[0] == "forward" for s in self.specs),
                      "tail_ops": sum(s[0] != "forward" for s in self.specs)}

    def warmup(self):
        bs.forward_cdf(Exponential(1.0), 1.0, 0.5, 1.0, mode="weyl")
        bs.forward_pdf(Exponential(1.0), 1.0, 0.5, 1.0, mode="mixture")

    def ops(self):
        return [Op(label, *getattr(self, f"_{kind}")(args)) for kind, label, args in self.specs]

    def _forward(self, args):
        H, a, b, x, fname, mode, ref_fn, (atol, rtol) = args
        name = f"forward_{fname}"
        ref = []

        def check(val):
            if not ref:
                ref.append(ref_fn(x))
            return [O.close("vs exact", val, ref[0], atol=atol, rtol=rtol)]

        return (lambda: getattr(bs, name)(H, a, b, x, mode=mode)), check

    def _predict(self, args):
        kind, H, a, b, x, ref_fn, ratio_check = args
        point = x if kind != "weibull" else H.mda().r_upper * (1.0 - x)
        ref = []

        def check(t):
            if not ref:
                ref.append(ref_fn(point))
            out = [O.close("direct vs exact", t.direct, ref[0], rtol=O.TAIL_REL)]
            if ratio_check:
                lim = O.GUMBEL_RATIO_ABS if kind == "gumbel" else O.FRECHET_RATIO_ABS
                out.append(O.close("prediction ratio", t.ratio, 1.0, atol=lim))
            return out

        return (lambda: getattr(bs, f"predict_{kind}")(H, a, b, x)), check

    def _density(self, args):
        mode, H, x = args

        def check(res):
            ratio, limit = res
            return [O.close("ratio vs limit", ratio, limit, rtol=O.DENSITY_REL[mode])]

        return (lambda: bs.density_ratio(H, 1.0, 1.0, x, mode)), check


# ---------------------------------------------------------------------------

class EllipticalEstimate(Workload):
    """200k Rayleigh pairs at rho = 0.5 -> pipeline with R1 and R2 -> psi_hat
    and quantile_hat against the exact conditional_sf_exceed quadrature;
    importance-sampled Monte Carlo at levels where P(U > x) < 1e-4;
    convergence_diagnostic; and sampling with a Kotz (M != 1) radial (a brentq
    per point) and a TabulatedCdf radial built from a closed-form CDF (a
    bisection per point; no scaling work).

    Why: the sample-based layers (estimation, elliptical, array quantiles).
    fractional and scaling do no work here, so a quadrature change should not
    move this workload.
    Oracles: criterion-9 bands, psi/quantile vs quadrature (0.05), Monte
    Carlo vs quadrature (test_exceed_methods_agree), the diagnostic's noise
    floor (rho = 0 as in its tier-1 test), and per-draw exact quantiles.
    psi_hat at criterion 9's own level (x = 99.5% quantile of u, y = x/2)
    misses 0.05 against the exact value today and counts as a failure.
    """

    name = "elliptical_estimate"
    why = "estimators, elliptical conditionals and per-point quantile sampling"
    N_PAIRS = 200_000
    N_MC = 100_000
    N_KOTZ = 20_000
    N_TAB = 2_000
    known_failures = {
        "psi_hat x=q995(u) y=x/2": "Gaussian plug-in is ~0.07 off the exact value at criterion 9's level",
    }

    def setup(self, seed, ctx):
        rng = np.random.default_rng([seed, 3])
        self.model = EllipticalModel(0.5, Rayleigh(1.0))
        self.gauss = EllipticalModel(0.0, Rayleigh(1.0))
        self.kotz = EllipticalModel(0.5, Kotz(2.0, 0.0, 1.0, 2.0))
        grid = np.linspace(0.0, 7.0, 200)
        self.tab = EllipticalModel(0.5, TabulatedCdf(grid, 1.0 - np.exp(-0.5 * grid ** 2)))
        self.seeds = {k: seed_int(rng) for k in ("pairs", "mc", "diag", "kotz", "tab")}
        self.streams = (0, 1)
        self.batch = SampleBatch.from_pairs(
            bs.sample_elliptical(self.model, self.N_PAIRS, self.seeds["pairs"]))
        self.x9 = float(np.quantile(self.batch.u, 0.995))
        jit = lambda v: float(v * (1.0 + rng.uniform(-0.03, 0.03)))
        self.psi_points = [("x=q995(u) y=x/2", self.x9, 0.5 * self.x9)] + \
            [(f"x={x:.4g} y=x/2", x, 0.5 * x) for x in (jit(6.0), jit(7.0), jit(8.0))]
        self.q_points = [(x, s) for x in (self.x9, jit(5.0), jit(6.0)) for s in (0.9, 0.99)]
        self.mc_points = [(x, 0.5 * x + 0.3) for x in map(jit, (4.0, 4.25, 4.5, 4.75, 5.0))]
        self.diag_x = [[jit(2.0), jit(4.0)], [jit(3.0), jit(5.0)]]
        self.state = {}
        self._exact = {}
        self.sizes = {"pairs": self.N_PAIRS, "mc_draws": self.N_MC, "kotz_draws": self.N_KOTZ,
                      "tabulated_draws": self.N_TAB}

    def warmup(self):
        bs.conditional_sf_exceed(self.model, 4.0, 2.0, method="montecarlo", n=1000, seed=1)
        self.tab.radial.quantile(np.array([0.5]))

    def exact(self, x, y):
        if (x, y) not in self._exact:
            self._exact[(x, y)] = bs.conditional_sf_exceed(self.model, x, y)
        return self._exact[(x, y)]

    def ops(self):
        ops = [Op(f"pipeline {src}", self._pipeline(src), self._check_fit(src))
               for src in ("R1", "R2")]
        for label, x, y in self.psi_points:
            ops.append(Op(f"psi_hat {label}", self._fit_call("psi_hat", x, y),
                          lambda v, x=x, y=y: [O.close("vs quadrature", v, self.exact(x, y),
                                                       atol=O.PSI_ABS, sampled=True)]))
        for x, s in self.q_points:
            ops.append(Op(f"quantile_hat x={x:.4g} s={s:g}", self._fit_call("quantile_hat", x, s),
                          lambda y, x=x, s=s: [O.close("exact sf at quantile", self.exact(x, y),
                                                       1.0 - s, atol=O.PSI_ABS, sampled=True)]))
        for x, y in self.mc_points:
            ops.append(Op(f"montecarlo x={x:.4g} y={y:.4g}", self._mc(x, y), self._check_mc(x, y)))
        for xs in self.diag_x:
            ops.append(Op(f"convergence_diagnostic rho=0 x={xs[0]:.4g},{xs[1]:.4g}",
                          self._diag(xs), self._check_diag))
        for stream in self.streams:
            ops.append(Op(f"sample kotz radial stream {stream}",
                          self._sample(self.kotz, self.N_KOTZ, "kotz", stream),
                          self._check_radii(self.kotz, "kotz", stream)))
            ops.append(Op(f"sample tabulated radial stream {stream}",
                          self._sample(self.tab, self.N_TAB, "tab", stream),
                          self._check_radii(self.tab, "tab", stream)))
        return ops

    def _pipeline(self, src):
        def call():
            res = bs.pipeline(self.batch, EstimatorConfig(radius_source=src))
            self.state[src] = res
            return res
        return call

    @staticmethod
    def _check_fit(src):
        def check(res):
            out = [O.band("rho band", res.rho, *O.BAND_RHO)]
            if src == "R2":  # criterion 9 states its bands for R2
                out += [O.band("theta band", res.fit.theta, *O.BAND_THETA),
                        O.band("r band", res.fit.r, *O.BAND_R)]
            return out
        return check

    def _fit_call(self, name, x, y):
        def call():
            res = self.state["R2"]
            return getattr(bs, name)(res.fit, res.rho, x, y)
        return call

    def _mc(self, x, y):
        return lambda: bs.conditional_sf_exceed(self.model, x, y, method="montecarlo",
                                             n=self.N_MC, seed=self.seeds["mc"])

    def _check_mc(self, x, y):
        def check(est):
            q = self.exact(x, y)
            p_u = float(ndtr(-x))  # U is standard normal for a Rayleigh(1) radial
            bound = O.mc_bound(q, self.N_MC, p_u if p_u >= 1e-4 else 1.0)
            return [O.close("vs quadrature", est, q, atol=bound, sampled=True)]
        return check

    def _diag(self, xs):
        return lambda: bs.convergence_diagnostic(self.gauss, xs, n=self.N_MC, seed=self.seeds["diag"])

    def _check_diag(self, res):
        exceed, point = res
        bound = O.diagnostic_bound(self.N_MC)
        return [O.at_most("exceed sup", float(np.max(exceed)), bound, sampled=True),
                O.at_most("point sup", float(np.max(point)), bound)]

    def _sample(self, model, n, key, stream):
        return lambda: bs.sample_elliptical(model, n, self.seeds[key], stream=stream)

    def _check_radii(self, model, key, stream):
        """Each draw's radius against the uniform that produced it."""
        def check(pairs):
            u, v = pairs[:, 0], pairs[:, 1]
            r = np.hypot(u, (v - model.rho * u) / math.sqrt(1.0 - model.rho ** 2))
            draws = O.philox_uniforms(self.seeds[key], stream, r.size)
            if key == "kotz":
                ref = O.kotz_quantile(2.0, 1.0, 2.0, draws)
                tol = O.QUANTILE_TOL * np.maximum(1.0, np.abs(ref))
                return [O.Check("radius vs exact quantile (err/tol)", float(np.max(np.abs(r - ref) / tol)), 1.0)]
            err = np.abs(np.asarray(model.radial.cdf(r)) - draws)
            return [O.Check("cdf(radius) vs uniform draw", float(err.max()), O.TAB_QUANTILE_ABS)]
        return check


# ---------------------------------------------------------------------------

class Cli(Workload):
    """The betascale command's subcommands: scale forward (cdf and pdf), scale
    invert, tail ratio, ellip conditional (importance-sampled Monte Carlo),
    estimate and dist sample of a tabulated law (a bisection per draw), each
    output then replayed with ``betascale check``.  Inputs: JSON laws, the
    product-of-uniforms CSV x - x ln x of criterion 3, and a generated pairs
    CSV.  One operation is one command, run through ``betascale.cli.main``
    in the benchmark process with its standard output captured.

    Why: the cli layer is otherwise unmeasured: argument parsing, manifests,
    CSV I/O and the byte-for-byte replay, on top of the library calls.  The
    commands run in process because a fresh process's start-up and import
    (~0.5-1 s, scipy.interpolate alone ~0.4 s) could not be timed steadily on
    the shared VM (the same process took 0.7-1.4 s, and the reference kernel
    of calibrate.py does not track start-up); that import is what setup_s
    times, in a fresh interpreter, on every workload.
    Oracles: exit code 0, values against closed forms, and ``check``
    reporting a byte-for-byte replay.
    """

    name = "cli"
    why = "betascale subcommands with manifests, CSV I/O and byte-for-byte replay"
    N_PAIRS = 50_000

    def setup(self, seed, ctx):
        rng = np.random.default_rng([seed, 4])
        self.dir = os.path.join(ctx.work_dir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        p = lambda name: os.path.join(self.dir, name)
        self.rate = float(rng.uniform(0.8, 1.25))
        for name, obj in (("pareto.json", {"family": "pareto", "gamma": 2.0, "xmin": 1.0}),
                          ("expo.json", {"family": "exponential", "rate": self.rate}),
                          ("ray.json", {"family": "rayleigh", "sigma": 1.0})):
            with open(p(name), "w") as fh:
                json.dump(obj, fh)
        # criterion 3's table and a fixed query grid: the inversion error
        # moves with the grid, and it is the one deterministic error that
        # sets max_err_ratio here
        xs = np.linspace(1e-9, 1.0, 800)
        with open(p("uu.csv"), "w") as fh:
            fh.write("x,cdf\n" + "".join(f"{x:.17g},{x - x * math.log(x):.17g}\n" for x in xs))
        pairs = bs.sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), self.N_PAIRS, seed_int(rng))
        with open(p("pairs.csv"), "w") as fh:
            fh.write("u,v\n" + "".join(f"{u:.17g},{v:.17g}\n" for u, v in pairs))
        # grid ends move by a few per cent: the quadrature's cost follows the
        # range, and wider jitter made these commands' time depend on the seed
        g = lambda lo, hi: f"{rng.uniform(*lo):.6g}:{rng.uniform(*hi):.6g}:40"
        # P(U > x) < 1e-4, so the library samples by importance
        x_mc = float(rng.uniform(4.0, 5.0))
        self.ellip_xy = (x_mc, 0.5 * x_mc + float(rng.uniform(0.0, 0.6)))
        self.sample_seed, self.n_sample = seed_int(rng), 1000
        self.est_x = float(rng.uniform(2.8, 3.2))
        self.tail_x = [float(v) for v in np.round(jittered_geom(rng, 2.0, 50.0, 4), 6)]
        self.runs = [
            ("scale forward cdf pareto", ["scale", "forward", "--dist", p("pareto.json"), "--alpha", "1",
                                          "--beta", "1", "--x-grid", g((1.0, 1.1), (7.5, 8.5)),
                                          "--what", "cdf"], "fwd.csv", self._check_forward_cdf),
            ("scale forward pdf exponential", ["scale", "forward", "--dist", p("expo.json"),
                                               "--alpha", "0.5", "--beta", "0.5", "--x-grid",
                                               g((0.095, 0.105), (3.8, 4.2)), "--what", "pdf",
                                               "--mode", "mixture"], "pdf.csv", self._check_forward_pdf),
            ("scale invert product of uniforms", ["scale", "invert", "--dist", p("uu.csv"), "--alpha", "1",
                                                  "--beta", "1", "--x-grid", "0.001:0.999:40"],
             "inv.csv", self._check_invert),
            ("tail ratio pareto", ["tail", "ratio", "--dist", p("pareto.json"), "--alpha", "2",
                                   "--beta", "0.7", "--x", ",".join(map(repr, self.tail_x))],
             "tail.json", self._check_tail),
            ("ellip conditional exceed montecarlo", ["ellip", "conditional", "--rho", "0.5", "--radial",
                                                     p("ray.json"), "--x", repr(self.ellip_xy[0]),
                                                     "--kind", "exceed", "--y", repr(self.ellip_xy[1]),
                                                     "--method", "montecarlo", "--seed",
                                                     str(self.sample_seed)], "ellip.json", self._check_ellip),
            ("dist sample tabulated", ["dist", "sample", "--dist", p("uu.csv"), "--n", str(self.n_sample),
                                       "--seed", str(self.sample_seed)], "sample.csv", self._check_sample),
            ("estimate r2", ["estimate", "--input", p("pairs.csv"), "--kn", "auto", "--source", "r2",
                             "--x", repr(self.est_x), "--s", "0.9,0.99"], "est.json", self._check_estimate),
        ]
        self.sizes = {"commands_per_pass": 2 * len(self.runs), "pairs_csv_rows": self.N_PAIRS,
                      "tabulated_csv_rows": xs.size}

    def ops(self):
        ops = []
        for label, argv, out_name, check in self.runs:
            out = os.path.join(self.dir, out_name)
            ops.append(Op(label, self._proc(argv + ["--out", out]), self._check_output(out, check)))
            ops.append(Op(f"check {label}", self._proc(["check", "--file", out]), self._check_replay))
        return ops

    @staticmethod
    def _proc(argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bs.cli.main(argv)
            return CommandResult(code, out.getvalue(), err.getvalue())
        return call

    @staticmethod
    def _check_output(path, check):
        def run(res):
            out = [O.flag(f"exit code {res.returncode}", res.returncode == 0)]
            if res.returncode == 0:
                out += check(path)
            return out
        return run

    @staticmethod
    def _check_replay(res):
        return [O.flag(f"check exit {res.returncode}", res.returncode == 0),
                O.flag("byte-for-byte replay", res.stdout.startswith("check: OK"))]

    @staticmethod
    def _rows(path):
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        return [(float(a), float(b)) for a, b in rows[1:]]

    @staticmethod
    def _results(path):
        with open(path) as fh:
            return json.load(fh)["results"]

    def _check_forward_cdf(self, path):
        cdf = O.pareto_scaled(2.0, 1.0, 1.0, 1.0)[0]
        return [O.close(f"cdf x={x:.4g}", v, cdf(x), atol=O.PARETO_ABS) for x, v in self._rows(path)]

    def _check_forward_pdf(self, path):
        pdf = O.gamma_law(0.5, self.rate)[2]  # alpha + beta = 1: the Gamma(0.5) law
        return [O.close(f"pdf x={x:.4g}", v, pdf(x), atol=O.PDF_DERIV_ABS)
                for x, v in self._rows(path)]

    def _check_invert(self, path):
        return [O.close(f"recovered cdf x={x:.4g}", v, x, atol=O.ONESTEP_ABS) for x, v in self._rows(path)]

    def _check_tail(self, path):
        res = self._results(path)
        sf = O.pareto_scaled(2.0, 1.0, 2.0, 0.7)[1]
        out = [O.flag("mda frechet", res["mda"] == "frechet")]
        for t in res["triples"]:
            out.append(O.close(f"ratio x={t['x']:.4g}", t["ratio"], 1.0, atol=O.FRECHET_RATIO_ABS))
            out.append(O.close(f"direct x={t['x']:.4g}", t["direct"], sf(t["x"]), rtol=O.TAIL_REL))
        return out

    def _check_ellip(self, path):
        x, y = self.ellip_xy
        q = O.gauss_exceed(0.5, x, y)
        return [O.close("importance sample vs bivariate normal", self._results(path)["value"], q,
                        atol=O.mc_bound(q, 100_000, 1.0), sampled=True)]

    def _check_sample(self, path):
        """Each draw against the uniform that produced it, on the CSV's own table."""
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        draws = np.array([float(r[0]) for r in rows[1:]])
        tab = bs.load_tabulated_csv(os.path.join(self.dir, "uu.csv"))
        u = O.philox_uniforms(self.sample_seed, 0, draws.size)
        err = float(np.max(np.abs(np.asarray(tab.cdf(draws)) - u)))
        return [O.flag(f"{draws.size} draws", draws.size == self.n_sample),
                O.Check("cdf(draw) vs uniform draw", err, O.TAB_QUANTILE_ABS)]

    def _check_estimate(self, path):
        res = self._results(path)
        out = [O.band("rho band", res["rho_hat"], *O.BAND_RHO),
               O.band("theta band", res["theta_hat"], *O.BAND_THETA),
               O.band("r band", res["r_hat"], *O.BAND_R)]
        for q in res["theta_fn"]:
            exact = O.gauss_exceed(0.5, q["x"], q["value"])
            out.append(O.close(f"exact sf at quantile s={q['s']}", exact, 1.0 - q["s"], atol=O.PSI_ABS,
                               sampled=True))
        return out


WORKLOADS = {w.name: w for w in (TabulateInvert, PointEval, EllipticalEstimate, Cli)}
