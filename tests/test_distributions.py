import csv
import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from betascale import (
    Beta,
    DomainError,
    Exponential,
    Gamma,
    Kotz,
    NoDensityError,
    Pareto,
    PointMass,
    Rayleigh,
    TabulatedCdf,
    Uniform,
    beta_moment,
    dist_from_json,
    dist_to_json,
    ln_gamma,
    make_rng,
    mda_classify,
    power_transform_w,
    reg_inc_beta,
    scaling_function_w,
)
from betascale import ScalingFunction
from betascale.distributions import read_csv_columns

CONTINUOUS = [
    Uniform(0.0, 1.0),
    Beta(2.0, 3.0),
    Gamma(2.0, 1.5),
    Exponential(1.0),
    Pareto(2.0, 1.0),
    Rayleigh(1.0),
    Kotz(1.0, 0.0, 1.0, 1.0),
]


# ---------------------------------------------------------------------------
# special functions

def test_ln_gamma_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.0)


def test_reg_inc_beta_values():
    assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    # 3x^2 - 2x^3 at x = 0.25
    assert reg_inc_beta(2.0, 2.0, 0.25) == pytest.approx(0.15625, abs=1e-12)


def test_reg_inc_beta_domain():
    with pytest.raises(DomainError):
        reg_inc_beta(1.0, 1.0, 1.5)


def test_beta_moment():
    assert beta_moment(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert beta_moment(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert beta_moment(1.0, 1.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# evaluation

def test_eval_examples():
    assert Exponential(1.0).sf(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert Pareto(2.0, 1.0).sf(3.0) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert Beta(2.0, 2.0).cdf(0.25) == pytest.approx(reg_inc_beta(2.0, 2.0, 0.25), abs=1e-12)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: type(d).__name__)
def test_cdf_sf_complement(dist):
    rng = make_rng(101)
    lo = dist.lower
    hi = dist.upper if math.isfinite(dist.upper) else dist.quantile(0.999)
    x = lo + (hi - lo) * rng.random(100)
    for xi in x:
        assert abs(dist.cdf(xi) + dist.sf(xi) - 1.0) <= 1e-12


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: type(d).__name__)
def test_quantile_roundtrip(dist):
    rng = make_rng(7)
    lo = dist.lower
    hi = dist.upper if math.isfinite(dist.upper) else dist.quantile(0.99)
    for xi in lo + (hi - lo) * rng.random(25):
        if xi <= lo:
            continue
        assert dist.quantile(dist.cdf(xi)) == pytest.approx(xi, abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: type(d).__name__)
def test_pdf_integrates_to_one(dist):
    from scipy.integrate import quad

    hi = dist.upper if math.isfinite(dist.upper) else dist.quantile(1.0 - 1e-12)
    mid = dist.quantile(0.99)
    total = (quad(dist.pdf, dist.lower, mid, limit=200)[0]
             + quad(dist.pdf, mid, hi, limit=200)[0])
    assert total == pytest.approx(1.0, abs=1e-8)


def test_pointmass_has_no_density():
    with pytest.raises(NoDensityError):
        PointMass(1.0).pdf(0.5)


# ---------------------------------------------------------------------------
# sampling

def test_sample_pointmass():
    assert np.all(PointMass(1.0).sample(3, seed=5) == 1.0)


def test_sample_means():
    u = Uniform(0.0, 1.0).sample(100000, seed=11)
    assert abs(u.mean() - 0.5) <= 0.005
    b = Beta(2.0, 3.0).sample(100000, seed=12)
    assert abs(b.mean() - 0.4) <= 0.006


def test_sampling_reproducible():
    a = Gamma(2.0, 1.0).sample(1000, seed=3)
    b = Gamma(2.0, 1.0).sample(1000, seed=3)
    assert np.array_equal(a, b)
    c = Gamma(2.0, 1.0).sample(1000, seed=4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: type(d).__name__)
def test_sample_kolmogorov(dist):
    x = dist.sample(100000, seed=21)
    ks = stats.kstest(x, dist.cdf).statistic
    assert ks <= 0.01


# ---------------------------------------------------------------------------
# scaling function w

def test_scaling_w_exponential():
    w = scaling_function_w(Exponential(1.0))
    assert w.form == "constant"
    assert w(123.0) == pytest.approx(1.0, rel=1e-12)


def test_scaling_w_rayleigh():
    w = scaling_function_w(Rayleigh(1.0))
    assert w.form == "power"
    assert w(3.0) == pytest.approx(3.0, rel=1e-12)  # w(x) = x


def test_scaling_w_gamma_asymptotic():
    w = scaling_function_w(Gamma(2.0, 1.5))
    assert w(1e6) == pytest.approx(1.5, rel=1e-6)


def test_scaling_w_frechet_rejected():
    with pytest.raises(DomainError):
        scaling_function_w(Pareto(2.0, 1.0))


def test_self_neglecting_improves_with_x():
    w = scaling_function_w(Rayleigh(1.0))
    devs = [w.self_neglect_deviation(x, t_span=3.0, n=31) for x in (5.0, 10.0, 20.0)]
    assert devs[0] > devs[1] > devs[2]


# ---------------------------------------------------------------------------
# MDA classification

def test_mda_pareto():
    cls = mda_classify(Pareto(2.0, 1.0))
    assert cls.label == "frechet"
    assert cls.gamma == pytest.approx(2.0)


def test_mda_uniform():
    cls = mda_classify(Uniform(0.0, 1.0))
    assert cls.label == "weibull"
    assert cls.gamma == pytest.approx(1.0)
    assert cls.r_upper == pytest.approx(1.0)


def test_mda_kotz():
    cls = mda_classify(Kotz(1.5, 0.0, 0.5, 2.0))
    assert cls.label == "gumbel"
    assert cls.w.form == "power"
    assert cls.w.r == pytest.approx(0.5)
    assert cls.w.theta == pytest.approx(2.0)


def test_mda_tabulated_numeric():
    # tabulation of an exponential tail classifies as Gumbel
    grid = np.linspace(0.05, 25.0, 400)
    tab = TabulatedCdf(grid, 1.0 - np.exp(-grid))
    cls = mda_classify(tab)
    assert cls.label == "gumbel"
    assert cls.confident


def test_mda_unclassified_is_not_exception():
    grid = np.linspace(0.1, 1.0, 12)
    vals = np.linspace(0.0, 1.0, 12) ** 0.5
    # too-short, ambiguous grid: must come back unclassified, not raise
    cls = mda_classify(TabulatedCdf(grid, vals))
    assert cls.label == "unclassified"


def test_tabulated_rejects_an_unknown_tail_hint():
    grid = np.linspace(0.05, 25.0, 400)
    for hint in ("gumbl", "none", "Gumbel", ""):
        with pytest.raises(DomainError, match=repr(hint)):
            TabulatedCdf(grid, 1.0 - np.exp(-grid), tail_hint=hint)
    tab = TabulatedCdf(grid, 1.0 - np.exp(-grid), tail_hint="gumbel")
    assert mda_classify(tab).label == "gumbel"


# ---------------------------------------------------------------------------
# tabulated CDFs and serialization

def test_tabulated_monotone_interpolant():
    grid = np.linspace(0.0, 1.0, 50)
    tab = TabulatedCdf(grid, grid ** 2)
    fine = np.linspace(0.0, 1.0, 999)
    vals = np.array([tab.cdf(x) for x in fine])
    assert np.all(np.diff(vals) >= -1e-13)
    assert all(tab.pdf(x) >= 0.0 for x in grid[1:-1])


def test_tabulated_quantile_bisection():
    grid = np.linspace(0.0, 2.0, 80)
    tab = TabulatedCdf(grid, 1.0 - np.exp(-grid ** 2))
    for q in (0.1, 0.5, 0.9):
        x = tab.quantile(q)
        assert tab.cdf(x) == pytest.approx(q, abs=1e-9)


def test_json_roundtrip(tmp_path):
    for dist in [Pareto(2.0, 1.0), Uniform(0.0, 1.0), PointMass(1.0), Rayleigh(2.0)]:
        back = dist_from_json(dist_to_json(dist))
        assert type(back) is type(dist)
        x = 0.5 if math.isfinite(dist.upper) else 2.0
        assert back.cdf(x) == pytest.approx(dist.cdf(x), abs=1e-14)


def test_tabulated_csv_roundtrip(tmp_path):
    grid = np.linspace(0.0, 1.0, 11)
    path = tmp_path / "h.csv"
    path.write_text("x,cdf\n" + "\n".join(f"{x},{x**2}" for x in grid))
    tab = dist_from_json({"family": "tabulated", "path": "h.csv"}, base_dir=str(tmp_path))
    assert tab.cdf(0.5) == pytest.approx(0.25, abs=1e-6)


def _csv_loop_oracle(path, names):
    """The row-by-row reader that read_csv_columns replaced, kept verbatim
    as the reference for values, accepted inputs and error texts."""
    first, second = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        while header and header[0].startswith("#"):
            header = next(reader, [])
        if [h.strip().lower() for h in header[:2]] != list(names):
            raise DomainError(f"{path}: expected header '{','.join(names)}'")
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                a, b = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                a = b = math.nan
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"{path}: line {reader.line_num}: expected two finite "
                                  f"numbers, got {','.join(row)!r}")
            first.append(a)
            second.append(b)
    return first, second


def _read_outcome(reader, path):
    try:
        a, b = reader(str(path), ("u", "v"))
    except DomainError as exc:
        return "error", str(exc)
    return "values", np.asarray(a, dtype=np.float64).tobytes(), \
        np.asarray(b, dtype=np.float64).tobytes()


def _random_table():
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal((2, 50_000)) * np.exp(rng.uniform(-30, 30, (2, 50_000)))
    return "u,v\n" + "".join(f"{a!r},{b:.17g}\n" for a, b in zip(u.tolist(), v.tolist()))


@pytest.mark.parametrize("text", [
    "u,v\r\n1.5,2\r\n-3e-7,4\r\n",                       # CRLF line endings
    "u,v\r1,2\r3,4\r",                                   # CR line endings
    'u,v\n"1.5","2"\n3,"4e0"\n',                          # quoted fields
    '"u","v"\n1,2\n',                                    # a quoted header
    "# manifest: {}\n#\nu,v\n1,2\n",                     # '#' rows before the header
    "u,v\n# note\n1,2\n#3,4\n5,6\n",                     # '#' rows after the header
    "# a\nu,v\n#b\n1,2\n#c",                             # ... on both sides, no last newline
    "u,v\n1,2#x\n",                                      # '#' in the middle of a row
    "u,v\n1,2 # x\n",
    "u,v\n1#x,2\n",
    "u,v\n  #1,2\n",
    "u,v\n\n1,2\n\n\n3,4\n\n",                           # blank rows
    "u,v\r\n\r\n1,2\r\n",
    "u,v\n   \n1,2\n",                                   # a row of spaces is not blank
    "u,v,w\n1,2,3\n4,5,abc\n6,7,#x\n8,9,\n",             # a third column
    "u,v\n 1 , 2 \n\t3\t,4\n",                           # spaces around numbers
    "u,v\n1 ,2\n",
    "u,v\n1_000,2_5.0_1\n",                              # underscores, as float() reads them
    "u,v\n1,2\n3\n",                                     # a one-column row
    "u,v\n1,\n",
    "u,v\n,1\n",
    "u,v\n1,nan\n",                                      # NaN and inf
    "u,v\ninf,1\n",
    "u,v\n1,-Infinity\n",
    "u,v\n1e999,1\n",
    "u,v\n",                                             # header only
    "u,v",
    "",                                                  # no header
    "x,y\n1,2\n",
    "u,v\n0.1000000000000000055511151231257827021181583404541015625,4.9e-324\n",  # one row
    "u,v\n+1,.5\n-0,5.\n",
    "u,v\n0x10,2\n",
    'u,v\n "1",2\n',
    'u,v\n1"5",2\n',
    'u,v\n"1,5",2\n',
    'u,v\n1,2,"a\nb"\n3,4\n',                            # a quoted line break in a column past the second
    "u,v\n1,2\n3,x\n5,6\n",                              # the first bad line is named ...
    "u,v\n# c\n\n1,2\r\nnan,x\n",                        # ... counted as the csv module does
    "u,v\n١,2\n",
], ids=repr)
def test_read_csv_columns_matches_row_loop(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    assert _read_outcome(read_csv_columns, path) == _read_outcome(_csv_loop_oracle, path)


def test_read_csv_columns_matches_row_loop_on_random_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_random_table())
    outcome = _read_outcome(read_csv_columns, path)
    assert outcome[0] == "values" and len(outcome[1]) == 8 * 50_000
    assert outcome == _read_outcome(_csv_loop_oracle, path)
    u, v = read_csv_columns(str(path), ("u", "v"))
    assert u.dtype == v.dtype == np.float64 and u.flags.c_contiguous


@pytest.mark.parametrize("text", ['u,v\n"#1",2\n3,4\n', 'u,v\n#a,"b\nc"\n1,2\n'])
def test_read_csv_columns_rejects_quoted_comment_rows(tmp_path, text):
    # the row loop unquoted a first field before testing it for '#';
    # numpy's reader does not, and such a row is refused with a DomainError
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match="comment row"):
        read_csv_columns(str(path), ("u", "v"))


@pytest.mark.parametrize("c", [math.inf, math.nan])
def test_point_mass_rejects_nonfinite_location(c):
    with pytest.raises(DomainError, match="finite"):
        PointMass(c)


@pytest.mark.parametrize("law", [
    Uniform(0.0, 1.0), Beta(2.0, 3.0), Gamma(2.0, 1.5), Exponential(1.0), Pareto(2.0, 1.0),
    Rayleigh(1.0), Kotz(2, 0, 1, 2), PointMass(1.0),
    TabulatedCdf(np.linspace(0.0, 3.0, 10), np.linspace(0.0, 1.0, 10))],
    ids=lambda law: type(law).__name__)
def test_nan_point_gives_nan(law):
    x = np.array([np.nan, 0.5, np.nan])
    for name in ("cdf", "sf", "pdf"):
        if name == "pdf" and isinstance(law, PointMass):
            continue        # no density to evaluate
        fn = getattr(law, name)
        assert math.isnan(fn(math.nan)), name
        out = fn(x)
        assert np.isnan(out[[0, 2]]).all() and out[1] == fn(0.5), name
    if not isinstance(law, PointMass):
        assert all(np.isnan(v[[0, 2]]).all() for v in law.sf_pdf(x))


@pytest.mark.parametrize("bad", ["grid", "values"])
def test_tabulated_rejects_nan(bad):
    grid, values = np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6)
    (grid if bad == "grid" else values)[2] = np.nan
    with pytest.raises(DomainError, match="finite"):
        TabulatedCdf(grid, values)


@pytest.mark.parametrize("params", [(5, 2, 1, 2), (2, 0, 1, 2), (3, 2, 1, 1), (2, -1, 1, 2),
                                    (10, 0.5, 0.3, 0.7)])
def test_kotz_crossing_matches_brentq(params):
    k = Kotz(*params)
    m, n_exp, r, theta = map(float, params)

    def log_tail(x):
        return math.log(m) + n_exp * math.log(x) - r * x ** theta

    lo = (n_exp / (r * theta)) ** (1.0 / theta) if n_exp > 0 else 1e-12
    hi = max(2.0 * lo, 1.0)
    while log_tail(hi) > 0:
        hi *= 2.0
    assert k.x0 == pytest.approx(brentq(log_tail, lo, hi, xtol=1e-14, rtol=8.9e-16),
                                 rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# each rule of the law layer, pinned bit for bit

@pytest.mark.parametrize("dist,doc", [
    (Uniform(-1.0, 2.0), {"family": "uniform", "a": -1.0, "b": 2.0}),
    (Beta(2.0, 3.0), {"family": "beta", "a": 2.0, "b": 3.0}),
    (Gamma(2.0, 1.5), {"family": "gamma", "shape": 2.0, "rate": 1.5}),
    (Exponential(0.5), {"family": "exponential", "rate": 0.5}),
    (Pareto(2.0, 3.0), {"family": "pareto", "gamma": 2.0, "xmin": 3.0}),
    (Rayleigh(2.0), {"family": "rayleigh", "sigma": 2.0}),
    (Kotz(2.0, -1.0, 1.0, 2.0), {"family": "kotz", "M": 2.0, "N": -1.0, "r": 1.0, "theta": 2.0}),
    (PointMass(1.5), {"family": "pointmass", "c": 1.5}),
], ids=lambda v: type(v).__name__ if not isinstance(v, dict) else "")
def test_json_round_trip_of_every_family(dist, doc):
    out = dist_to_json(dist)
    assert out == doc and list(out) == list(doc)
    back = dist_from_json(out)
    assert type(back) is type(dist)
    assert dist_to_json(back) == doc and list(dist_to_json(back)) == list(doc)


def test_json_defaults_fill_missing_xmin_and_sigma():
    pareto = dist_from_json({"family": "pareto", "gamma": 2})
    assert dist_to_json(pareto) == {"family": "pareto", "gamma": 2.0, "xmin": 1.0}
    ray = dist_from_json({"family": "rayleigh"})
    assert dist_to_json(ray) == {"family": "rayleigh", "sigma": 1.0}


@pytest.mark.parametrize("doc,key", [({"family": "kotz", "M": 1, "N": 0, "r": 1}, "theta"),
                                     ({"family": "pareto", "xmin": 2}, "gamma"),
                                     ({"family": "uniform", "a": 0}, "b")])
def test_json_missing_key_raises_key_error(doc, key):
    with pytest.raises(KeyError, match=key):
        dist_from_json(doc)


def test_json_rejects_unknown_family_and_tabulated_law():
    with pytest.raises(DomainError, match="'normal'"):
        dist_from_json({"family": "normal"})
    with pytest.raises(DomainError, match="unknown distribution family"):
        dist_from_json({"family": ["exponential"]})
    with pytest.raises(DomainError, match="TabulatedCdf"):
        dist_to_json(TabulatedCdf(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6)))


@pytest.mark.parametrize("doc,key", [
    ({"family": "exponential", "rate": "abc"}, "rate"),
    ({"family": "exponential", "rate": True}, "rate"),
    ({"family": "exponential", "rate": math.inf}, "rate"),
    ({"family": "exponential", "rate": None}, "rate"),
    ({"family": "exponential", "rate": [1.0]}, "rate"),
    ({"family": "pareto", "gamma": 2.0, "xmin": -math.inf}, "xmin"),
    ({"family": "kotz", "M": 1, "N": math.nan, "r": 1, "theta": 2}, "N"),
    ({"family": "rayleigh", "sigma": 10 ** 400}, "sigma"),
    ({"family": "pointmass", "c": "0"}, "c"),
    ({"family": "tabulated", "path": 5}, "path"),
    ({"family": "tabulated", "path": ["h.csv"]}, "path"),
], ids=["rate-string", "rate-bool", "rate-inf", "rate-null", "rate-list", "xmin-minus-inf",
        "N-nan", "sigma-huge-int", "c-string", "path-int", "path-list"])
def test_json_rejects_a_parameter_that_is_not_a_finite_number(doc, key):
    with pytest.raises(DomainError, match=f"law parameter '{key}' must be a"):
        dist_from_json(doc)


def _same_bits(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes())


@pytest.mark.parametrize("r", [1.0, 0.3, 2.5e-7])
def test_constant_scaling_is_power_with_unit_exponent(r):
    c, p = ScalingFunction.constant(r), ScalingFunction.power(r, 1.0)
    xs = np.array([0.0, 1e-300, 0.5, 3.0, 1e300, np.inf])
    for x in [*xs.tolist(), np.float64(2.0), 7]:
        assert _same_bits(c(x), p(x)) and c(x) == r, x
    assert _same_bits(c(xs), p(xs)) and (c(xs) == r).all()
    assert _same_bits(c(xs.reshape(2, 3)), p(xs.reshape(2, 3)))
    assert float(c(np.array(0.0))) == float(p(np.array(0.0))) == r
    assert c.form == p.form == "constant"


def test_power_transform_of_each_form():
    x = np.array([0.5, 2.0, 30.0])
    const = power_transform_w(ScalingFunction.constant(3.0), 0.5)
    assert (const.form, const.r, const.theta) == ("power", 3.0, 2.0)
    assert _same_bits(const(x), 3.0 * 2.0 * x ** 1.0)
    power = power_transform_w(ScalingFunction.power(0.5, 3.0), 3.0)
    assert power.form == "constant"
    assert _same_bits(power(x), np.full(3, 0.5))
    power = power_transform_w(ScalingFunction.power(0.5, 3.0), 2.0)
    assert (power.form, power.r, power.theta) == ("power", 0.5, 1.5)
    custom = ScalingFunction.custom(lambda v: np.asarray(v, dtype=float) * 2.0)
    assert power_transform_w(custom, 1.0) is custom
    root = power_transform_w(custom, 2.0)
    assert root.form == "custom"
    assert _same_bits(root(x), x ** 0.5 / (2.0 * x) * (x ** 0.5 * 2.0))
    assert root(4.0) == 1.0  # 2 / (2 * 4) * w(2)
    with pytest.raises(DomainError):
        power_transform_w(custom, 0.0)


def test_tabulated_scaling_is_the_hazard_of_the_interpolant():
    grid = np.linspace(0.05, 25.0, 400)
    tab = TabulatedCdf(grid, 1.0 - np.exp(-grid))
    w = tab.scaling_w()
    xs = np.array([0.3, 4.0, 12.5, 20.0])
    assert _same_bits(w(xs), tab.pdf(xs) / tab.sf(xs))
    for x in xs.tolist():
        assert _same_bits(w(x), tab.pdf(x) / tab.sf(x))


_EDGE_PROBABILITIES = [0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0]


@pytest.mark.parametrize("r,theta", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
def test_exact_weibull_kotz_inverts_in_closed_form(r, theta):
    k = Kotz(1.0, 0.0, r, theta)
    p = np.array(_EDGE_PROBABILITIES)
    with np.errstate(divide="ignore"):
        want_q = (-np.log1p(-p) / r) ** (1.0 / theta)
        want_s = (-np.log(p) / r) ** (1.0 / theta)
        assert _same_bits(k.quantile(p), want_q)
        assert _same_bits(k.isf(p), want_s)
        assert _same_bits(k.quantile(p.reshape(5, 1)), want_q.reshape(5, 1))
        for v in map(np.float64, _EDGE_PROBABILITIES):
            # a scalar takes numpy's scalar arithmetic: isf(1) is +0.0 where
            # the array's entry is -0.0
            assert _same_bits(k.quantile(float(v)), float((-np.log1p(-v) / r) ** (1.0 / theta))), v
            assert _same_bits(k.isf(float(v)), float((-np.log(v) / r) ** (1.0 / theta))), v
        # probabilities past either end are clamped to it
        assert k.quantile(-0.5) == 0.0 and k.quantile(1.5) == math.inf
        assert k.isf(1.5) == 0.0 and k.isf(-0.5) == math.inf
        assert _same_bits(k.quantile(np.array([-1.0, 2.0])), want_q[[0, 4]])
    with pytest.raises(DomainError):
        k.quantile(math.nan)
    with pytest.raises(DomainError):
        k.isf(np.array([0.5, math.nan]))


@pytest.mark.parametrize("c", [0.0, -2.5, 1e300])
def test_point_mass_sample_is_constant(c):
    for n in (1, 7):
        out = PointMass(c).sample(n, seed=3)
        assert _same_bits(out, np.full(n, c))
    with pytest.raises(DomainError, match="sample size"):
        PointMass(c).sample(0, seed=3)
