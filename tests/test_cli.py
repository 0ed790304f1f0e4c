import csv
import json
import math
import os

import numpy as np
import pytest
from scipy.special import betainc

from betascale import EllipticalModel, Rayleigh, sample_elliptical
from betascale import cli
from betascale.cli import main


@pytest.fixture
def pointmass1(tmp_path):
    p = tmp_path / "pointmass1.json"
    p.write_text(json.dumps({"family": "pointmass", "c": 1.0}))
    return str(p)


@pytest.fixture
def pareto2(tmp_path):
    p = tmp_path / "pareto2.json"
    p.write_text(json.dumps({"family": "pareto", "gamma": 2.0, "xmin": 1.0}))
    return str(p)


@pytest.fixture
def expo1(tmp_path):
    p = tmp_path / "expo1.json"
    p.write_text(json.dumps({"family": "exponential", "rate": 1.0}))
    return str(p)


@pytest.fixture
def gauss_rho05(tmp_path):
    pairs = sample_elliptical(EllipticalModel(0.5, Rayleigh(1.0)), 20000, seed=7)
    p = tmp_path / "gauss_rho05.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v"])
        w.writerows([[f"{u:.17g}", f"{v:.17g}"] for u, v in pairs])
    return str(p)


def read_csv_out(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip().split(","))
    header, body = rows[0], rows[1:]
    return header, np.array(body, dtype=float)


def read_json_out(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommand smoke tests against known values


def test_scale_forward_matches_beta_cdf(pointmass1, tmp_path):
    out = str(tmp_path / "fwd.csv")
    code = main(["scale", "forward", "--dist", pointmass1, "--alpha", "2",
                 "--beta", "2", "--x-grid", "0.1:0.9:9", "--out", out])
    assert code == 0
    header, data = read_csv_out(out)
    assert header == ["x", "value"]
    ref = betainc(2.0, 2.0, data[:, 0])
    assert np.max(np.abs(data[:, 1] - ref)) <= 1e-8


def test_scale_forward_mixture_density_of_a_point_mass(pointmass1, tmp_path):
    out = str(tmp_path / "pdf.csv")
    code = main(["scale", "forward", "--dist", pointmass1, "--alpha", "2", "--beta", "3",
                 "--x-grid", "0.1:0.9:9", "--what", "pdf", "--mode", "mixture", "--out", out])
    assert code == 0
    _, data = read_csv_out(out)
    x = data[:, 0]
    # the density of B_{2,3}
    assert np.max(np.abs(data[:, 1] / (12.0 * x * (1.0 - x) ** 2) - 1.0)) <= 1e-12


def test_tail_ratio_pareto_exact(pareto2, tmp_path):
    out = str(tmp_path / "ratio.json")
    code = main(["tail", "ratio", "--dist", pareto2, "--alpha", "1",
                 "--beta", "1", "--x", "2,4,8", "--out", out])
    assert code == 0
    doc = read_json_out(out)
    assert doc["results"]["mda"] == "frechet"
    for t in doc["results"]["triples"]:
        assert abs(t["ratio"] - 1.0) <= 1e-6


def test_estimate_recovers_rho(gauss_rho05, tmp_path):
    out = str(tmp_path / "est.json")
    code = main(["estimate", "--input", gauss_rho05, "--kn", "auto",
                 "--source", "r2", "--x", "3", "--s", "0.95,0.99",
                 "--out", out])
    assert code == 0
    res = read_json_out(out)["results"]
    assert abs(res["rho_hat"] - 0.5) <= 0.05
    assert 1.6 <= res["theta_hat"] <= 2.4
    assert len(res["psi"]) == 2
    # psi at the fitted quantile returns the complementary level
    assert res["psi"][0]["value"] == pytest.approx(0.05, abs=1e-9)


@pytest.mark.parametrize("kn", ["0", "-3"])
def test_estimate_rejects_a_nonpositive_kn(gauss_rho05, tmp_path, capsys, kn):
    out = tmp_path / "est.json"
    assert main(["estimate", "--input", gauss_rho05, "--x", "3", "--kn", kn,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: k_n must be a positive integer, got {kn}\n"
    assert not out.exists()


def test_estimate_warns_when_kn_is_capped(gauss_rho05, tmp_path):
    out = str(tmp_path / "est.json")
    assert main(["estimate", "--input", gauss_rho05, "--x", "3", "--kn", "100000",
                 "--source", "r2", "--out", out]) == 0
    res = read_json_out(out)["results"]
    assert res["kn"] == 20000 // 3
    assert res["warnings"] == [f"k_n=100000 capped at n // 3 = {20000 // 3}"]


def test_dist_eval_and_mda(expo1, tmp_path):
    out = str(tmp_path / "eval.json")
    assert main(["dist", "eval", "--dist", expo1, "--what", "sf",
                 "--x", "1,2", "--out", out]) == 0
    vals = read_json_out(out)["results"]
    assert vals[0]["value"] == pytest.approx(math.exp(-1.0), abs=1e-12)

    out2 = str(tmp_path / "mda.json")
    assert main(["dist", "mda", "--dist", expo1, "--out", out2]) == 0
    assert read_json_out(out2)["results"]["label"] == "gumbel"


def test_dist_sample_csv(expo1, tmp_path):
    out = str(tmp_path / "draws.csv")
    assert main(["dist", "sample", "--dist", expo1, "--n", "500",
                 "--seed", "3", "--out", out]) == 0
    _, data = read_csv_out(out)
    assert data.shape == (500, 1)
    assert abs(np.mean(data) - 1.0) <= 0.2


def test_frac_weyl_known_value(tmp_path):
    # integral of (y - x) y^{-2} over (x, inf) = 1/x at x = 2
    out = str(tmp_path / "weyl.json")
    assert main(["frac", "weyl", "--beta", "1", "--x", "2",
                 "--weight", "-2", "--out", out]) == 0
    assert read_json_out(out)["results"]["value"] == pytest.approx(0.5, rel=1e-9)


def test_scale_invert_recovers_beta(tmp_path):
    # the uniform law is the forward image of Beta(1.5, 0.5) under (1, 0.5)
    uni = tmp_path / "uniform.json"
    uni.write_text(json.dumps({"family": "uniform", "a": 0.0, "b": 1.0}))
    out = str(tmp_path / "inv.csv")
    code = main(["scale", "invert", "--dist", str(uni), "--alpha", "1",
                 "--beta", "0.5", "--x-grid", "0.05:0.95:19", "--out", out])
    assert code == 0
    _, data = read_csv_out(out)
    assert np.all(np.diff(data[:, 1]) >= -1e-9)
    ref = betainc(1.5, 0.5, data[:, 0])
    assert np.max(np.abs(data[:, 1] - ref)) <= 5e-3


def test_ellip_simulate_and_conditional(tmp_path):
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"family": "rayleigh", "sigma": 1.0}))
    out = str(tmp_path / "sim.csv")
    assert main(["ellip", "simulate", "--rho", "0.5", "--radial", str(ray),
                 "--n", "1000", "--seed", "4", "--out", out]) == 0
    header, data = read_csv_out(out)
    assert header == ["u", "v"]
    assert data.shape == (1000, 2)

    out2 = str(tmp_path / "cond.json")
    assert main(["ellip", "conditional", "--rho", "0.0", "--radial", str(ray),
                 "--x", "2.5", "--kind", "exceed", "--y", "0.0",
                 "--out", out2]) == 0
    val = read_json_out(out2)["results"]["value"]
    assert 0.4 <= val <= 0.6


# ---------------------------------------------------------------------------
# determinism, manifest, check, exit codes


def test_byte_determinism_all_subcommands(tmp_path, expo1, pareto2, gauss_rho05):
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"family": "rayleigh", "sigma": 1.0}))
    cases = [
        ["dist", "sample", "--dist", expo1, "--n", "200", "--seed", "5"],
        ["dist", "eval", "--dist", expo1, "--what", "cdf", "--x", "0.5,1.5"],
        ["frac", "weyl", "--beta", "0.5", "--x", "1", "--weight", "-2"],
        ["scale", "forward", "--dist", expo1, "--alpha", "1", "--beta", "1",
         "--x-grid", "0.5:3:6"],
        ["tail", "ratio", "--dist", pareto2, "--alpha", "1", "--beta", "1",
         "--x", "2,4"],
        ["ellip", "simulate", "--rho", "0.3", "--radial", str(ray),
         "--n", "100", "--seed", "6"],
        ["estimate", "--input", gauss_rho05, "--kn", "200", "--source", "r2",
         "--x", "3", "--s", "0.9"],
    ]
    for i, argv in enumerate(cases):
        a = str(tmp_path / f"a{i}.out")
        b = str(tmp_path / f"b{i}.out")
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"non-deterministic: {argv}"


def test_manifest_embedded(tmp_path, expo1):
    out = str(tmp_path / "m.json")
    assert main(["dist", "eval", "--dist", expo1, "--what", "cdf",
                 "--x", "1", "--out", out]) == 0
    man = read_json_out(out)["manifest"]
    assert man["subcommand"] == "dist"
    assert expo1 in man["inputs"]
    assert len(man["inputs"][expo1]) == 64     # sha256 hex digest
    assert "version" in man

    out2 = str(tmp_path / "m.csv")
    assert main(["dist", "sample", "--dist", expo1, "--n", "10",
                 "--seed", "1", "--out", out2]) == 0
    first = open(out2).readline()
    assert first.startswith("# manifest: ")
    assert json.loads(first[len("# manifest: "):])["seed"] == 1


def test_check_replays_output(tmp_path, expo1):
    out = str(tmp_path / "orig.json")
    assert main(["dist", "eval", "--dist", expo1, "--what", "sf",
                 "--x", "1,2,3", "--out", out]) == 0
    assert main(["check", "--file", out]) == 0
    # tampering must be detected
    doc = read_json_out(out)
    doc["results"][0]["value"] = 0.123
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert main(["check", "--file", out]) == 1


def test_check_replays_csv(tmp_path, expo1):
    out = str(tmp_path / "orig.csv")
    assert main(["dist", "sample", "--dist", expo1, "--n", "50",
                 "--seed", "9", "--out", out]) == 0
    assert main(["check", "--file", out]) == 0


REPLAY_DIR = os.path.join(os.path.dirname(__file__), "data", "replay")


@pytest.mark.parametrize("name", [
    "est.json", "sample.csv", "inv.csv", "eval.json", "mda.json", "weyl.json",
    "stieltjes.json", "fwd_weyl.csv", "fwd_mixture.csv", "inv_default.csv",
    "tail.json", "sim.csv", "cond_point.json", "cond_quad.json", "cond_mc.json",
    "fwd_uu_mixture.csv"])
def test_check_replays_captured_outputs(monkeypatch, capsys, name):
    # outputs written by an earlier version of the code: the current one
    # must reproduce them byte for byte
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.chdir(REPLAY_DIR)
    assert main(["check", "--file", name]) == 0
    assert capsys.readouterr().out == f"check: OK {name}\n"


def test_out_spellings_give_identical_files(tmp_path, expo1):
    argv = ["dist", "eval", "--dist", expo1, "--what", "cdf", "--x", "1"]
    outs = [str(tmp_path / f"a{i}.json") for i in range(3)]
    assert main(argv + ["--out", outs[0]]) == 0
    assert main(argv + [f"--out={outs[1]}"]) == 0
    assert main(argv + ["--ou", outs[2]]) == 0
    docs = [open(o, "rb").read() for o in outs]
    assert docs[0] == docs[1] == docs[2]
    assert read_json_out(outs[1])["manifest"]["argv"] == argv
    assert main(["check", "--file", outs[1]]) == 0


@pytest.mark.parametrize("data", [b"x,cdf\n0,0\n1,1\n",
                                  b'{"results": {"value": 1.0}}\n',
                                  b"\xff\xfe\x00manifest"],
                         ids=["csv", "json", "bytes"])
def test_check_rejects_a_file_without_manifest(tmp_path, capsys, data):
    f = tmp_path / "plain.csv"
    f.write_bytes(data)
    assert main(["check", "--file", str(f)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {f}: holds no betascale manifest\n"


@pytest.mark.parametrize("flag", ["--dist", "--input", "--file", "--out"])
def test_a_directory_for_a_path_exits_1(tmp_path, capsys, expo1, flag):
    d = str(tmp_path)
    argv = {"--dist": ["dist", "mda", "--dist", d],
            "--input": ["estimate", "--input", d, "--x", "1"],
            "--file": ["check", "--file", d],
            "--out": ["dist", "mda", "--dist", expo1, "--out", d]}[flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and "Traceback" not in err
    assert os.listdir(d) == ["expo1.json"]


def test_parser_built_once_and_reused(tmp_path, capsys, expo1, pareto2):
    out = str(tmp_path / "eval.json")
    calls = [
        ["dist", "eval", "--dist", expo1, "--what", "sf", "--x", "1,2", "--out", out],
        ["dist", "eval", "--dist", expo1, "--nonsense"],
        ["tail", "ratio", "--dist", pareto2, "--alpha", "1", "--beta", "1", "--x", "2,4"],
        ["check", "--file", out],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        with open(out, "rb") as fh:
            return code, captured.out, captured.err, fh.read()

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert [r[0] for r in reused] == [0, 64, 0, 0]
    assert reused == fresh
    assert cli._build_parser.cache_info().misses == 1


def test_exit_code_domain_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "pareto", "gamma": -1.0}))
    assert main(["dist", "eval", "--dist", str(bad), "--what", "cdf",
                 "--x", "1"]) == 1


@pytest.mark.parametrize("text,named", [("{not json", "invalid JSON"),
                                        ('{"family": "exponential"}', "'rate'"),
                                        ("[1, 2]", "JSON object")])
def test_exit_code_malformed_dist_json(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["dist", "eval", "--dist", str(bad), "--what", "cdf", "--x", "1"]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and named in err and "Traceback" not in err


def test_dist_mda_rejects_an_unknown_tail_hint(tmp_path, capsys):
    table = tmp_path / "expo.csv"
    table.write_text("x,cdf\n" + "".join(f"{x!r},{1.0 - math.exp(-x)!r}\n"
                                         for x in np.linspace(0.05, 25.0, 400).tolist()))
    law = tmp_path / "expo.json"
    law.write_text(json.dumps({"family": "tabulated", "path": str(table),
                               "tail_hint": "gumbl"}))
    assert main(["dist", "mda", "--dist", str(law)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'gumbl'" in err and "Traceback" not in err


def test_exit_code_usage():
    assert main(["no-such-command"]) == 64
    assert main(["dist", "eval", "--nonsense"]) == 64


def test_exit_code_missing_file():
    assert main(["dist", "eval", "--dist", "/nonexistent.json",
                 "--what", "cdf", "--x", "1"]) == 1


@pytest.mark.parametrize("command,header,row", [
    ("dist", "x,cdf", "1,abc"),       # a non-numeric cell
    ("dist", "x,cdf", "1"),           # a one-column row
    ("dist", "x,cdf", "nan,0.5"),     # a NaN grid point
    ("dist", "x,cdf", "1,nan"),       # a NaN cdf value
    ("estimate", "u,v", "foo,0.3"),   # a non-numeric sample
])
def test_exit_code_malformed_csv(tmp_path, capsys, command, header, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n0,0\n{row}\n2,1\n3,1\n")
    argv = (["dist", "eval", "--dist", str(bad), "--what", "cdf", "--x", "0.5"]
            if command == "dist" else ["estimate", "--input", str(bad), "--x", "1"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}: line 3" in err and "Traceback" not in err


def test_tail_ratio_unclassified_table(tmp_path, capsys):
    # six grid points leave too few tail points to fit any class
    table = tmp_path / "flat.csv"
    table.write_text("x,cdf\n0,0\n1,0.2\n2,0.4\n3,0.6\n4,0.8\n5,1\n")
    argv = ["tail", "ratio", "--dist", str(table), "--alpha", "1", "--beta", "1", "--x", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "classify" in err and "--mda" not in err
    # the class is always the law's own: there is no option to name another
    assert main(argv + ["--mda", "gumbel"]) == 64


@pytest.mark.parametrize("x", ["1", "4"])
def test_montecarlo_sample_size_zero_exits_1(tmp_path, capsys, x):
    # one sampler at every level, so one error at P(U > x) = 0.16 and 3e-5
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"family": "rayleigh", "sigma": 1.0}))
    argv = ["ellip", "conditional", "--rho", "0.5", "--radial", str(ray), "--x", x,
            "--kind", "exceed", "--y", "2.5", "--method", "montecarlo", "--n", "0",
            "--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample size must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["dist", "eval", "--what", "cdf", "--x", "nan"],
    ["dist", "eval", "--what", "pdf", "--x", "1,inf"],
    ["estimate", "--x", "nan", "--s", "0.9"],
    ["estimate", "--x", "inf"],
    ["ellip", "conditional", "--kind", "exceed", "--x", "1", "--y", "inf"],
    ["ellip", "conditional", "--kind", "exceed", "--x", "1", "--y", "inf",
     "--method", "montecarlo"],
    ["ellip", "conditional", "--kind", "exceed", "--x", "nan", "--y", "1"],
    ["ellip", "conditional", "--kind", "point", "--x", "nan"],
    ["ellip", "conditional", "--kind", "point", "--x", "inf"],
    # malformed numbers
    ["scale", "forward", "--alpha", "1", "--beta", "0.5", "--x-grid", "0:1:x"],
    ["scale", "forward", "--alpha", "1", "--beta", "0.5", "--x-grid", "0.1:1:2.5"],
    ["dist", "eval", "--what", "cdf", "--x", "1,abc"],
    ["tail", "ratio", "--alpha", "1", "--beta", "0.5", "--x", "1,q"],
    ["scale", "invert", "--alpha", "1", "--beta", "0.5", "--plan", "0.5,x"],
    ["estimate", "--x", "1", "--kn", "abc"],
    ["estimate", "--x", "1", "--s", "0.5,zz"],
], ids=lambda argv: " ".join(argv))
def test_exit_code_nonfinite_input(tmp_path, capsys, expo1, gauss_rho05, argv):
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"family": "rayleigh", "sigma": 1.0}))
    inputs = {"dist": ["--dist", expo1], "scale": ["--dist", expo1], "tail": ["--dist", expo1],
              "estimate": ["--input", gauss_rho05],
              "ellip": ["--rho", "0.5", "--radial", str(ray)]}[argv[0]]
    out = str(tmp_path / "out.json")
    assert main(argv + inputs + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("beta", ["nan", "inf", "0", "-1"],
                         ids=["nan-beta", "infinite-beta", "zero-beta", "negative-beta"])
def test_scale_invert_rejects_a_beta_that_is_not_finite_and_positive(tmp_path, capsys, expo1,
                                                                     beta):
    out = tmp_path / "out.csv"
    assert main(["scale", "invert", "--dist", expo1, "--alpha", "1", "--beta", beta,
                 "--x-grid", "0.1:2:5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: beta must be finite and positive, not {float(beta)}\n"
    assert not out.exists()


def test_scale_invert_rejects_a_nan_beta_with_an_explicit_plan(tmp_path, capsys, expo1):
    out = tmp_path / "out.csv"
    assert main(["scale", "invert", "--dist", expo1, "--alpha", "1", "--beta", "nan",
                 "--plan", "0.5", "--x-grid", "0.1:2:5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: plan must start at beta\n"
    assert not out.exists()


def test_scale_invert_takes_a_tiny_beta_in_one_stage(tmp_path, expo1):
    out = tmp_path / "out.csv"
    assert main(["scale", "invert", "--dist", expo1, "--alpha", "1", "--beta", "1e-13",
                 "--x-grid", "0.1:2:5", "--out", str(out)]) == 0
    # B_{1, 1e-13} is all but a point mass at 1: the recovered law is the input's
    _, rows = read_csv_out(out)
    assert len(rows) == 5
    assert np.abs(rows[:, 1] - (1.0 - np.exp(-rows[:, 0]))).max() <= 1e-9


@pytest.mark.parametrize("doc,key", [({"family": "kotz", "M": 1, "N": 0, "r": 1}, "theta"),
                                     ({"family": "pareto", "xmin": 2}, "gamma")])
def test_missing_law_parameter_exits_1(tmp_path, capsys, doc, key):
    law = tmp_path / "law.json"
    law.write_text(json.dumps(doc))
    assert main(["dist", "mda", "--dist", str(law)]) == 1
    assert capsys.readouterr().err == f"error: {law}: missing parameter '{key}'\n"


@pytest.mark.parametrize("text,key", [
    ('{"family": "exponential", "rate": "abc"}', "rate"),
    ('{"family": "exponential", "rate": true}', "rate"),
    ('{"family": "exponential", "rate": 1e999}', "rate"),
    ('{"family": "pareto", "gamma": 1e999}', "gamma"),
    ('{"family": "tabulated", "path": 5}', "path"),
], ids=["rate-string", "rate-bool", "rate-1e999", "gamma-1e999", "path-int"])
def test_law_parameter_that_is_not_a_finite_number_exits_1(tmp_path, capsys, text, key):
    law = tmp_path / "law.json"
    law.write_text(text)
    assert main(["dist", "mda", "--dist", str(law)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: law parameter '{key}' must be a") and err.count("\n") == 1


def test_tail_ratio_where_both_survivors_underflow_exits_2(tmp_path, capsys):
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"family": "rayleigh", "sigma": 1.0}))
    out = tmp_path / "tail.json"
    argv = ["tail", "ratio", "--dist", str(ray), "--alpha", "2", "--beta", "0.7"]
    assert main(argv + ["--x", "20,40", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "x = 40.0" in err and err.count("\n") == 1
    assert not out.exists()
    assert main(argv + ["--x", "20", "--out", str(out)]) == 0


@pytest.mark.parametrize("x", ["0", "-0.1"])
def test_tail_ratio_at_or_past_the_endpoint_exits_1(tmp_path, capsys, x):
    # a Weibull-class x is the fraction below the endpoint, so it lies in (0, 1)
    uni = tmp_path / "uni.json"
    uni.write_text(json.dumps({"family": "uniform", "a": 0.0, "b": 1.0}))
    argv = ["tail", "ratio", "--dist", str(uni), "--alpha", "1", "--beta", "1", "--x", x]
    assert main(argv + ["--out", str(tmp_path / "tail.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tail argument x must lie in (0, 1)") and "Traceback" not in err


@pytest.mark.parametrize("name,data,argv", [
    ("bad.json", b"\xff\xfe{}", ["dist", "mda", "--dist"]),
    ("bad.csv", b"x,cdf\n\xff,1\n", ["dist", "mda", "--dist"]),
    ("bad.csv", b"u,v\n\xff,1\n", ["estimate", "--x", "1", "--input"]),
], ids=["law-json", "law-csv", "estimate-input"])
def test_non_utf8_input_exits_1(tmp_path, capsys, name, data, argv):
    bad = tmp_path / name
    bad.write_bytes(data)
    assert main(argv + [str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "decode" in err and err.count("\n") == 1


@pytest.mark.parametrize("doc", ['{"manifest": {"argv": 5}}', '{"manifest": {"argv": [1, 2]}}',
                                 '{"manifest": {"argv": null}}', '{"manifest": 5}',
                                 '# manifest: {"argv": "dist"}\nx\n',
                                 '# manifest: {"argv": ["dist", ["mda"]]}\nx\n'],
                         ids=["int", "ints", "null", "manifest-int", "csv-str", "csv-nested"])
def test_check_rejects_a_malformed_manifest(tmp_path, capsys, doc):
    f = tmp_path / ("out.csv" if doc.startswith("#") else "out.json")
    f.write_text(doc)
    assert main(["check", "--file", str(f)]) == 1
    assert capsys.readouterr().err == f"error: {f}: holds no betascale manifest\n"
