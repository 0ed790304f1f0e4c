import csv
import json
import math

import numpy as np
import pytest
from scipy.special import betainc

from betascale import EllipticalModel, Rayleigh, sample_elliptical
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


def test_exit_code_usage():
    assert main(["no-such-command"]) == 64
    assert main(["dist", "eval", "--nonsense"]) == 64


def test_exit_code_missing_file():
    assert main(["dist", "eval", "--dist", "/nonexistent.json",
                 "--what", "cdf", "--x", "1"]) == 1
