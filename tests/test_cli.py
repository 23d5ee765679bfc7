import contextlib
import csv
import gc
import io
import json
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from robustcd.cli import main
from robustcd.confidence import ConfidenceObject, ci, p_value


@pytest.fixture()
def runner():
    return CliRunner()


def write_two_sample(path, x, y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "group"])
        for v in x:
            w.writerow([repr(float(v)), 1])
        for v in y:
            w.writerow([repr(float(v)), 2])


@pytest.fixture()
def two_sample_csv(tmp_path):
    rng = np.random.default_rng(61)
    x = rng.normal(2, 1, 12)
    y = rng.normal(0, 1, 24)
    path = tmp_path / "two.csv"
    write_two_sample(path, x, y)
    return str(path), x, y


def test_fit_log_is_mle(runner, two_sample_csv):
    path, x, y = two_sample_csv
    res = runner.invoke(main, ["fit", "--model", "two-sample-normal",
                               "--rule", "log", "--data", path])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["theta"]["mu_x"] == pytest.approx(x.mean(), rel=1e-6)
    assert doc["theta"]["var_y"] == pytest.approx(y.var(), rel=1e-5)
    assert doc["converged"] is True
    assert doc["stop_reason"] in ("gradient", "step")
    assert doc["interest"]["value"] == pytest.approx(x.mean() - y.mean(), rel=1e-6)


def test_fit_robust_resists_shift(runner, two_sample_csv, tmp_path):
    path, x, y = two_sample_csv
    x_shift = x.copy()
    x_shift[-1] -= 7.0
    path2 = tmp_path / "two_shifted.csv"
    write_two_sample(path2, x_shift, y)

    def interest(rule_args, p):
        res = runner.invoke(main, ["fit", "--model", "two-sample-normal",
                                   *rule_args, "--data", str(p)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        return doc["interest"]["value"], doc["stderr"]["mu_x"]

    log_clean, se_log = interest(["--rule", "log"], path)
    log_shift, _ = interest(["--rule", "log"], path2)
    rob_clean, se_rob = interest(["--rule", "tsallis", "--gamma", "1.22"], path)
    rob_shift, _ = interest(["--rule", "tsallis", "--gamma", "1.22"], path2)
    assert abs(log_shift - log_clean) > 1.0 * se_log
    assert abs(rob_shift - rob_clean) < 0.2 * se_rob


def test_fit_missing_file(runner):
    res = runner.invoke(main, ["fit", "--model", "two-sample-normal",
                               "--rule", "log", "--data", "missing.csv"])
    assert res.exit_code == 2
    assert "missing.csv" in res.stderr


def test_csv_rejects_non_finite(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value,group\n1.0,1\nnan,1\n2.0,2\n")
    res = runner.invoke(main, ["fit", "--model", "two-sample-normal",
                               "--rule", "log", "--data", str(path)])
    assert res.exit_code == 2
    assert ":3:" in res.stderr  # header is line 1, offending row is line 3

    path2 = tmp_path / "bad2.csv"
    path2.write_text("value,group\n1.0,1\nabc,2\n")
    res2 = runner.invoke(main, ["fit", "--model", "two-sample-normal",
                                "--rule", "log", "--data", str(path2)])
    assert res2.exit_code == 2 and ":3:" in res2.stderr

    path3 = tmp_path / "bad3.csv"
    path3.write_text("value,group\n1.0,1\n2.0,7\n")
    res3 = runner.invoke(main, ["fit", "--model", "two-sample-normal",
                                "--rule", "log", "--data", str(path3)])
    assert res3.exit_code == 2 and "group" in res3.stderr


def test_cd_document_and_roundtrip(runner, two_sample_csv):
    path, _, _ = two_sample_csv
    res = runner.invoke(main, ["cd", "--model", "two-sample-normal",
                               "--rule", "tsallis", "--gamma", "1.23",
                               "--data", path, "--pivot", "wald", "--pivot", "root",
                               "--level", "0.95", "--level", "0.5",
                               "--h0", "2.0", "--alt", "two-sided",
                               "--evidence", "1.0,3.0", "--grid-points", "101"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert set(doc["curves"]) == {"wald", "root"}
    for kind, entry in doc["curves"].items():
        cd = ConfidenceObject.from_dict(entry)
        # re-query the object exactly as a consumer would
        iv = ci(cd, 0.95)
        assert entry["ci"]["0.95"] == [iv.lo, iv.hi]
        assert entry["test"]["p_value"] == p_value(cd, 2.0, "two_sided")
        lo = entry["ci"]["0.95"][0]
        assert cd.cdf_at(lo) == pytest.approx(0.025, abs=1e-3)
        # identities survive serialization
        cc = np.abs(1 - 2 * np.asarray(entry["cdf"]))
        assert np.allclose(cc, entry["cc"], atol=1e-12)
        assert 0.0 <= entry["evidence"]["value"] <= 1.0


def test_cd_rejects_bad_level(runner, two_sample_csv):
    path, _, _ = two_sample_csv
    res = runner.invoke(main, ["cd", "--model", "two-sample-normal", "--rule", "log",
                               "--data", path, "--level", "1.5"])
    assert res.exit_code == 2


def test_calibrate_regression_default(runner):
    res = runner.invoke(main, ["calibrate", "--model", "linear-regression",
                               "--target", "0.9"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert 1.15 <= doc["gamma"] <= 1.30
    assert doc["efficiency_at_gamma"] == pytest.approx(0.9, abs=0.01)


@pytest.mark.parametrize("theta", ["1,abc", "2,0,1", "2,0,1,1,1"])
def test_calibrate_rejects_a_bad_theta(runner, two_sample_csv, theta):
    path, _, _ = two_sample_csv
    for args in (["--model", "two-sample-normal"],
                 ["--model", "two-sample-normal", "--data", path],
                 ["--model", "linear-regression"]):
        res = runner.invoke(main, ["calibrate", *args, "--theta", theta])
        assert res.exit_code == 2, (args, res.output)
        assert res.stderr.startswith("error: --theta"), res.stderr


def test_taif_command_verdicts(runner, two_sample_csv):
    path, _, _ = two_sample_csv
    res_log = runner.invoke(main, ["taif", "--model", "two-sample-normal",
                                   "--rule", "log", "--data", path,
                                   "--pivot", "wald"])
    assert res_log.exit_code == 0, res_log.output
    assert json.loads(res_log.stdout)["bounded"] is False
    res_rob = runner.invoke(main, ["taif", "--model", "two-sample-normal",
                                   "--rule", "tsallis", "--gamma", "1.23",
                                   "--data", path, "--pivot", "wald"])
    assert res_rob.exit_code == 0
    assert json.loads(res_rob.stdout)["bounded"] is True


def test_simulate_deterministic_snapshot(runner, tmp_path):
    design = {
        "model": "two-sample-normal",
        "theta": [2, 0, 1, 1],
        "sizes": [10, 20],
        "n_reps": 1,
        "seed": 5,
        "methods": [{"rule": "log", "pivot": "root"}],
        "levels": [0.95],
        "h0": {"psi0": 2.0, "alternative": "less"},
    }
    dpath = tmp_path / "design.json"
    dpath.write_text(json.dumps(design))
    out1 = runner.invoke(main, ["simulate", "--design", str(dpath)])
    out2 = runner.invoke(main, ["simulate", "--design", str(dpath)])
    assert out1.exit_code == 0, out1.output
    assert out1.stdout == out2.stdout
    doc = json.loads(out1.stdout)
    assert doc["methods"]["log-root"]["n_used"] == 1

    res = runner.invoke(main, ["simulate", "--design", str(tmp_path / "nope.json")])
    assert res.exit_code == 2


@pytest.mark.parametrize("change", [
    {"n_reps": "abc"}, {"n_reps": 0}, {"model": "no-such-model"}, {"levels": [1.5]},
    {"h0": {"psi0": 2.0, "alternative": "grater"}}, {"theta": None},
])
def test_simulate_rejects_a_bad_design(runner, tmp_path, change):
    design = {"model": "two-sample-normal", "theta": [2, 0, 1, 1], "sizes": [10, 20],
              "n_reps": 1, "methods": [{"rule": "log", "pivot": "wald"}]}
    dpath = tmp_path / "design.json"
    dpath.write_text(json.dumps({**design, **change}))
    res = runner.invoke(main, ["simulate", "--design", str(dpath)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: invalid design document"), res.stderr


def test_cd_output_streams_are_released(two_sample_csv):
    # a caller that captures the document in memory gets its stream back
    path, _, _ = two_sample_csv
    refs = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["cd", "--model", "two-sample-normal", "--rule", "log", "--data", path,
                  "--pivot", "wald", "--grid-points", "21"], standalone_mode=False)
        assert json.loads(buf.getvalue())["curves"]["wald"]
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_out_file_writing(runner, two_sample_csv, tmp_path):
    path, _, _ = two_sample_csv
    out = tmp_path / "fit.json"
    res = runner.invoke(main, ["fit", "--model", "two-sample-normal", "--rule", "log",
                               "--data", path, "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["converged"] is True
    # data go to the file; stdout stays clean, diagnostics on stderr
    assert res.stdout.strip() == ""
    assert "wrote" in res.stderr


def test_gfr_like_outlier_pattern_via_cli(runner, tmp_path):
    # planted-outlier regression: the robust and classical two-sided p-values
    # for the third coefficient land on opposite sides of 0.05
    from test_acceptance import make_outlier_regression

    y, X = make_outlier_regression()
    path = tmp_path / "gfr_like.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x1", "x2"])
        for row in zip(y, X[:, 1], X[:, 2]):
            w.writerow([repr(float(v)) for v in row])

    def p_two_sided(args):
        res = runner.invoke(main, ["cd", "--model", "linear-regression", *args,
                                   "--data", str(path), "--interest", "2",
                                   "--pivot", "root", "--h0", "0", "--alt",
                                   "two-sided"])
        assert res.exit_code == 0, res.output
        return json.loads(res.stdout)["curves"]["root"]["test"]["p_value"]

    p_rob = p_two_sided(["--rule", "tsallis", "--gamma", "1.22"])
    p_log = p_two_sided(["--rule", "log"])
    assert p_rob < 0.05 < p_log


def test_regression_cd_via_cli(runner, tmp_path):
    rng = np.random.default_rng(9)
    n = 40
    x1 = rng.standard_normal(n)
    x2 = rng.uniform(size=n)
    y = 1.0 + 0.9 * x1 + rng.normal(0, 1, n)
    path = tmp_path / "reg.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x1", "x2"])
        for row in zip(y, x1, x2):
            w.writerow([repr(float(v)) for v in row])
    res = runner.invoke(main, ["cd", "--model", "linear-regression", "--rule", "log",
                               "--data", str(path), "--interest", "1",
                               "--pivot", "root", "--level", "0.9"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    lo, hi = doc["curves"]["root"]["ci"]["0.9"]
    assert lo < 0.9 < hi
