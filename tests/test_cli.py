import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import robustcd
from robustcd.cli import _read_rows, main
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


def _dictreader_rows(path):
    """The reference parse of a data file, with csv.DictReader: (fields,
    rows), or the message of the error the CLI reports for the file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return f"{path}: empty file"
        fields = [f.strip() for f in reader.fieldnames]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            clean = {}
            for key, raw in zip(fields, [row[k] for k in reader.fieldnames]):
                if raw is None or raw.strip() == "":
                    return f"{path}:{lineno}: missing value in column {key!r}"
                try:
                    val = float(raw)
                except ValueError:
                    return f"{path}:{lineno}: cannot parse {raw!r} in column {key!r}"
                if not math.isfinite(val):
                    return f"{path}:{lineno}: non-finite value in column {key!r}"
                clean[key] = val
            rows.append(clean)
    if not rows:
        return f"{path}: no data rows"
    return fields, rows


def _number_table(n_rows):
    """A two-sample file of n_rows rows whose values span many magnitudes,
    written in turn by repr, %.17g and %.3e."""
    rng = np.random.default_rng(64)
    values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    values[:3] = (0.0, -0.0, 5e-324)
    forms = (repr, "{:.17g}".format, "{:.3e}".format)
    rows = (f"{forms[i % 3](float(v))},{1 + i % 2}\n" for i, v in enumerate(values))
    return "value,group\n" + "".join(rows)


@pytest.mark.parametrize("text", [
    "value,group\n1.5,1\n\n2.5,2\n",                 # a blank line is skipped
    " value , group \n1.5, 2\n-0.25,1,9\n",          # stripped names, an extra value
    '"value","group"\n"1e-3","1"\n',                # quoted
    "value,group\n1.0,1\n\n\nnan,2\n",               # numbered past blank lines
    "value,group\n1.0,1\n2.0\n",                     # a short row
    "value,group\n1.0,  \n",                          # a blank value
    "value,group\ninf,abc\n",                         # the first bad column reports
    "value,group\n1.0,x\n",
    "value,group,\n1.0,1,\n",                         # an unnamed empty column
    "",
    "value,group\n",
    "value,group\n\n\n",
    "value,group\n1_0,1\n2,1_0\n",                 # an underscore, as float() reads it
    "value,group\n1_0,1\n1__0,2\n",
    "value,group\n  1.5\t, 2 \n-7 ,1\n",           # padded cells
    "value,group\n1e3,1\n-2.5E-3,2\n+.5e+1,1\n1E-310,2\n",  # exponent forms
    "value,group\n1e3,1\n1e400,2\n",
    pytest.param(_number_table(1000), id="1000-rows"),
])
def test_csv_reader_gives_the_dictreader_parse_and_messages(tmp_path, capsys, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    want = _dictreader_rows(str(path))
    if isinstance(want, str):
        with pytest.raises(SystemExit) as exc:
            _read_rows(str(path))
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {want}\n"
    else:
        fields, columns = _read_rows(str(path))
        assert fields == want[0]
        for f in fields:
            assert columns[f].tolist() == [row[f] for row in want[1]]
            # bit for bit, the sign of a zero too
            assert columns[f].tobytes() == np.array([row[f] for row in want[1]]).tobytes()


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


@pytest.mark.parametrize("model,query", [
    ("auc-exponential", ["--h0", "1.5"]),
    ("auc-exponential", ["--h0", "0"]),
    ("auc-normal", ["--h0", "1"]),
    ("auc-exponential", ["--evidence", "0.5,1.2"]),
    ("auc-normal", ["--evidence", "-0.2,0.5"]),
])
def test_cd_rejects_a_query_outside_the_interest_range(runner, tmp_path, model, query):
    rng = np.random.default_rng(62)
    path = tmp_path / "pos.csv"
    write_two_sample(path, rng.exponential(1.0, 12), rng.exponential(2.0, 24))
    res = runner.invoke(main, ["cd", "--model", model, "--rule", "log",
                               "--data", str(path), "--pivot", "wald", *query])
    assert res.exit_code == 2, res.output
    assert "outside the interest's range" in res.stderr, res.stderr


def test_cd_rejects_bad_level(runner, two_sample_csv):
    path, _, _ = two_sample_csv
    res = runner.invoke(main, ["cd", "--model", "two-sample-normal", "--rule", "log",
                               "--data", path, "--level", "1.5"])
    assert res.exit_code == 2


@pytest.mark.parametrize("points", ["0", "1", "2"])
def test_cd_rejects_too_few_grid_points(runner, two_sample_csv, points):
    path, _, _ = two_sample_csv
    res = runner.invoke(main, ["cd", "--model", "two-sample-normal", "--rule", "log",
                               "--data", path, "--pivot", "wald", "--grid-points", points])
    assert res.exit_code == 2 and "--grid-points" in res.stderr, res.output


@pytest.mark.parametrize("points", [3, 4])
def test_cd_grid_has_the_requested_points(runner, two_sample_csv, points):
    path, _, _ = two_sample_csv
    res = runner.invoke(main, ["cd", "--model", "two-sample-normal", "--rule", "log",
                               "--data", path, "--pivot", "wald", "--pivot", "root",
                               "--grid-points", str(points)])
    assert res.exit_code == 0, res.output
    for entry in json.loads(res.stdout)["curves"].values():
        assert len(entry["psi_grid"]) == points


def test_calibrate_regression_default(runner):
    res = runner.invoke(main, ["calibrate", "--model", "linear-regression",
                               "--target", "0.9"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert 1.15 <= doc["gamma"] <= 1.30
    assert doc["efficiency_at_gamma"] == pytest.approx(0.9, abs=0.01)


def test_calibrate_validates_a_drawn_template_once(runner, monkeypatch):
    # without --data the template is drawn raw; it is checked once, and
    # calibrate_gamma and efficiency_ratio share the checked copy
    from robustcd.models import TwoSampleNormal

    calls = []
    original = TwoSampleNormal.validate_data

    def counted(self, data):
        calls.append(1)
        return original(self, data)

    monkeypatch.setattr(TwoSampleNormal, "validate_data", counted)
    res = runner.invoke(main, ["calibrate", "--model", "two-sample-normal",
                               "--theta", "2,0,1,1", "--target", "0.9"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1


@pytest.fixture()
def gamma_spec_csv(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"family": "gamma", "interest_index": 0}))
    path = tmp_path / "g.csv"
    y = np.random.default_rng(17).gamma(0.75, 1.0, 40)
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    return f"expfam:{spec}", str(path)


def test_expfam_interest_flag_overrides_the_spec(runner, gamma_spec_csv):
    model, path = gamma_spec_csv
    for extra, name in (([], "theta_1"), (["--interest", "1"], "theta_2"),
                        (["--interest", "0"], "theta_1")):
        res = runner.invoke(main, ["fit", "--model", model, "--data", path, *extra])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["interest"]["name"] == name, extra


def test_calibrate_expfam_bisects_below_where_J_is_infinite(runner, gamma_spec_csv):
    # (2 gamma - 1) theta leaves the gamma family's natural space for
    # gamma >= 2.5 at this reference; the target lies below that
    model, path = gamma_spec_csv
    res = runner.invoke(main, ["calibrate", "--model", model, "--data", path,
                               "--theta", "-0.25,-1", "--target", "0.9"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert 1.1 < doc["gamma"] < 1.2
    assert doc["efficiency_at_gamma"] == pytest.approx(0.9, abs=1e-3)


@pytest.mark.parametrize("theta", ["1,abc", "2,0,1", "2,0,1,1,1"])
def test_calibrate_rejects_a_bad_theta(runner, two_sample_csv, theta):
    path, _, _ = two_sample_csv
    for args in (["--model", "two-sample-normal"],
                 ["--model", "two-sample-normal", "--data", path],
                 ["--model", "linear-regression"]):
        res = runner.invoke(main, ["calibrate", *args, "--theta", theta])
        assert res.exit_code == 2, (args, res.output)
        assert res.stderr.startswith("error: --theta"), res.stderr


def test_a_model_or_option_that_get_model_refuses_exits_2(runner, two_sample_csv,
                                                          gamma_spec_csv, tmp_path):
    # every command builds its model through get_model, and a name, spec
    # file or option that it refuses is a usage error
    two, _, _ = two_sample_csv
    _, gamma_csv = gamma_spec_csv
    out_of_range, fractional = tmp_path / "range.json", tmp_path / "fraction.json"
    out_of_range.write_text(json.dumps({"family": "gamma", "interest_index": 5}))
    fractional.write_text(json.dumps({"family": "gamma", "interest_index": 1.5}))
    not_json = tmp_path / "broken.json"
    not_json.write_text("{family")
    for args in (
            ["fit", "--model", "two-sample-normal", "--interest", "3", "--data", two],
            ["taif", "--model", "auc-normal", "--interest", "0", "--data", two],
            ["calibrate", "--model", "two-sample-normal", "--interest", "1", "--theta", "2,0,1,1"],
            ["fit", "--model", f"expfam:{tmp_path / 'missing.json'}", "--data", gamma_csv],
            ["cd", "--model", f"expfam:{out_of_range}", "--data", gamma_csv],
            ["fit", "--model", f"expfam:{fractional}", "--data", gamma_csv],
            ["fit", "--model", f"expfam:{not_json}", "--data", gamma_csv],
            ["fit", "--model", "no-such-model", "--data", two],
            ["calibrate", "--model", "linear-regression", "--interest", "7"],
            ["calibrate", "--model", "two-sample-normal", "--theta", "2,0,-1,1"],
            ["calibrate", "--model", "linear-regression", "--theta", "1,0,1,0"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert res.stderr.startswith("error: "), (args, res.stderr)


def test_taif_root_at_the_estimate_is_the_wald_taif(runner, two_sample_csv):
    # --psi defaults to the estimate, where the root pivot is 0 and its
    # tail-area derivative takes the Wald form, bit for bit
    path, _, _ = two_sample_csv
    docs = {}
    for pivot in ("root", "wald"):
        res = runner.invoke(main, ["taif", "--model", "two-sample-normal", "--rule", "tsallis",
                                   "--gamma", "1.23", "--data", path, "--pivot", pivot])
        assert res.exit_code == 0, res.output
        docs[pivot] = json.loads(res.stdout)
        assert docs[pivot].pop("pivot") == pivot
    assert docs["root"] == docs["wald"]


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
    {"theta": [2, 0, 1]}, {"theta": [2, 0, 1, -1]}, {"theta": "abc"}, {"sizes": [10]},
    {"model": "linear-regression", "sizes": [30], "theta": [1, 0.5, 1]},
    {"methods": [{"rule": "tsallis", "pivot": "wald", "gamma": 0.5}]},
    {"sizes": [-3, 20]}, {"sizes": [10.5, 20]}, {"sizes": ["a", 20]}, {"sizes": [0, 20]},
    {"sizes": [1, 20]}, {"seed": -1},
    {"model": "linear-regression", "sizes": [3], "theta": [1, 0.5, 0.2, 1]},
    {"model": "linear-regression", "sizes": [30], "theta": [1, 0.5, 0.2, 1],
     "interest_index": 7},
    {"model": "linear-regression", "sizes": [30], "theta": [1, 0.5, 0.2, 1],
     "interest_index": -1},
    {"n_reps": 2.9}, {"n_reps": True}, {"seed": 3.7}, {"seed": True},
    {"model": "linear-regression", "sizes": [30], "theta": [1, 0.5, 0.2, 1],
     "interest_index": 1.5},
    {"contamination": {"sample_index": 0.9, "obs_index": 1.7, "shift": 3.0}},
    {"contamination": {"sample_index": 0, "obs_index": 1.5, "shift": 3.0}},
    {"model": "auc-exponential", "theta": [1.0, 1.5], "n_reps": 5,
     "h0": {"psi0": 1.5, "alternative": "less"}},
    {"model": "linear-regression", "sizes": [30], "theta": [1, 0.5, 0.2, 1],
     "contamination": {"sample_index": 7, "obs_index": 0, "shift": 3.0}},
    {"model": "linear-regression", "sizes": [30], "theta": [1, 0.5, 0.2, 1],
     "contamination": {"sample_index": 1, "obs_index": 0, "shift": 3.0}},
    {"contamination": {"sample_index": 2, "obs_index": 0, "shift": 3.0}},
    {"contamination": {"sample_index": -1, "obs_index": 0, "shift": 3.0}},
    {"methods": []},
    {"methods": [{"rule": "log", "pivot": "root"}, {"rule": "log", "pivot": "root"}]},
    # labels that coincide under :g, which would key one result
    {"methods": [{"rule": "tsallis", "pivot": "wald", "gamma": 1.23},
                 {"rule": "tsallis", "pivot": "wald", "gamma": 1.230000000001}]},
    # get_model refuses an interest_index where the model has none
    {"interest_index": 2},
])
def test_simulate_rejects_a_bad_design(runner, tmp_path, change):
    design = {"model": "two-sample-normal", "theta": [2, 0, 1, 1], "sizes": [10, 20],
              "n_reps": 1, "methods": [{"rule": "log", "pivot": "wald"}]}
    dpath = tmp_path / "design.json"
    dpath.write_text(json.dumps({**design, **change}))
    res = runner.invoke(main, ["simulate", "--design", str(dpath)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: invalid design document"), res.stderr


@pytest.mark.parametrize("change", [
    {"sizes": [2, 20]},
    {"model": "linear-regression", "sizes": [5], "theta": [1, 0.5, 0.2, 1]},
])
def test_simulate_runs_the_smallest_designs(runner, tmp_path, change):
    design = {"model": "two-sample-normal", "theta": [2, 0, 1, 1], "sizes": [10, 20],
              "n_reps": 3, "methods": [{"rule": "log", "pivot": "wald"}]}
    dpath = tmp_path / "design.json"
    dpath.write_text(json.dumps({**design, **change}))
    res = runner.invoke(main, ["simulate", "--design", str(dpath)])
    assert res.exit_code == 0, res.output


def test_simulate_rejects_a_design_that_is_not_an_object(runner, tmp_path):
    dpath = tmp_path / "design.json"
    dpath.write_text("[1, 2]")
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


def test_cd_runs_without_importing_scipy_optimize(two_sample_csv, tmp_path):
    # scipy.optimize costs about 20 MB of resident memory; the CD repair and
    # its intervals need none of it
    path, _, _ = two_sample_csv
    out = tmp_path / "cd.json"
    args = ["cd", "--model", "two-sample-normal", "--rule", "tsallis", "--gamma", "1.23",
            "--data", path, "--pivot", "wald", "--pivot", "root", "--out", str(out)]
    code = ("import sys; from robustcd.cli import main; "
            f"main({args!r}, standalone_mode=False); "
            "print('scipy.optimize' in sys.modules)")
    src = os.path.dirname(os.path.dirname(robustcd.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.strip() == "False"
    # the document is one line of JSON
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert set(json.loads(text)["curves"]) == {"wald", "root"}


def test_cd_never_loads_scipy(two_sample_csv, gamma_spec_csv, tmp_path):
    # the gamma and beta cumulants take log Gamma, digamma and trigamma from
    # robustcd.expfam: no cd, whatever its model, imports scipy
    path, _, _ = two_sample_csv
    gamma_model, gamma_path = gamma_spec_csv
    beta_spec, beta_path = tmp_path / "b.json", tmp_path / "b.csv"
    beta_spec.write_text(json.dumps({"family": "beta", "interest_index": 0}))
    y = np.random.default_rng(19).beta(2.0, 3.0, 40)
    beta_path.write_text("value\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    runs = {"normal": ("two-sample-normal", path, "1.23"),
            "gamma": (gamma_model, gamma_path, "1.1"),
            "beta": (f"expfam:{beta_spec}", str(beta_path), "1.1")}
    code = "import sys; from robustcd.cli import main"
    for name, (model, data, gamma) in runs.items():
        args = ["cd", "--model", model, "--rule", "tsallis", "--gamma", gamma, "--data", data,
                "--pivot", "wald", "--pivot", "root", "--out", str(tmp_path / f"{name}.json")]
        code += (f"; main({args!r}, standalone_mode=False); "
                 "print('scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(robustcd.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.split() == ["False"] * 3
    for name in runs:
        doc = json.loads((tmp_path / f"{name}.json").read_text())
        assert set(doc["curves"]) == {"wald", "root"}
        assert all(np.isfinite(doc["curves"][k]["cdf"]).all() for k in ("wald", "root"))


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
