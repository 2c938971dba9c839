import contextlib
import csv
import os
import subprocess
import sys
import tempfile
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmpl import ar1, binary, core, harness, io, weibull
from mcmpl.cli import main
from mcmpl.core import MonteCarloConfig, substream


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# files that parse but that the model cannot fit: an AR(1) cluster lacking
# period 2, an AR(1) cluster of only the t=0 and t=1 rows, and a binary file
# whose misspelt x1 header leaves it without covariate columns
AR1_LACKS_A_PERIOD = ["cluster,t,y", "1,0,0.0", "1,1,0.4", "1,2,0.9", "1,3,1.2",
                      "2,0,0.0", "2,1,0.3", "2,3,0.8"]
AR1_ONE_PERIOD = ["cluster,t,y", "1,0,0.0", "1,1,0.4", "1,2,0.9",
                  "2,0,0.0", "2,1,0.3"]
BINARY_WITHOUT_X1 = ["cluster,t,y,missing,z1", "1,1,1,0,0.1", "1,2,0,0,0.2"]


def binary_csv(tmp_path, n=40, t=6, seed=19, mnar=False):
    spec = harness.ExperimentSpec(
        model="binary", n_clusters=n, t_periods=t, n_trials=2,
        methods=("mcar:profile",), seed=seed,
        mechanism="mnar" if mnar else "mcar", beta=(1.0,),
        gamma1=(5.0,) if mnar else (2.5,), gamma2=1.0 if mnar else 0.0)
    data, _ = harness.generate_binary_dataset(spec, substream(seed, 0, 0))
    path = tmp_path / "binary.csv"
    io.write_dataset(data, "binary", path)
    return str(path), data


def weibull_csv(tmp_path, n=40, t=6, seed=23):
    spec = harness.ExperimentSpec(
        model="weibull", n_clusters=n, t_periods=t, n_trials=2,
        methods=("profile",), seed=seed, xi=1.5, beta=(-1.0, 1.0),
        censoring_share=0.2)
    data, _ = harness.generate_survival_dataset(spec, substream(seed, 0, 0))
    path = tmp_path / "weibull.csv"
    io.write_dataset(data, "weibull", path)
    return str(path), data


def ar1_csv(tmp_path, n=80, t=5, seed=29, rho=0.5):
    spec = harness.ExperimentSpec(model="ar1", n_clusters=n, t_periods=t,
                                  n_trials=2, methods=("profile",), seed=seed,
                                  rho=rho, sigma2=1.0)
    data, _ = harness.generate_ar1_dataset(spec, substream(seed, 0, 0))
    path = tmp_path / "ar1.csv"
    io.write_dataset(data, "ar1", path)
    return str(path), data


def read_table(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["binary", "weibull", "ar1"])
    def test_write_read_identity(self, tmp_path, kind):
        maker = {"binary": binary_csv, "weibull": weibull_csv, "ar1": ar1_csv}[kind]
        path, data = maker(tmp_path)
        back = io.read_dataset(path, kind)
        assert np.allclose(back.responses, data.responses, equal_nan=True)
        assert np.allclose(back.covariates, data.covariates)
        assert np.array_equal(back.indicators, data.indicators)
        assert np.array_equal(back.unit_mask, data.unit_mask)
        if kind == "ar1":
            assert np.allclose(back.initial_conditions, data.initial_conditions)

    def test_ar1_with_covariate_column(self, tmp_path):
        # the t=0 row carries empty covariate cells, so the file stays rectangular
        data = core.make_dataset(np.arange(6.).reshape(2, 3), np.ones((2, 3)),
                                 initial_conditions=[0., 1.])
        path = tmp_path / "ar1.csv"
        io.write_dataset(data, "ar1", path)
        back = io.read_dataset(path, "ar1")
        assert np.array_equal(back.responses, data.responses)
        assert np.array_equal(back.covariates, data.covariates)
        assert np.array_equal(back.initial_conditions, data.initial_conditions)


class TestFitCommand:
    def test_binary_mcar_fit(self, tmp_path):
        path, _ = binary_csv(tmp_path)
        out = str(tmp_path / "fit.csv")
        code = main(["fit", "--model", "binary", "--method", "mcmpl",
                     "--data", path, "--replicates", "100", "--seed", "17",
                     "--out", out])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["method", "parameter", "estimate", "std_error",
                          "z", "p_value", "ci_lo", "ci_hi"]
        assert rows[0][0] == "mcmpl" and rows[0][1] == "beta1"
        footer = open(out).read().splitlines()[-1]
        assert footer.startswith("# seed=17 replicates=100 dropped_clusters=")

    def test_weibull_fit_reports_relative_risks(self, tmp_path):
        path, _ = weibull_csv(tmp_path)
        out = str(tmp_path / "fit.csv")
        code = main(["fit", "--model", "weibull", "--method", "mcmpl",
                     "--data", path, "--replicates", "100", "--out", out])
        assert code == 0
        _, rows = read_table(out)
        params = [r[1] for r in rows]
        assert params == ["xi", "beta1", "beta2", "rr1", "rr2"]
        by_name = {r[1]: r for r in rows}
        xi, b2 = float(by_name["xi"][2]), float(by_name["beta2"][2])
        assert float(by_name["rr2"][2]) == pytest.approx(np.exp(-xi * b2), rel=1e-6)

    def test_ar1_fit(self, tmp_path):
        path, _ = ar1_csv(tmp_path)
        out = str(tmp_path / "fit.csv")
        assert main(["fit", "--model", "ar1", "--method", "mcmpl",
                     "--data", path, "--replicates", "100", "--out", out]) == 0
        _, rows = read_table(out)
        assert [r[1] for r in rows] == ["rho", "sigma2"]

    def test_ar1_nonfinite_se_flagged(self, tmp_path):
        path, _ = ar1_csv(tmp_path, n=40, t=4, seed=0, rho=0.9)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--model", "ar1", "--data", path, "--seed", "5",
                     "--replicates", "200", "--out", str(out)]) == 2
        _, rows = read_table(out)
        assert [r[3] for r in rows] == ["", ""]
        assert "flags=hessian_not_negative_definite" in out.read_text()

    def test_single_replicate_legal(self, tmp_path):
        path, _ = binary_csv(tmp_path)
        out = str(tmp_path / "fit.csv")
        code = main(["fit", "--model", "binary", "--method", "mcmpl",
                     "--data", path, "--replicates", "1", "--out", out])
        assert code in (0, 2)  # degenerate R=1 may flag, but must run and write
        assert read_table(out)[1]

    def test_separation_exit_code_and_flag(self, tmp_path):
        # missingness tracks the response almost deterministically
        rng = substream(18, 0)
        n, t = 40, 6
        x = 0.2 * rng.standard_normal((n, t))
        y = (rng.random((n, t)) < 0.5).astype(float)
        miss = np.where(y == 1.0, 1.0, 0.0)
        miss[:, 0] = 0.0
        data = binary.make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)
        path = tmp_path / "sep.csv"
        io.write_dataset(data, "binary", path)
        out = str(tmp_path / "fit.csv")
        code = main(["fit", "--model", "binary", "--mechanism", "mnar",
                     "--method", "profile", "--data", str(path),
                     "--replicates", "10", "--out", out])
        assert code == 2
        text = open(out).read()
        assert "gamma2_at_bound" in text

    def test_malformed_file_exit_one(self, tmp_path, capsys):
        path = write_lines(tmp_path / "bad.csv",
                           ["cluster,t,y,missing,x1", "1,1,1,0,0.5", "1,2,2,0,0.1"])
        code = main(["fit", "--model", "binary", "--data", path,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("model,mechanism", [("binary", "mnar"),
                                                 ("weibull", "mcar"), ("ar1", "mcar")])
    def test_mpl_exact_without_closed_form_exit_one(self, tmp_path, capsys,
                                                     model, mechanism):
        maker = {"binary": binary_csv, "weibull": weibull_csv, "ar1": ar1_csv}[model]
        path, _ = maker(tmp_path)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--model", model, "--mechanism", mechanism,
                     "--method", "mpl-exact", "--data", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--replicates", "0"], ["--level", "1.5"],
                                        ["--level", "0"]])
    def test_bad_option_exit_one(self, tmp_path, capsys, option):
        path, _ = binary_csv(tmp_path)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--model", "binary", "--method", "profile",
                     "--data", path, "--out", str(out)] + option) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("model,lines,line", [
        ("weibull", ["cluster,t,time,event,x1", "1,1,0.5,1,0.1", "1,2,0.0,0,0.2"], 3),
        ("weibull", ["cluster,t,time,event,x1", "1,1,0.5,2,0.1", "1,2,0.7,0,0.2"], 2),
        ("binary", ["cluster,t,y,missing,x1", "1,1,1,0,0.1", "1,2,0,1,0.2"], 3),
        ("ar1", ["cluster,t,y", "1,0,0.0", "1,1,0.4", "1,2,0.9",
                 "2,1,0.3", "2,2,0.8"], 5),
        ("ar1", ["cluster,t,y", "1,0,0.0", "1,1,0.4", "1,2,0.9",
                 "2,0,0.0", "2,1,0.3", "2,2,0.8", "2,3,1.1"], None),
        ("binary", ["cluster,t,y,missing,x1", "1,1,1,0,0.1", "1,inf,0,0,0.2"], 3),
        ("binary", ["cluster,t,y,missing,x1", "1,1,1,0,0.1", "1,nan,0,0,0.2"], 3),
        ("binary", ["cluster,t,y,missing,x1", "1,1,1,0,0.1", "1,2,0,0,inf"], 3),
        ("ar1", ["cluster,t,y", "1,0,0.0", "1,1,inf", "1,2,0.9"], 3),
        ("weibull", ["cluster,t,time,event,x1", "1,1,0.5,1,0.1", "1,2,inf,0,0.2"], 3),
        ("ar1", AR1_LACKS_A_PERIOD, None),
        ("ar1", AR1_ONE_PERIOD, None),
    ], ids=["weibull-time", "weibull-event", "binary-y-on-missing",
            "ar1-no-initial-row", "ar1-unequal-length", "t-inf", "t-nan",
            "x1-inf", "ar1-y-inf", "weibull-time-inf", "ar1-lacks-a-period",
            "ar1-one-period"])
    def test_bad_row_exit_one(self, tmp_path, capsys, model, lines, line):
        path = write_lines(tmp_path / "bad.csv", lines)
        out = tmp_path / "o.csv"
        assert main(["fit", "--model", model, "--method", "profile",
                     "--data", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if line is not None:
            assert err.startswith(f"error: line {line}: ")
        assert not out.exists()

    def test_missing_column_exit_one(self, tmp_path, capsys):
        path = write_lines(tmp_path / "bad.csv", ["cluster,t,y", "1,1,1"])
        assert main(["fit", "--model", "binary", "--data", path,
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "missing" in capsys.readouterr().err

    def test_binary_without_covariates_exit_one(self, tmp_path, capsys):
        path = write_lines(tmp_path / "bad.csv", BINARY_WITHOUT_X1)
        out = tmp_path / "o.csv"
        assert main(["fit", "--model", "binary", "--data", path,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "x1" in err
        assert not out.exists()


class TestSimulateCommand:
    def config(self, tmp_path, **kv):
        base = {"model": "binary", "link": "logit", "mechanism": "mcar",
                "N": 30, "T": 5, "S": 3, "R": 40, "seed": 11, "beta": 1.0,
                "gamma1": 2.5, "gamma2": 0.0,
                "methods": "mcar:profile,mcar:mcmpl"}
        base.update(kv)
        lines = [f"{k} = {v}" for k, v in base.items()]
        return write_lines(tmp_path / "exp.cfg", lines)

    def test_runs_and_writes_table(self, tmp_path):
        cfg = self.config(tmp_path)
        out = str(tmp_path / "metrics.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        header, rows = read_table(out)
        assert header == ["N", "T", "method", "parameter", "B", "MB", "SD",
                          "RMSE", "MAE", "SE_over_SD", "coverage",
                          "failed_trials"]
        assert {r[2] for r in rows} == {"mcar:profile", "mcar:mcmpl"}
        assert all(r[0] == "30" and r[1] == "5" for r in rows)

    def test_zero_trials_invalid(self, tmp_path, capsys):
        cfg = self.config(tmp_path, S=0)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "m.csv")]) == 1
        assert "1" in capsys.readouterr().err  # counts must be >= 1

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        cfg = self.config(tmp_path, seed=-1)
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: seed -1 must be non-negative\n"
        assert not out.exists()

    def test_unknown_key_listed(self, tmp_path, capsys):
        cfg = self.config(tmp_path, bogus_key=3)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "m.csv")]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_thread_invariance_bytes(self, tmp_path):
        cfg = self.config(tmp_path, S=4)
        out1, out2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
        assert main(["simulate", "--config", cfg, "--out", out1,
                     "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2,
                     "--threads", "2"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_ar1_thread_invariance_bytes(self, tmp_path):
        # the AR(1) bank draws its sums through a matmul with a Cholesky factor
        config = {**BASE_CONFIGS["ar1"], "N": "30", "S": "4", "R": "40"}
        cfg = write_lines(tmp_path / "exp.cfg", [f"{k} = {v}" for k, v in config.items()])
        out1, out2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
        assert main(["simulate", "--config", cfg, "--out", out1,
                     "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2,
                     "--threads", "2"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_weibull_thread_invariance_bytes(self, tmp_path):
        # the Weibull model and bank keep memos and a reused moment buffer
        config = {**BASE_CONFIGS["weibull"], "N": "30", "S": "4", "R": "40",
                  "methods": "profile,mcmpl"}
        cfg = write_lines(tmp_path / "exp.cfg", [f"{k} = {v}" for k, v in config.items()])
        out1, out2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
        assert main(["simulate", "--config", cfg, "--out", out1,
                     "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2,
                     "--threads", "2"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path, S=4)
        base = str(tmp_path / "m0.csv")
        assert main(["simulate", "--config", cfg, "--out", base,
                     "--threads", "1"]) == 0
        monkeypatch.setenv("MCMPL_THREADS", "2")
        out = str(tmp_path / "menv.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert open(out, "rb").read() == open(base, "rb").read()

    @pytest.mark.parametrize("threads, env", [
        ("0", None), ("-2", None), (None, "0"), (None, "-1"), (None, "two")])
    def test_bad_thread_count_exit_one(self, tmp_path, capsys, monkeypatch,
                                       threads, env):
        cfg = self.config(tmp_path)
        out = tmp_path / "m.csv"
        argv = ["simulate", "--config", cfg, "--out", str(out)]
        if threads is not None:
            argv += ["--threads", threads]
        if env is not None:
            monkeypatch.setenv("MCMPL_THREADS", env)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate"], ["trace", "--param", "xi", "--grid", "0.1:0.3:0.1"]])
def test_failed_data_draw_exit_one(tmp_path, capsys, command):
    # no censoring rate reaches a 95% share at this shape: every draw fails
    cfg = write_lines(tmp_path / "exp.cfg", [
        "model = weibull", "N = 20", "T = 4", "S = 3", "xi = 0.2",
        "beta = -1.0,1.0", "pc = 0.95", "methods = profile,mcmpl"])
    out = tmp_path / "out.csv"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


#: the options and config keys that only the binary model reads, with a
#: non-default value each; a family that reads none of them rejects them
UNREAD_OPTIONS = [("link", "probit"), ("mechanism", "mnar")]
UNREAD_KEYS = UNREAD_OPTIONS + [("lambda_gen", "covariate-correlated")]
FAMILY_CONFIGS = {
    "weibull": ["model = weibull", "N = 10", "T = 4", "S = 2", "beta = -1.0,1.0",
                "pc = 0.2", "methods = profile"],
    "ar1": ["model = ar1", "N = 10", "T = 4", "S = 2", "methods = profile"],
}
TRACE_ARGS = {"weibull": ["--param", "xi", "--grid", "1.0:2.0:0.5"],
              "ar1": ["--param", "rho", "--grid", "0.2:0.6:0.2"]}


@pytest.mark.parametrize("option,value", UNREAD_OPTIONS)
@pytest.mark.parametrize("model", sorted(FAMILY_CONFIGS))
@pytest.mark.parametrize("command", ["fit", "trace"])
def test_unread_option_with_data_exit_one(tmp_path, capsys, command, model, option, value):
    path, _ = {"weibull": weibull_csv, "ar1": ar1_csv}[model](tmp_path, n=10)
    extra = TRACE_ARGS[model] if command == "trace" else []
    out = tmp_path / "out.csv"
    assert main([command, "--model", model, "--data", path, f"--{option}", value,
                 *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} {value!r} ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key,value", UNREAD_KEYS)
@pytest.mark.parametrize("model", sorted(FAMILY_CONFIGS))
@pytest.mark.parametrize("command", ["simulate", "trace"])
def test_unread_config_key_exit_one(tmp_path, capsys, command, model, key, value):
    cfg = write_lines(tmp_path / "exp.cfg", FAMILY_CONFIGS[model] + [f"{key} = {value}"])
    extra = TRACE_ARGS[model] if command == "trace" else []
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} {value!r} ") and err.count("\n") == 1
    assert not out.exists()
    # the same file without the key runs
    cfg = write_lines(tmp_path / "exp.cfg", FAMILY_CONFIGS[model])
    assert main([command, "--config", cfg, *extra, "--out", str(out)]) == 0


#: each extreme-value case: the config values of a study, or the family,
#: column and value of one cell of a small dataset file (its third data row,
#: an event row of the Weibull file and a t=2 row of the AR(1) file)
EXTREME_CASES = {
    "weibull-time-1e308": ("weibull", "time", "1e308"),
    "weibull-x1-1e308": ("weibull", "x1", "1e308"),
    "weibull-x1--1e308": ("weibull", "x1", "-1e308"),
    "weibull-x2-1e308": ("weibull", "x2", "1e308"),
    "weibull-x2--1e308": ("weibull", "x2", "-1e308"),
    "ar1-y-1e308": ("ar1", "y", "1e308"),
    "ar1-y--1e308": ("ar1", "y", "-1e308"),
    "ar1-y-9e99": ("ar1", "y", "9e99"),
    "weibull-xi-9e99": ["model = weibull", "xi = 9e99", "beta = -1.0,1.0", "pc = 0.2"],
    "weibull-xi-1e-300": ["model = weibull", "xi = 1e-300", "beta = -1.0,1.0", "pc = 0.2"],
    "ar1-rho-9e99-sigma2-1e300": ["model = ar1", "rho = 9e99", "sigma2 = 1e300"],
}


@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_extreme_value_exit_one(tmp_path, case):
    # finite values whose arithmetic leaves the floating-point range end in
    # one error line, without a RuntimeWarning
    out = tmp_path / "out.csv"
    values = EXTREME_CASES[case]
    if isinstance(values, tuple):
        kind, column, value = values
        path, _ = {"weibull": weibull_csv, "ar1": ar1_csv}[kind](tmp_path)
        rows = Path(path).read_text().splitlines()
        cells = rows[3].split(",")
        header = rows[0].split(",")
        assert kind != "weibull" or cells[header.index("event")] == "1"
        assert kind != "ar1" or cells[header.index("t")] == "2"
        cells[header.index(column)] = value
        rows[3] = ",".join(cells)
        Path(path).write_text("\n".join(rows) + "\n")
        argv = ["fit", "--model", kind, "--data", path, "--out", str(out)]
    else:
        cfg = write_lines(tmp_path / "exp.cfg", values + [
            "N = 12", "T = 4", "S = 2", "R = 5", "seed = 3", "methods = profile,mcmpl"])
        argv = ["simulate", "--config", cfg, "--out", str(out)]
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()


#: design values that drive the data draw or the metrics out of the
#: floating-point range; the study ends on any exit code without a warning
EXTREME_DESIGNS = {
    "binary-beta-1e308": ["model = binary", "beta = 1e308"],
    "binary-beta--1e308": ["model = binary", "beta = -1e308"],
    "binary-gamma1-1e308": ["model = binary", "gamma1 = 1e308"],
    "binary-gamma1--1e308": ["model = binary", "gamma1 = -1e308"],
    "weibull-beta2-1e50": ["model = weibull", "beta = -1.0,1e50", "pc = 0.2"],
    "weibull-beta2-1e308": ["model = weibull", "beta = -1.0,1e308", "pc = 0.2"],
}


@pytest.mark.parametrize("case", sorted(EXTREME_DESIGNS))
def test_extreme_design_value_without_warning(tmp_path, case):
    cfg = write_lines(tmp_path / "exp.cfg", EXTREME_DESIGNS[case] + [
        "N = 12", "T = 4", "S = 2", "R = 5", "seed = 3", "methods = profile"])
    _run_malformed(["simulate", "--config", cfg, "--out", str(tmp_path / "m.csv")])


@pytest.mark.parametrize("command", ["fit", "simulate", "trace"])
def test_out_in_missing_directory_exit_one(tmp_path, capsys, command):
    path, _ = ar1_csv(tmp_path, n=20, t=4)
    cfg = write_lines(tmp_path / "exp.cfg", [
        "model = ar1", "N = 20", "T = 4", "S = 2", "R = 10", "methods = profile"])
    argv = {"fit": ["fit", "--model", "ar1", "--method", "profile", "--data", path],
            "simulate": ["simulate", "--config", cfg],
            "trace": ["trace", "--model", "ar1", "--data", path, "--param", "rho",
                      "--grid", "0.0:0.5:0.1", "--replicates", "10"]}[command]
    assert main(argv + ["--out", str(tmp_path / "nodir" / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestTraceCommand:
    def test_ar1_trace_normalized_and_reincreasing(self, tmp_path):
        path, _ = ar1_csv(tmp_path, n=250, t=4, seed=37, rho=0.9)
        out = str(tmp_path / "trace.csv")
        assert main(["trace", "--model", "ar1", "--data", path, "--param", "rho",
                     "--grid=-1.5:1.5:0.05", "--replicates", "300",
                     "--seed", "3", "--out", out]) == 0
        header, rows = read_table(out)
        assert header == ["param_value", "rel_profile", "rel_mcmpl"]
        lp = np.array([float(r[1]) if r[1] else -np.inf for r in rows])
        lm = np.array([float(r[2]) if r[2] else -np.inf for r in rows])
        assert lp.max() == pytest.approx(0.0, abs=1e-9)
        assert lm[np.isfinite(lm)].max() == pytest.approx(0.0, abs=1e-9)
        # the modified curve has an interior maximum, dips, then re-increases
        # toward the feasibility edge (the branch the bounded fit avoids)
        interior = next(i for i in range(1, len(lm) - 1)
                        if np.isfinite(lm[i]) and lm[i] > lm[i - 1] and lm[i] >= lm[i + 1])
        tail = lm[interior:]
        dip = interior + int(np.nanargmin(np.where(np.isfinite(tail), tail, np.nan)))
        after_dip = lm[dip:]
        assert np.isfinite(after_dip).any()
        assert np.nanmax(np.where(np.isfinite(after_dip), after_dip, np.nan)) \
            > lm[dip] + 0.5

    def test_profile_band_reproduces_lr_interval(self, tmp_path):
        path, data = ar1_csv(tmp_path, n=200, t=8, seed=41)
        out = str(tmp_path / "trace.csv")
        step = 0.002
        assert main(["trace", "--model", "ar1", "--data", path, "--param", "rho",
                     "--grid", f"0.0:0.9:{step}", "--replicates", "100",
                     "--seed", "3", "--out", out]) == 0
        _, rows = read_table(out)
        grid = np.array([float(r[0]) for r in rows])
        lp = np.array([float(r[1]) if r[1] else -np.inf for r in rows])
        band = -0.5 * 3.841458820694124  # chi2(1) 0.95 quantile / 2
        inside = grid[lp >= band]
        # compare the grid-derived endpoints against a direct bisection on
        # the shifted profile curve
        from scipy.optimize import brentq

        from mcmpl import core as mcore

        model = ar1.AR1PanelModel()
        peak = lp.max()

        def rel(r):
            s2 = max(ar1.constrained_sigma2(r, data, "NT"), ar1.SIGMA2_FLOOR)
            return mcore.profile_loglik(model, data, np.array([r, s2]))

        shift = max(rel(g) for g in grid[np.argmax(lp):np.argmax(lp) + 1])
        lo_exact = brentq(lambda r: rel(r) - shift - band, grid[0], grid[np.argmax(lp)])
        hi_exact = brentq(lambda r: rel(r) - shift - band, grid[np.argmax(lp)], grid[-1])
        assert abs(inside.min() - lo_exact) <= 2 * step
        assert abs(inside.max() - hi_exact) <= 2 * step

    def test_ar1_sigma2_trace_peaks_at_the_fits(self, tmp_path):
        # sigma2 is re-maximized over rho like any other component, so each
        # curve peaks within one grid step of its own fit's variance
        path, _ = ar1_csv(tmp_path, n=200, t=8, seed=41)
        out = str(tmp_path / "trace.csv")
        step = 0.005
        assert main(["trace", "--model", "ar1", "--data", path, "--param", "sigma2",
                     "--grid", f"0.6:1.4:{step}", "--replicates", "200",
                     "--seed", "41", "--out", out]) == 0
        _, rows = read_table(out)
        grid = np.array([float(r[0]) for r in rows])
        data = io.read_dataset(path, "ar1")
        mc = MonteCarloConfig(replicates=200, master_seed=41)
        for column, method in ((1, "profile"), (2, "mcmpl")):
            curve = np.array([float(r[column]) if r[column] else -np.inf for r in rows])
            fit = core.fit(ar1.AR1PanelModel(), data, method, mc)
            assert abs(grid[np.argmax(curve)] - fit.psi_hat[1]) <= step

    def test_binary_trace_from_config(self, tmp_path):
        cfg = write_lines(tmp_path / "exp.cfg", [
            "model = binary", "mechanism = mcar", "N = 40", "T = 5", "S = 2",
            "R = 60", "seed = 13", "beta = 1.0", "gamma1 = 2.5",
            "methods = mcar:mcmpl"])
        out = str(tmp_path / "trace.csv")
        assert main(["trace", "--config", cfg, "--param", "beta1",
                     "--grid", "0.0:2.0:0.1", "--out", out]) == 0
        _, rows = read_table(out)
        assert len(rows) == 21
        lm = np.array([float(r[2]) if r[2] else -np.inf for r in rows])
        assert lm[np.isfinite(lm)].max() == pytest.approx(0.0, abs=1e-9)

    def test_zero_replicates_exit_one(self, tmp_path, capsys):
        path, _ = ar1_csv(tmp_path)
        assert main(["trace", "--model", "ar1", "--data", path, "--param", "rho",
                     "--grid", "0.0:0.5:0.1", "--replicates", "0",
                     "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "replicate" in err

    @pytest.mark.parametrize("grid", ["0:1:1e-15", "-1e308:1e308:1e300"])
    def test_unbounded_grid_exit_one(self, tmp_path, capsys, grid):
        # too many points, or a span past the floating-point range
        path, _ = ar1_csv(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["trace", "--model", "ar1", "--data", path, "--param", "rho",
                     f"--grid={grid}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid '{grid}'") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("model,param,lines,reason", [
        ("ar1", "rho", AR1_LACKS_A_PERIOD, "common length"),
        ("ar1", "rho", AR1_ONE_PERIOD, "common length"),
        ("binary", "beta1", BINARY_WITHOUT_X1, "x1"),
    ], ids=["ar1-lacks-a-period", "ar1-one-period", "binary-without-x1"])
    def test_unfittable_data_exit_one(self, tmp_path, capsys, model, param, lines,
                                      reason):
        # the fit's data gate, not the parameter lookup, reports the file
        path = write_lines(tmp_path / "bad.csv", lines)
        out = tmp_path / "t.csv"
        assert main(["trace", "--model", model, "--data", path, "--param", param,
                     "--grid", "0.0:0.5:0.25", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err
        assert not out.exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        path, _ = ar1_csv(tmp_path)
        assert main(["trace", "--model", "ar1", "--data", path, "--param", "rho",
                     "--grid", "1.0:0.5:0.1", "--out", str(tmp_path / "t.csv")]) == 1
        assert "grid" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_lines(tmp_path / "exp.cfg", [
            "model = ar1", "N = 20", "T = 4", "S = 2", "R = 30", "seed = 2",
            "rho = 0.5", "sigma2 = 1.0", "methods = profile"])
        out = str(tmp_path / "m.csv")
        # the child imports the package under test, installed or not
        src = str(Path(core.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "mcmpl", "simulate",
                               "--config", cfg, "--out", out],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        header, rows = read_table(out)
        assert rows and header[0] == "N"

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half a second and 20 MB at import; the
        # package needs only the normal quantile and tail of scipy.special
        src = str(Path(core.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, mcmpl.cli; "
             "print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


#: extreme finite numbers, whose arithmetic may leave the floating-point range
EXTREME = ["1e308", "-1e308", "9e99", "-9e99", "1e300", "1e-300"]

#: one malformed cell: empty, non-finite, out of range, extreme, short text,
#: or None for a dropped field
MALFORMED = st.one_of(st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "2", None]
                                      + EXTREME),
                      st.text(st.characters(codec="ascii"), max_size=4))


def _small_or_not_integer(value):
    try:
        return -3 <= int(value) <= 50
    except ValueError:
        return True


#: a design size (N, T, S, R) never starts a large study
MALFORMED_SIZE = st.one_of(
    st.integers(-3, 50).map(str),
    MALFORMED.filter(lambda v: v is None or _small_or_not_integer(v)))

#: deterministic, writes no example database, bounded run time
PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=40)

#: small valid configs; every value is one cell a malformed value may replace.
#: Binary and Weibull studies fit without replicate banks: on such tiny
#: draws a failed mcmpl fit can take seconds.
BASE_CONFIGS = {
    "binary": {"model": "binary", "link": "logit", "mechanism": "mnar", "N": "12",
               "T": "4", "S": "2", "R": "5", "seed": "3", "beta": "1.0",
               "gamma1": "2.5", "gamma2": "1.0", "lambda_gen": "normal",
               "methods": "mcar:profile,mcar:mpl-exact"},
    "weibull": {"model": "weibull", "N": "12", "T": "4", "S": "2", "R": "5",
                "seed": "3", "xi": "1.5", "beta": "-1.0,1.0", "pc": "0.2",
                "methods": "profile"},
    "ar1": {"model": "ar1", "N": "12", "T": "4", "S": "2", "R": "5", "seed": "3",
            "rho": "0.5", "sigma2": "1.0", "methods": "profile,mcmpl"},
}


@pytest.fixture(scope="module")
def base_datasets(tmp_path_factory):
    """Rows of a small valid dataset file of each family, split into cells."""
    tmp = tmp_path_factory.mktemp("base")
    files = {"binary": binary_csv(tmp, n=8, t=3)[0], "ar1": ar1_csv(tmp, n=6, t=3)[0],
             "weibull": weibull_csv(tmp, n=6, t=4)[0]}
    return {model: [line.split(",") for line in Path(path).read_text().splitlines()]
            for model, path in files.items()}


def _run_malformed(argv):
    """Run ``main``; it returns 0, 1 or 2 without a warning, and 1 comes with
    exactly one ``error:`` line on stderr."""
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    if code == 1:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


class TestMalformedInput:
    @pytest.mark.parametrize("model", ["binary", "ar1", "weibull"])
    @PROPERTY
    @given(draw=st.data())
    def test_dataset_cell(self, base_datasets, model, draw):
        rows = base_datasets[model]
        r = draw.draw(st.integers(0, len(rows) - 1), label="row")
        c = draw.draw(st.integers(0, len(rows[r]) - 1), label="column")
        value = draw.draw(MALFORMED, label="value")
        cells = list(rows[r])
        if value is None:
            del cells[c]
        else:
            cells[c] = value
        lines = [",".join(row) for row in rows[:r] + [cells] + rows[r + 1:]]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/data.csv"
            with open(path, "w", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
            _run_malformed(["fit", "--model", model, "--method", "profile",
                            "--data", path, "--out", f"{tmp}/fit.csv"])

    @pytest.mark.parametrize("model", sorted(BASE_CONFIGS))
    @PROPERTY
    @given(draw=st.data())
    def test_config_value(self, model, draw):
        config = dict(BASE_CONFIGS[model])
        key = draw.draw(st.sampled_from(sorted(config)), label="key")
        size = key in ("N", "T", "S", "R")
        value = draw.draw(MALFORMED_SIZE if size else MALFORMED, label="value")
        if value is None:
            del config[key]
        else:
            config[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/exp.cfg"
            with open(path, "w", newline="") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in config.items()))
            _run_malformed(["simulate", "--config", path, "--out", f"{tmp}/m.csv"])
