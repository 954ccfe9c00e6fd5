"""CLI: subcommands, formats, exit codes, and output determinism."""

import ast
import json
import math
import re
import statistics
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction

import pytest

import arctangr.cli as cli
from arctangr import ingest
from arctangr.dataset import INSURANCE_VALUES
from arctangr.errors import FitConvergenceError
from arctangr.fit import FLOAT_FIT_MAX, MODELS


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_table(self, capsys):
        code, out, _ = run_cli(["describe", "--data", "embedded:insurance"], capsys)
        assert code == 0
        assert "n: 58" in out
        assert "mean" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["describe", "--data", "embedded:insurance", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["n"] == 58

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            ["describe", "--data", "embedded:insurance", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0].startswith("n,mean,median")


class TestFit:
    def test_gaussian_table(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--data", "embedded:insurance", "--model", "gaussian"], capsys
        )
        assert code == 0
        assert "loglik: 116.686" in out

    def test_json_carries_diagnostics(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--data", "embedded:insurance", "--model", "agr", "--format", "json"],
            capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["converged"] is True
        # the library's own diagnostics; insurance starts at omega-hat, so it
        # takes no omega step
        res = MODELS["agr"].fit(ingest("embedded:insurance"))
        assert (payload["iterations"], payload["nfev"]) == (res.iterations, res.nfev)
        assert payload["nfev"] > payload["iterations"] >= 0
        assert "restarts" not in payload

    def test_table_diagnostics_line(self, capsys):
        code, out, _ = run_cli(["fit", "--data", "embedded:insurance"], capsys)
        assert code == 0
        assert re.fullmatch(r"converged: True \(iterations=\d+, nfev=\d+\)",
                            out.splitlines()[-1])


class TestRisk:
    def test_direct_params_csv(self, capsys):
        code, out, _ = run_cli(
            ["risk", "--omega", "0.02", "--psi", "0.005",
             "--alphas", "0.9,0.609", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,var,tvar,tv"
        assert lines[1].startswith("0.609,0.0201881,")

    def test_empirical(self, capsys):
        code, out, _ = run_cli(
            ["risk", "--data", "embedded:insurance", "--empirical",
             "--alphas", "0.75,0.9,0.95", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1]["var"] == pytest.approx(0.1336)

    def test_fitted_model_risk(self, capsys):
        code, out, _ = run_cli(
            ["risk", "--data", "embedded:insurance", "--alphas", "0.9", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["tvar"] > payload["rows"][0]["var"]

    def test_mc_check_block(self, capsys):
        code, out, _ = run_cli(
            ["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.8",
             "--mc-samples", "20000", "--seed", "3", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["mc_check"]) == 1
        assert payload["mc_check"][0]["exceedances"] > 0

    def test_mc_samples_rejected_in_csv_before_any_work(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("no fit or draw may run before the format check")

        monkeypatch.setattr("arctangr.fit.fit_agr", forbidden)
        monkeypatch.setattr("arctangr.risk.mc_oracle", forbidden)
        for source in (["--data", "embedded:insurance"], ["--omega", "0.02", "--psi", "0.005"]):
            code, out, err = run_cli(
                ["risk", *source, "--mc-samples", "1000", "--format", "csv"], capsys
            )
            assert (code, out) == (3, "")
            assert err == "error: --mc-samples has no CSV layout; use --format table or json\n"

    def test_param_pairing_enforced(self, capsys):
        code, _, err = run_cli(["risk", "--omega", "0.02", "--alphas", "0.8"], capsys)
        assert code == 3
        assert "together" in err

    def test_requires_source(self, capsys):
        code, _, err = run_cli(["risk", "--alphas", "0.8"], capsys)
        assert code == 3

    def test_mc_samples_beyond_int64_is_data_error(self, capsys):
        code, out, err = run_cli(
            ["risk", "--omega", "0.02", "--psi", "0.005", "--mc-samples", "9223372036854775808"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == "error: n must be at most 2**63 - 1, got 9223372036854775808\n"

    def test_negative_mc_samples_is_data_error(self, capsys):
        code, out, err = run_cli(
            ["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.9",
             "--mc-samples", "-1"], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: --mc-samples must be >= 0")

    @pytest.mark.parametrize("argv", [
        ["risk", "--omega", "0", "--psi", "1", "--alphas", "0.99", "--mc-samples", "10"],
        ["risk", "--omega", "0", "--psi", "1", "--alphas", "0.99"],
        ["describe", "--data", "embedded:insurance"],
    ])
    def test_negative_seed_is_data_error(self, capsys, monkeypatch, argv):
        # checked where it is parsed, with or without a draw to seed
        monkeypatch.setattr(cli, "_RUNNERS", {})
        code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: --seed must be a nonnegative integer, got -1\n"

    def test_alpha_out_of_range_is_data_error(self, capsys):
        code, _, err = run_cli(
            ["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.4"], capsys
        )
        assert code == 3
        assert "confidence level" in err


class TestPlotdata:
    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["plotdata", "--data", "embedded:insurance", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["histogram"]["counts"]) == 58

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_nonpositive_bins_is_data_error(self, capsys, bins):
        code, out, err = run_cli(
            ["plotdata", "--data", "embedded:insurance", "--bins", bins], capsys
        )
        assert (code, out) == (3, "")
        assert err == f"error: --bins must be a positive integer, got {bins}\n"

    def test_csv_rejected_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["plotdata", "--data", "embedded:insurance", "--format", "csv"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--data", "embedded:insurance", "--frob"])
        assert exc.value.code == 2

    def test_usage_error_no_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_data_error_missing_file(self, capsys):
        code, _, err = run_cli(["fit", "--data", "/no/such/file.csv"], capsys)
        assert code == 3
        assert "no such data file" in err

    def test_data_error_bad_line(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("1.0\n2.0\nxyz\n")
        code, _, err = run_cli(["fit", "--data", str(f), "--model", "gaussian"], capsys)
        assert code == 3
        assert "line 3" in err

    def test_spread_whose_sum_overflows(self, tmp_path, capsys):
        # the mean absolute deviation (4e307 here) is finite, so both fits
        # answer; the AGR tail beyond it is what ends risk in exit 3, and
        # compare ranks the three models whose support holds data below 0.
        # The Gaussian mean is the exact one, 3/5: the correctly rounded sum
        # keeps the 3 that an in-order float sum loses against +-1e308
        values = [-1e308, 0.0, 1.0, 2.0, 1e308]
        mean = float(statistics.mean(map(Fraction, values)))
        assert MODELS["gaussian"].fit(values).params.omega == mean == 0.6
        f = tmp_path / "huge.csv"
        f.write_text("".join(f"{v!r}\n" for v in values))
        runs = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["fit"], ["fit", "--model", "laplace"], ["risk"], ["compare"]):
                runs[argv[-1]] = run_cli([*argv, "--data", str(f)], capsys)
        assert runs["fit"][0] == runs["laplace"][0] == 0
        assert "params: omega=1; psi=4e+307" in runs["laplace"][1]
        assert runs["risk"] == (3, "", "error: TVaR at alpha=0.99 is not a finite double\n")
        assert runs["compare"] == (0, textwrap.dedent("""\
            Model      Par.                       r  LL        AIC      BIC      CAIC     HQIC
            ---------  -------------------------  -  --------  -------  -------  -------  -------
            Arctan-GR  omega=2, psi=4.079e+307    2  -3549.98  7103.96  7103.18  7109.96  7101.86
            Gaussian   omega=0.6, eta=6.325e+307  2  -3550.79  7105.57  7104.79  7111.57  7103.47
            Laplace    omega=1, psi=4e+307        2  -3549.87  7103.73  7102.95  7109.73  7101.63

            best by criterion -- loglik: laplace, aic: laplace, bic: laplace, caic: laplace, hqic: laplace
            skipped rayleigh: Rayleigh fit requires strictly positive data
            """), "")

    def test_three_huge_points_stop_at_the_size_check(self, tmp_path, capsys):
        f = tmp_path / "huge.csv"
        f.write_text("-1e308\n0\n1e308\n")
        code, _, err = run_cli(["fit", "--data", str(f)], capsys)
        assert (code, err) == (3, "error: AGR fit needs at least 4 observations, got 3\n")

    @pytest.mark.parametrize("model", ["gaussian", "rayleigh"])
    def test_second_moment_that_overflows_is_fitted(self, tmp_path, capsys, model):
        f = tmp_path / "huge.csv"
        f.write_text("1e200\n2e200\n3e200\n4e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["fit", "--model", model, "--data", str(f),
                                      "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert all(math.isfinite(v) for v in json.loads(out)["params"].values())

    TINY = [1e-300, 2e-300, 3e-300, 5e-300, 1e-310]

    @pytest.mark.parametrize("argv", [["describe"], ["fit", "--model", "gaussian"],
                                      ["fit", "--model", "rayleigh"], ["compare"]])
    def test_squares_that_underflow_are_summed_at_unit_scale(self, tmp_path, capsys, argv):
        # unscaled, every squared deviation of this sample is 0: describe
        # printed sd 0 and these fits exited 3
        f = tmp_path / "tiny.csv"
        f.write_text("".join(f"{v!r}\n" for v in self.TINY))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([*argv, "--data", str(f), "--format", "json"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        if argv == ["describe"]:
            assert payload["sd"] == statistics.pstdev(self.TINY) == 1.7204650533829507e-300
            return
        for row in payload.get("rows", [payload]):
            assert all(0.0 < abs(v) < 1e-299 for v in row["params"].values())
            assert math.isfinite(row["loglik"])

    def test_compare_where_x_minus_omega_overflows(self, tmp_path, capsys):
        # each location-scale fit answers; Rayleigh's support excludes the
        # data, so compare ranks the other three and names it as skipped
        f = tmp_path / "huge.csv"
        f.write_text("-1.7e308\n1e308\n1.7e308\n1.7e308\n2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in ("agr", "gaussian", "laplace"):
                assert run_cli(["fit", "--model", model, "--data", str(f)], capsys)[0] == 0
            assert run_cli(["compare", "--data", str(f)], capsys) == (0, textwrap.dedent("""\
                Model      Par.                            r  LL        AIC      BIC      CAIC     HQIC
                ---------  ------------------------------  -  --------  -------  -------  -------  -------
                Arctan-GR  omega=1e+308, psi=1.073e+308    2  -3554.48  7112.96  7112.18  7118.96  7110.86
                Gaussian   omega=5.4e+307, eta=1.282e+308  2  -3554.32  7112.63  7111.85  7118.63  7110.54
                Laplace    omega=1e+308, psi=1.02e+308     2  -3554.55  7113.09  7112.31  7119.09  7111

                best by criterion -- loglik: gaussian, aic: gaussian, bic: gaussian, caic: gaussian, hqic: gaussian
                skipped rayleigh: Rayleigh fit requires strictly positive data
                """), "")
            code, out, _ = run_cli(["compare", "--data", str(f), "--format", "json"], capsys)
            payload = json.loads(out)
            assert (code, [row["model"] for row in payload["rows"]]) == (
                0, ["agr", "gaussian", "laplace"])
            assert payload["skipped_models"] == {
                "rayleigh": "Rayleigh fit requires strictly positive data"}
            code, out, _ = run_cli(["compare", "--data", str(f), "--format", "csv"], capsys)
            assert (code, [line.split(",")[0] for line in out.splitlines()]) == (
                0, ["model", "agr", "gaussian", "laplace"])

    @pytest.mark.parametrize("model", ["agr", "laplace"])
    def test_scale_below_the_smallest_double(self, tmp_path, capsys, model):
        # insurance times 2^-1070 is 0 to 4 times 2^-1074: the fitted scale
        # maps back to 0, which is the data's fault, not a parameter's
        f = tmp_path / "subnormal.csv"
        f.write_text("".join(f"{math.ldexp(v, -1070)!r}\n" for v in INSURANCE_VALUES))
        message = (f"error: {model} fit: the fitted scale rounds below the smallest "
                   "positive double\n")
        assert run_cli(["fit", "--model", model, "--data", str(f)], capsys) == (3, "", message)
        if model == "agr":
            assert run_cli(["compare", "--data", str(f)], capsys) == (3, "", message)

    def test_numeric_error_exit_code(self, capsys, monkeypatch):
        def exploding(data):
            raise FitConvergenceError("no restart converged")

        monkeypatch.setitem(MODELS, "agr", MODELS["agr"]._replace(fit=exploding))
        code, _, err = run_cli(["fit", "--data", "embedded:insurance", "--model", "agr"], capsys)
        assert code == 4
        assert "no restart converged" in err


class TestOutputsAndDeterminism:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            ["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.8",
             "--format", "csv", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""  # everything went to the file
        assert target.read_text().startswith("alpha,var,tvar,tv")

    def test_compare_byte_identical_across_processes(self, tmp_path, src_env):
        outs = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "arctangr", "compare",
                 "--data", "embedded:insurance", "--seed", "42",
                 "--format", "json", "--out", str(target)],
                capture_output=True, env=src_env,
            )
            assert proc.returncode == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]


class TestColdPath:
    # one fresh interpreter: no subcommand loads scipy, and the commands that
    # need no histogram leave numpy.ma unloaded too
    SCRIPT = textwrap.dedent("""
        import json, sys
        import arctangr

        def loaded(package):
            return sorted(m for m in sys.modules if m.split(".")[0] == package)

        after_import = loaded("scipy")
        import arctangr.cli
        ins = ["--data", "embedded:insurance"]
        lean = [arctangr.cli.main(argv) for argv in (
            ["describe", *ins],
            ["fit", *ins],
            ["risk", *ins, "--empirical", "--alphas", "0.75,0.9,0.95"],
        )]
        masked = [m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]]
        rest = [arctangr.cli.main(argv) for argv in (
            ["compare", *ins],
            ["risk", *ins],
            ["risk", "--omega", "0.02", "--psi", "0.005"],
            ["plotdata", *ins],
        )]
        print(json.dumps({"after_import": after_import, "codes": lean + rest,
                          "masked": masked, "scipy": loaded("scipy")}))
    """)

    def test_no_scipy_in_any_subcommand(self, src_env):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["after_import"] == []
        assert result["codes"] == [0] * 7
        assert result["masked"] == []
        assert result["scipy"] == []


class TestModuleSets:
    # a fresh interpreter per command: each loads the package modules it
    # runs and no other, since the runners import what they call; every
    # command that draws nothing runs on floats and loads no numpy, unless
    # it fits a sample of more than fit.FLOAT_FIT_MAX points
    # the script imports nothing the commands might not (no json): it prints
    # the exit code and every loaded module as a Python literal
    SCRIPT = textwrap.dedent("""
        import contextlib, io, sys
        import arctangr.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = arctangr.cli.main(sys.argv[1:])
        print(repr([code, sorted(sys.modules)]))
    """)
    BASE = ["_util", "cli", "dataset", "errors"]
    FLOATS = sorted(BASE + ["risk", "tail"])
    MODEL = sorted(BASE + ["_arrays", "arctanx", "distributions", "tail"])
    FIT = sorted(BASE + ["fit", "tail"])
    INS = "--data embedded:insurance"
    PARAMS = "risk --omega 0.02 --psi 0.005"
    # the modules each command loads, and whether numpy is among them; {file}
    # holds 40 points and {big} FLOAT_FIT_MAX + 1
    LOADS = {
        f"describe {INS}": (BASE, False),
        "describe --data {file}": (BASE, False),
        "describe --data {file} --format json": (BASE, False),
        PARAMS: (FLOATS, False),
        f"{PARAMS} --format csv": (FLOATS, False),
        f"{PARAMS} --alphas 0.609,0.75,0.9,0.99 --format json": (FLOATS, False),
        f"risk {INS} --empirical --alphas 0.75,0.9": (FLOATS, False),
        "risk --data {file} --empirical --alphas 0.75,0.9 --format json": (FLOATS, False),
        f"{PARAMS} --mc-samples 2000": (sorted(MODEL + ["risk"]), True),
        f"fit {INS}": (FIT, False),
        f"fit {INS} --model gaussian": (FIT, False),
        "fit --data {file} --format json": (FIT, False),
        f"compare {INS}": (FIT, False),
        "compare --data {file}": (FIT, False),
        f"risk {INS}": (sorted(FIT + ["risk"]), False),
        "risk --data {file}": (sorted(FIT + ["risk"]), False),
        f"plotdata {INS}": (sorted(FIT + ["plotdata", "risk"]), False),
        "plotdata --data {file} --format json": (sorted(FIT + ["plotdata", "risk"]), False),
        "fit --data {big}": (sorted(MODEL + ["_fit_arrays", "fit"]), True),
        "compare --data {big}": (sorted(MODEL + ["_fit_arrays", "fit"]), True),
        "plotdata --data {big}": (sorted(MODEL + ["_fit_arrays", "fit", "plotdata", "risk"]), True),
    }

    #: Standard-library modules that no numpy-free command needs: ``dataclasses``
    #: (which loads ``inspect``), ``typing``, ``pathlib`` and ``numbers``.
    UNNEEDED = ("dataclasses", "inspect", "typing", "pathlib", "numbers")

    def run_script(self, env, tmp_path, command, *flags):
        """``(exit code, sorted loaded modules)`` of ``command`` in a new
        interpreter run with the ``python`` ``flags``."""
        data, big = tmp_path / "losses.csv", tmp_path / "big.csv"
        data.write_text("loss\n" + "\n".join(map(str, range(1, 41))) + "\n")
        big.write_text("".join(f"{1.0 + (i * 7919 % 1000) / 997}\n"
                               for i in range(FLOAT_FIT_MAX + 1)))
        argv = command.format(file=data, big=big).split()
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT, *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("command", LOADS)
    def test_each_command_loads_only_what_it_runs(self, src_env, tmp_path, command):
        code, loaded = self.run_script(src_env, tmp_path, command)
        modules, needs_numpy = self.LOADS[command]
        assert code == 0
        assert [m for m in loaded if m.startswith("arctangr.")] == [
            f"arctangr.{m}" for m in modules]
        # numpy.ma: ~20 ms of imports no command needs
        assert [m for m in loaded if m.split(".")[:2] == ["numpy", "ma"]] == []
        assert ("numpy" in loaded, "scipy" in loaded) == (needs_numpy, False)

    @pytest.mark.parametrize("command", [c for c, (_, numpy) in LOADS.items() if not numpy])
    def test_clean_interpreter_loads_no_unneeded_stdlib(self, src_env, tmp_path, command):
        # under -S no site hook (a .pth file) preloads modules, so what is
        # loaded is what the program imports; json only where JSON is written
        code, loaded = self.run_script(src_env, tmp_path, command, "-S")
        assert code == 0
        assert [m for m in self.UNNEEDED if m in loaded] == []
        assert ("json" in loaded) == command.endswith("--format json")

    @pytest.mark.parametrize("command", [f"fit {INS}", PARAMS, f"{PARAMS} --mc-samples 2000"])
    def test_one_shot_command_starts_no_thread_pool(self, src_env, command):
        # `python -m arctangr` as users run it: the bulk kernels start their
        # threads per call, with no pool, so concurrent.futures stays
        # unloaded; -X importtime lists every module imported
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "arctangr",
                               *command.split()], capture_output=True, text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "arctangr.cli" in imported
        assert [m for m in imported if m.split(".")[0] == "concurrent"] == []

    def test_model_choices_come_from_the_registry(self, capsys):
        # argparse lists and tests the --model choices of fit from fit.MODELS
        with pytest.raises(SystemExit):
            cli.main(["fit", "--help"])
        assert "--model {%s}" % ",".join(sorted(MODELS)) in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", *self.INS.split(), "--model", "lognormal"])
        assert exc.value.code == 2
        choices = ", ".join(map(repr, sorted(MODELS)))
        assert capsys.readouterr().err.endswith(
            f"argument --model: invalid choice: 'lognormal' (choose from {choices})\n")
