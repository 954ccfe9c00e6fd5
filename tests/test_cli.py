"""CLI: subcommands, formats, exit codes, and output determinism."""

import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import arctangr
import arctangr.cli as cli
from arctangr.errors import FitConvergenceError


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
        assert payload["nfev"] > payload["iterations"] > 0
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

    def test_param_pairing_enforced(self, capsys):
        code, _, err = run_cli(["risk", "--omega", "0.02", "--alphas", "0.8"], capsys)
        assert code == 3
        assert "together" in err

    def test_requires_source(self, capsys):
        code, _, err = run_cli(["risk", "--alphas", "0.8"], capsys)
        assert code == 3

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

    def test_data_error_overflowing_spread(self, tmp_path, capsys):
        f = tmp_path / "huge.csv"
        f.write_text("-1e308\n0\n1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(["fit", "--data", str(f)], capsys)
        assert code == 3
        assert "mean absolute deviation overflows" in err

    def test_numeric_error_exit_code(self, capsys, monkeypatch):
        def exploding(data):
            raise FitConvergenceError("no restart converged")

        monkeypatch.setitem(cli._FITTERS, "agr", exploding)
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

    def test_compare_byte_identical_across_processes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "arctangr", "compare",
                 "--data", "embedded:insurance", "--seed", "42",
                 "--format", "json", "--out", str(target)],
                capture_output=True,
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

    def test_no_scipy_in_any_subcommand(self):
        src = str(Path(arctangr.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["after_import"] == []
        assert result["codes"] == [0] * 7
        assert result["masked"] == []
        assert result["scipy"] == []
