"""The CLI contract on drawn command lines: subcommands, flags and edge values,
run in process through ``cli.main`` as the golden test runs them.

Whatever is drawn, the exit code is 0, 2 (usage), 3 (data/domain) or 4
(numeric); on an error stdout stays empty and stderr ends in its one
``error:`` line, with no traceback and no numpy repr; no ``RuntimeWarning``
is raised; and JSON output is strict JSON, with no ``NaN`` or ``Infinity``.
The commands that fit also run on extreme files on both sides of
``fit.FLOAT_FIT_MAX``, where the float and the numpy paths serve.
``--mc-samples`` and ``--bins`` are drawn small, so no case runs long or
allocates much.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arctangr.cli as cli
from arctangr.fit import FLOAT_FIT_MAX


def mostly(good, bad):
    """``good`` in three draws of four, else ``bad``, so that most command
    lines reach a command and the edge values still turn up in each option."""
    good, bad = st.sampled_from(good), st.sampled_from(bad)
    return st.one_of(good, good, good, bad)


# data specs: placeholders (@name) stand for files written once per module
DATA = mostly(["embedded:insurance", "@sample"],
              ["@constant", "@tiny", "@words", "@empty", "@missing", "embedded:nope"])
# samples whose range is huge against their IQR, whose octiles' sums and
# gaps leave the double range, or whose squared deviations underflow;
# describe, plotdata and risk --empirical draw them
WIDE_DATA = st.one_of(DATA, st.sampled_from(["@wide", "@widepm", "@subnormal", "@edge",
                                             "@top", "@gap", "@underflow"]))
EDGE_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0", "abc"]
OMEGAS = mostly(["0.02", "0", "-3", "2.5", "1e8"], EDGE_NUMBERS)
PSIS = mostly(["0.005", "1", "2.5", "1e3"], EDGE_NUMBERS)
GOOD_LEVELS = ["0.75", "0.9", "0.99", "0.609", "0.999999999"]
LEVEL = mostly(GOOD_LEVELS, ["0.5", "1", "0", "-1", "nan", "inf", "1e-300", " ", "x"])
# unsorted and repeated lists included, and the empty one
ALPHAS = st.one_of(st.lists(st.sampled_from(GOOD_LEVELS), min_size=1, max_size=5),
                   st.lists(LEVEL, max_size=3)).map(",".join)
SEEDS = mostly(["0", "3", "1180591620717411303424"], ["-1", "-7", "nan", "5e-324"])
FORMATS = mostly(["table", "json", "csv"], ["xml"])

# option: (values, chance in 10 that it is given); None as a value is a flag,
# and a tuple of options takes a tuple of values
COMMON = {"--data": (DATA, 9), "--format": (FORMATS, 5), "--seed": (SEEDS, 3),
          "--out": (mostly(["@out"], ["@folder", "@nowhere"]), 2)}
OPTIONS = {
    "describe": {**COMMON, "--data": (WIDE_DATA, 9)},
    "fit": {**COMMON, "--model": (mostly(["agr", "gaussian", "rayleigh", "laplace"],
                                         ["lognormal"]), 5)},
    "compare": COMMON,
    "risk": {**COMMON, "--data": (DATA, 3),
             "--model": (mostly(["agr"], ["gaussian"]), 2),
             ("--omega", "--psi"): (st.tuples(OMEGAS, PSIS), 7), "--psi": (PSIS, 1),
             "--alphas": (ALPHAS, 7),
             "--empirical": (st.none(), 2),
             ("--empirical", "--data"): (st.tuples(st.none(), WIDE_DATA), 2),
             "--mc-samples": (mostly(["0", "1", "10", "2000"], ["-1", "-5", "nan", "1e308"]), 4)},
    "plotdata": {**COMMON, "--data": (WIDE_DATA, 9),
                 "--format": (mostly(["table", "json"], ["csv", "xml"]), 5),
                 "--bins": (mostly(["1", "12", "50"], ["0", "-1", "nan", "1e308", "5e-324"]), 5)},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = []
    for names, (values, chance) in OPTIONS[command].items():
        if draw(st.integers(0, 9)) >= chance:
            continue
        drawn = draw(values)
        pairs = zip(names, drawn) if isinstance(names, tuple) else [(names, drawn)]
        for name, value in pairs:
            if value is None:
                options.append([name])
            elif draw(st.booleans()):
                options.append([f"{name}={value}"])
            else:
                options.append([name, value])
    return [command, *(arg for option in draw(st.permutations(options)) for arg in option)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    contents = {
        "sample": "loss\n" + "".join(f"{0.05 + 0.001 * (i * 37 % 53)}\n" for i in range(60)),
        "constant": "1\n1\n1\n1\n1\n",
        "tiny": "0.1\n0.2\n",
        "words": "loss\n0.1\nabc\n",
        "empty": "",
        "wide": "1\n2\n3\n4\n1e200\n",
        "widepm": "1e154\n-1e154\n3\n4\n5\n",
        "subnormal": "5e-324\n1\n-2\n3\n1e300\n-1e-300\n",
        "edge": "-1e308\n0\n1\n2\n1e308\n",
        "top": "1e308\n1.7e308\n1.7e308\n1.7e308\n",
        "gap": "1.7e308\n1.7e308\n-1e308\n",
        "underflow": "1e-300\n2e-300\n3e-300\n5e-300\n1e-310\n",
    }
    # --out: a file, a directory, and a file whose parent does not exist
    paths = {"missing": str(root / "missing.csv"), "folder": str(root),
             "nowhere": str(root / "no" / "such" / "out.txt"), "out": str(root / "out.txt")}
    for name, text in contents.items():
        path = root / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: ``NaN`` and ``Infinity`` raise."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["risk", "--omega=-1e308", "--psi", "1e308", "--alphas", "0.51,0.9"])
@example(argv=["risk", "--omega", "-1e308", "--psi", "1"])
@example(argv=["risk", "--omega", "1e308", "--psi", "1e308", "--alphas", "0.99,0.6"])
@example(argv=["risk", "--omega", "0", "--psi", "5e-324", "--alphas", "0.99"])
@example(argv=["risk", "--omega", "0", "--psi", "1", "--alphas", "nan"])
@example(argv=["risk", "--omega", "0", "--psi", "1", "--alphas", ""])
@example(argv=["risk", "--omega", "0", "--psi", "1", "--alphas", "0.99,0.75,0.9"])
@example(argv=["risk", "--omega", "0", "--psi", "1", "--seed", "-1", "--mc-samples", "10"])
@example(argv=["risk", "--data", "@constant", "--alphas", "0.9"])
@example(argv=["risk", "--data", "@sample", "--empirical", "--alphas", "0.99"])
@example(argv=["plotdata", "--data", "@tiny", "--bins", "50"])
@example(argv=["plotdata", "--data", "@wide"])
@example(argv=["plotdata", "--data", "@widepm", "--bins", "12"])
@example(argv=["plotdata", "--data", "@edge", "--bins", "12"])
@example(argv=["describe", "--data", "@wide"])
@example(argv=["describe", "--data", "@widepm", "--format", "json"])
@example(argv=["describe", "--data", "@subnormal"])
@example(argv=["describe", "--data", "@top"])
@example(argv=["describe", "--data", "@gap", "--format", "csv"])
@example(argv=["risk", "--data", "@wide", "--empirical", "--alphas", "0.5"])
@example(argv=["risk", "--data", "@edge", "--empirical", "--alphas", "0.6,0.5"])
@example(argv=["risk", "--data", "@gap", "--empirical", "--alphas", "0.1"])
@example(argv=["risk", "--data", "@widepm", "--mc-samples", "2000", "--alphas", "0.75,0.99"])
@example(argv=["fit", "--data", "@edge", "--format", "json"])
@example(argv=["risk", "--data", "@edge"])
@example(argv=["compare", "--data", "@edge"])
@example(argv=["fit", "--data", "@gap", "--model", "laplace"])
@example(argv=["describe", "--data", "@underflow"])
@example(argv=["fit", "--data", "@underflow", "--model", "rayleigh", "--format", "json"])
@example(argv=["compare", "--data", "@underflow"])
@example(argv=["risk", "--data", "@underflow", "--empirical", "--alphas", "0.6"])
@example(argv=["plotdata", "--data", "@underflow"])
@example(argv=["fit", "--data", "@missing"])
@example(argv=["describe", "--data", "embedded:insurance", "--out", "@folder"])
@example(argv=["fit", "--data", "@sample", "--out=@nowhere", "--format", "json"])
def test_exit_codes_and_streams(files, argv):
    for name, path in files.items():
        argv = [arg.replace(f"@{name}", path) for arg in argv]
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    assert "np.float64(" not in err and "array(" not in err  # no numpy repr
    if code == 0:
        assert err == ""
        assert (out == "") == any(arg.startswith("--out") for arg in argv)
        if out and any(arg in ("json", "--format=json") for arg in argv):
            strict_json(out)
    else:
        assert out == ""
        lines = err.splitlines()
        assert [i for i, line in enumerate(lines) if "error:" in line] == [len(lines) - 1]
        if code != 2:  # argparse prints its usage first; the program prints one line
            assert len(lines) == 1


def extreme_samples(n):
    """Samples of ``n`` points at the edges of the double range: subnormal,
    near +-1.7e308 and near 1.7e308 alone, and tied to two values."""
    return {
        "subnormal": [k * 1e-320 for k in range(1, n + 1)],
        "huge": [(-1.0) ** k * (1.7e308 - k * 1e292) for k in range(n)],
        "top": [1.7e308 - k * 1e292 for k in range(n)],
        "tied": [1.0 + (k % 2) for k in range(n)],
    }


@pytest.fixture(scope="module")
def extreme_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_extreme")
    paths = {}
    for n in (4, FLOAT_FIT_MAX, FLOAT_FIT_MAX + 1):
        for name, values in extreme_samples(n).items():
            path = root / f"{name}{n}.csv"
            path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
            paths[f"{name}{n}"] = str(path)
    return paths


FITTING = [["fit", "--model", m] for m in ("agr", "gaussian", "rayleigh", "laplace")] + [
    ["compare"], ["plotdata"], ["risk"]]


@pytest.mark.parametrize("n", [4, FLOAT_FIT_MAX, FLOAT_FIT_MAX + 1])
@pytest.mark.parametrize("name", ["subnormal", "huge", "top", "tied"])
@pytest.mark.parametrize("command", FITTING, ids=" ".join)
def test_extreme_files_on_both_paths(extreme_files, n, name, command):
    # each command ends in strict JSON or in one data error line, with no
    # RuntimeWarning, on the float path (up to FLOAT_FIT_MAX points) and the
    # numpy path (above)
    code, out, err = run([*command, "--data", extreme_files[f"{name}{n}"], "--format", "json"])
    assert code in (0, 3), err
    if code == 0:
        assert err == ""
        strict_json(out)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
