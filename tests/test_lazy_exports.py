"""The package's exports load on first use: ``import arctangr`` imports no
submodule, and each exported name is its submodule's object, kept as a plain
attribute once read."""

import importlib
import json
import subprocess
import sys
import textwrap

import pytest

import arctangr

SUBMODULES = ("arctanx", "dataset", "distributions", "errors", "fit", "plotdata", "risk", "tail")

# the names the package exported when it imported every submodule eagerly
EXPORTED = """
    BaseDistribution arctan_cdf arctan_pdf
    EMBEDDED_INSURANCE INSURANCE_VALUES LossDataset SummaryStats describe ingest
    P_STAR ArctanGRParams GaussianParams RayleighParams agr_cdf agr_cum_hazard
    agr_hazard agr_kurtosis agr_logpdf agr_moment agr_pdf agr_quantile agr_sample
    agr_skewness agr_survival gaussian_base gaussian_cdf gaussian_logpdf
    gaussian_pdf gaussian_quantile mixture_kernel_base mixture_kernel_cdf
    mixture_kernel_logpdf mixture_kernel_pdf mixture_kernel_quantile rayleigh_base
    rayleigh_cdf rayleigh_logpdf rayleigh_pdf rayleigh_quantile
    DataError DomainError FitConvergenceError
    ComparisonTable FitResult agr_loglik compare_models fit_agr fit_gaussian
    fit_laplace fit_rayleigh information_criteria
    PlotBundle plot_bundle
    MCOracleResult RiskReport RiskRow empirical_risk empirical_risk_curve
    mc_oracle risk_curve tv tvar var
""".split()


def test_all_is_the_exported_names():
    assert sorted(arctangr.__all__) == sorted(EXPORTED)
    assert len(set(arctangr.__all__)) == len(arctangr.__all__)


@pytest.mark.parametrize("name", EXPORTED)
def test_name_resolves_to_its_submodules_object(name):
    value = getattr(arctangr, name)
    owners = [m for m in SUBMODULES
              if getattr(importlib.import_module(f"arctangr.{m}"), name, None) is value]
    assert owners
    # kept in the package's namespace: later reads skip __getattr__
    assert vars(arctangr)[name] is value


def test_dir_lists_every_export():
    assert set(dir(arctangr)) >= {*EXPORTED, "__version__"}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        arctangr.no_such_name  # noqa: B018
    assert not hasattr(arctangr, "_util_")


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from arctangr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)


# one fresh interpreter: the import, dir() and __all__ load no submodule; the
# first read of a name loads its submodule and what that imports, no more
SCRIPT = textwrap.dedent("""
    import json, sys
    import arctangr

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("arctangr."))

    steps = [loaded()]
    dir(arctangr), arctangr.__all__, arctangr.__version__
    steps.append(loaded())
    arctangr.DomainError
    steps.append(loaded())
    arctangr.describe
    steps.append(loaded())
    arctangr.risk.var
    steps.append(loaded())
    print(json.dumps(steps))
""")


def test_import_loads_no_submodule(src_env):
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [
        [],
        [],
        ["arctangr.errors"],
        ["arctangr._util", "arctangr.dataset", "arctangr.errors"],
        ["arctangr._util", "arctangr.dataset", "arctangr.errors", "arctangr.risk",
         "arctangr.tail"],
    ]


def test_functions_of_z_load_no_numpy(src_env):
    # the raw moments and shape measures are sums in Python floats (tail.py)
    script = ("import sys\nimport arctangr as A\np = A.ArctanGRParams(1.0, 2.0)\n"
              "A.agr_moment(p, 3), A.agr_skewness(p), A.agr_kurtosis(p)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
