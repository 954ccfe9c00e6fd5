"""The library ships no test oracles: ``src/arctangr`` imports only
``scipy.special`` from scipy, and nothing from the test-only packages.  The
distribution kernels stay branch-free: ``np.where`` only in ``_select``.  A
sample is brought to its unit scale in one place: ``math.frexp`` only in
``_util.unit_exponent`` (and in ``risk.mc_oracle``, for its parameters).
Every sample quantile is ``dataset._linear_quantile``: no numpy quantile.  And
the standard tail series has one home, ``tail.py``: no other module defines,
imports or rebinds its terms, its sums or ``E[Z^k]``.
The modules of the commands import no numpy or scipy when they are loaded,
and no module imports ``dataclasses``."""

import ast
from pathlib import Path

import pytest

import arctangr

SOURCES = sorted(Path(arctangr.__file__).resolve().parent.glob("*.py"))
FORBIDDEN = ("scipy.integrate", "scipy.optimize", "pytest", "hypothesis", "mpmath")


def imported_modules(path):
    """Every module an ``import`` or an absolute ``from ... import`` names;
    ``from package import name`` counts as ``package.name``, since the name
    may be a submodule (``from scipy import integrate``)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def within(name, package):
    return name == package or name.startswith(package + ".")


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "distributions.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_oracle_imports(path):
    names = set(imported_modules(path))
    assert not {n for n in names if any(within(n, f) for f in FORBIDDEN)}
    assert not {n for n in names if within(n, "scipy") and not within(n, "scipy.special")}


def calls_in_functions(source, attr, modules=("np", "numpy")):
    """``(enclosing function, line)`` of every ``<module>.<attr>(...)`` call in
    ``source``, the module named as one of ``modules`` (function ``None`` at
    module level)."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr and isinstance(child.func.value, ast.Name)
                    and child.func.value.id in modules):
                yield func, child.lineno
            yield from visit(child, func)

    return list(visit(ast.parse(source), None))


def test_where_calls_found():
    source = "def _select(m, a, b):\n    return np.where(m, a, b)\n" \
             "def k(z):\n    def inner(v):\n        return numpy.where(v > 0, v, 0)\n" \
             "    return inner(z) + np.abs(z)\n"
    assert calls_in_functions(source, "where") == [("_select", 2), ("inner", 5)]


def test_where_only_in_select():
    # the distribution kernels select by bit masks (distributions._select);
    # np.where on a mask of random signs mispredicts a branch per element
    path = next(p for p in SOURCES if p.name == "distributions.py")
    calls = calls_in_functions(path.read_text(encoding="utf-8"), "where")
    assert {f for f, _ in calls} <= {"_select"}


def numpy_calls(source, names):
    """``(name, line)`` of every ``np.<name>(...)`` call in ``source``."""
    return [(node.func.attr, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


QUANTILES = ("quantile", "percentile", "median")


def test_numpy_calls_found():
    source = "a = np.quantile(x, 0.5)\nb = numpy.median(x) + np.percentile(x, 5)\nc = x.median()\n"
    assert sorted(numpy_calls(source, QUANTILES)) == [
        ("median", 2), ("percentile", 2), ("quantile", 1)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_quantiles(path):
    # np.quantile and its kin import numpy.ma; _linear_quantile gives their bits
    assert numpy_calls(path.read_text(encoding="utf-8"), QUANTILES) == []


def module_level_imports(source):
    """Every module that ``source`` imports when it is itself imported: its
    ``import`` and absolute ``from ... import`` statements outside function
    bodies (class bodies and ``if``/``try`` blocks run at import, so count)."""
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                yield from (alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                yield child.module
            yield from visit(child)

    return list(visit(ast.parse(source)))


def test_module_level_imports_found():
    source = ("import numpy as np\nfrom scipy.special import ndtr\nfrom . import tail\n"
              "try:\n    import json\nexcept ImportError:\n    pass\n"
              "class A:\n    import csv\n"
              "def f():\n    import numpy\n    from scipy import optimize\n")
    assert module_level_imports(source) == ["numpy", "scipy.special", "json", "csv"]


# the modules that every command but risk --mc-samples loads on samples of at
# most fit.FLOAT_FIT_MAX points: they import numpy and scipy only inside the
# functions that need them
COLD_PATH = ("cli.py", "dataset.py", "_util.py", "errors.py", "tail.py", "risk.py", "fit.py",
             "plotdata.py")


@pytest.mark.parametrize("name", COLD_PATH)
def test_cold_path_modules_import_no_numpy(name):
    path = next(p for p in SOURCES if p.name == name)
    names = module_level_imports(path.read_text(encoding="utf-8"))
    assert not [n for n in names if within(n, "numpy") or within(n, "scipy")]



@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # the records are plain classes (_util.Record): dataclasses loads inspect
    # and builds each class's methods by exec, ~7-9 ms and ~1 ms a class
    assert not [n for n in imported_modules(path) if within(n, "dataclasses")]


def test_frexp_calls_found():
    source = "def f(x):\n    return math.frexp(x)[1]\nt = math.frexp(2.0)\n" \
             "def g(y):\n    return np.frexp(y)\n"
    assert calls_in_functions(source, "frexp", ("math",)) == [("f", 2), (None, 3)]


def test_one_unit_scale_rule():
    # a sample's scale is chosen in one place, _util.unit_exponent; the Monte
    # Carlo oracle scales its parameters, not a sample.  A new local scaling
    # has to show up here
    found = {(p.name, f) for p in SOURCES
             for f, _ in calls_in_functions(p.read_text(encoding="utf-8"), "frexp", ("math",))}
    assert found == {("_util.py", "unit_exponent"), ("risk.py", "mc_oracle")}


def bound_names(source):
    """Every name that ``source`` binds by a ``def``, a ``class`` or an
    assignment, at any depth (imports are not counted)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def names_from(source, module):
    """The names that ``source`` imports by ``from .<module> import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


def test_bound_and_imported_names_found():
    source = ("from .tail import P_STAR, _z_moment\n_A, _B = map(f, (1, 2))\n"
              "def g(x):\n    for y in x:\n        z = y\n    return z\n")
    assert bound_names(source) == {"_A", "_B", "g", "y", "z"}
    assert names_from(source, "tail") == {"P_STAR", "_z_moment"}


#: What the other modules read from ``tail.py``: the parameters of the models,
#: the branch level, the quantile's constants, the per-grid tail and its cache
#: size, ``E[Z^k]`` and the remainder bound that a report names.
TAIL_EXPORTS = {"ArctanGRParams", "GaussianParams", "RayleighParams", "P_STAR", "FOUR_OVER_PI",
                "_PI_OVER_4", "_CACHED_LEVELS", "_standard_tail", "_tail_moments",
                "_z_moment", "REMAINDER_BOUND"}


def test_one_home_for_the_tail_series():
    # the series' terms, their counts and sums are private to tail.py; a
    # module that copied them (as distributions.py once rebound the 60-term
    # tables to arrays) would bind one of those names or an _UPPER_/_LOWER_ one
    tail = ast.parse(next(p for p in SOURCES if p.name == "tail.py").read_text(encoding="utf-8"))
    series = {node.name for node in tail.body if isinstance(node, ast.FunctionDef)}
    series.update(t.id for node in tail.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name))
    assert {"_upper_terms", "_LOWER_TERMS", "_lower_sums", "_z_moment"} <= series
    series -= TAIL_EXPORTS - {"_z_moment"}
    for path in SOURCES:
        if path.name == "tail.py":
            continue
        source = path.read_text(encoding="utf-8")
        assert names_from(source, "tail") <= TAIL_EXPORTS, path.name
        bound = bound_names(source)
        assert not bound & series, path.name
        assert not [n for n in bound if n.startswith(("_UPPER_", "_LOWER_"))], path.name


#: The profile's derivative sums that a score pass exposes.
PASS_SUMS = {"l1", "zl1", "l2", "zl2", "z2l2", "l11", "zl11", "z2l11"}


def bindings(source):
    """``(scope, name, line)`` of every ``def``, ``class``, and name or
    attribute assigned in ``source``, the scope dotted from its enclosing
    classes and functions."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield scope, child.name, child.lineno
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Store):
                yield scope, child.id if isinstance(child, ast.Name) else child.attr, child.lineno
            yield from visit(child, scope)

    return list(visit(ast.parse(source), ""))


def test_bindings_found():
    source = ("l1 = 0\nclass P:\n    def __init__(self, s):\n        self.zl1 = s\n"
              "        for self.l2, k in s:\n            pass\n    def l11(self):\n"
              "        return 1\n")
    assert bindings(source) == [("", "l1", 1), ("", "P", 2), ("P", "__init__", 3),
                                ("P.__init__", "zl1", 4), ("P.__init__", "l2", 5),
                                ("P.__init__", "k", 5), ("P", "l11", 7)]


def test_one_home_for_the_score_pass_formulas():
    # each path of the fit takes only the raw sums of a score pass; the eight
    # derivative sums are defined once, in fit._ScorePass, which both use.
    # The numpy pass once wrote them again, as lazy properties of a workspace
    # that the next pass overwrote
    found = [(p.name, scope, name) for p in SOURCES
             for scope, name, _ in bindings(p.read_text(encoding="utf-8"))
             if name in PASS_SUMS]
    assert sorted(found) == sorted(("fit.py", "_ScorePass.__init__", n) for n in PASS_SUMS)
    arrays = next(p for p in SOURCES if p.name == "_fit_arrays.py")
    assert "functools" not in {n.split(".")[0] for n in imported_modules(arrays)}
    assert "cached_property" not in arrays.read_text(encoding="utf-8")
