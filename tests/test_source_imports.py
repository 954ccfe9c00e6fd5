"""The library ships no test oracles: ``src/arctangr`` imports only
``scipy.special`` from scipy, and nothing from the test-only packages.  The
distribution kernels stay branch-free: no ``np.where`` call anywhere; and
they have one way to pick a side, by float arithmetic: ``distributions.py``
blends no integer bits, and views floats as int64 only in ``_minus_abs``.  A
sample is brought to its unit scale in one place: ``math.frexp`` only in
``_util.unit_exponent`` (and in ``risk.mc_oracle``, for its parameters).
Every sample quantile is ``dataset._linear_quantile``: no numpy quantile.  And
the standard tail series has one home, ``tail.py``: no other module defines,
imports or rebinds its terms, its sums or ``E[Z^k]``, and ``distributions.py``
defines no float-only function of ``Z``.
The modules of the commands import no numpy or scipy when they are loaded,
and no module imports ``dataclasses``.  The fits read one copy of a sample,
the sorted one: ``fit.py`` reads no ``values`` or ``array`` of a dataset.  The
bulk ops have one walk: only ``_arrays`` starts threads or splits a stream;
and the public array functions one checked walk, ``_arrays.elementwise``:
outside ``_arrays`` only ``_on_p`` and ``arctan_cdf`` call ``match_input``,
and only they and ``agr_sample`` call ``blockwise``.
The location-scale kernels have one standardization: in ``distributions.py``
only ``_z`` subtracts a location, and only ``_arrays`` names the scalar types."""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_where_calls(path):
    # the distribution kernels pick each side by exact float arithmetic
    # (distributions._above), on arrays of every length; np.where on a mask of
    # random signs mispredicts a branch per element
    assert calls_in_functions(path.read_text(encoding="utf-8"), "where") == []


def int_steps(source):
    """``(kind, enclosing function, line)`` of every integer step on float
    bits in ``source``: a name ``bitwise_xor`` or ``bitwise_and`` (``kind``
    is the name), an ``^`` or ``&`` operator (``"op"``), and a
    ``.view(<...>.int64)`` call (``"view"``)."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("bitwise_xor", "bitwise_and"):
                yield child.attr, func, child.lineno
            elif (isinstance(child, (ast.BinOp, ast.AugAssign))
                  and isinstance(child.op, (ast.BitXor, ast.BitAnd))):
                yield "op", func, child.lineno
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "view"
                  and any(isinstance(a, ast.Attribute) and a.attr == "int64" for a in child.args)):
                yield "view", func, child.lineno
            yield from visit(child, func)

    return list(visit(ast.parse(source), None))


def test_int_steps_found():
    source = "def blend(a, b, k):\n    r = np.bitwise_xor(a.view(np.int64), b)\n" \
             "    r &= k\n    return np.bitwise_and(r, k) ^ b\n"
    assert sorted(int_steps(source)) == [
        ("bitwise_and", "blend", 4), ("bitwise_xor", "blend", 2), ("op", "blend", 3),
        ("op", "blend", 4), ("view", "blend", 2)]


def test_one_side_rule():
    # every two-sided kernel picks its side by exact float arithmetic on
    # _above's 1.0 or 0.0; the one int64 view left sets a sign bit (-|z|)
    path = Path(arctangr.__file__).resolve().parent / "distributions.py"
    assert [(kind, func) for kind, func, _ in int_steps(path.read_text(encoding="utf-8"))] == [
        ("view", "_minus_abs")]


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


def test_one_bulk_walk():
    # every bulk op cuts, draws and threads its blocks through _arrays.walk:
    # no other module starts a thread or jumps a generator ahead.  The Monte
    # Carlo sums once split their rounds, and their streams, by a walk of
    # their own
    for path in SOURCES:
        if path.name == "_arrays.py":
            continue
        source = path.read_text(encoding="utf-8")
        assert not [n for n in imported_modules(path)
                    if within(n, "threading") or within(n, "contextvars")], path.name
        assert "substreams" not in names_from(source, "_arrays"), path.name
        assert calls_in_functions(source, "substreams", ("_arrays",)) == [], path.name


def callers(source, name):
    """The enclosing function (``None`` at module level) of every call of
    ``name`` in ``source``, bare (``name(...)``) or as an attribute
    (``_arrays.name(...)``)."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == name
                        or isinstance(f, ast.Attribute) and f.attr == name):
                    yield func
            yield from visit(child, func)

    return set(visit(ast.parse(source), None))


def test_callers_found():
    source = ("def f(x):\n    return match_input(x, blockwise(g, x))\n"
              "def h(x):\n    def k(v):\n        return _arrays.blockwise(g, v)\n"
              "    return k(x)\nmatch_input(1, 2)\ny = blockwise\n")
    assert callers(source, "match_input") == {"f", None}
    assert callers(source, "blockwise") == {"f", "k"}


def test_one_checked_walk():
    # every public array function takes its input through _arrays.elementwise,
    # which checks it once, walks it in blocks and gives a number back a
    # float; only the quantiles' _on_p (probabilities), arctan_cdf (its check
    # inside its blocks) and agr_sample (its seeded draw) walk by hand.  The
    # Rayleigh functions once evaluated their input whole, at 2 to 8 times the
    # output's size
    found = {"match_input": set(), "blockwise": set()}
    for path in SOURCES:
        if path.name != "_arrays.py":
            source = path.read_text(encoding="utf-8")
            for name, funcs in found.items():
                funcs.update((path.name, f) for f in callers(source, name))
    walks = {("distributions.py", "_on_p"), ("arctanx.py", "arctan_cdf")}
    assert found["match_input"] == walks
    assert found["blockwise"] == walks | {("distributions.py", "agr_sample")}


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


#: The float functions of ``Z`` that ``distributions.py`` re-exports from
#: ``tail.py``; no other module defines them.
Z_FUNCTIONS = {"agr_moment", "agr_skewness", "agr_kurtosis"}

#: What the other modules read from ``tail.py``: the parameters of the models,
#: the branch level, the quantile's constants, the per-grid tail and its cache
#: size, the remainder bound that a report names, and the functions of ``Z``.
TAIL_EXPORTS = {"ArctanGRParams", "GaussianParams", "RayleighParams", "P_STAR", "FOUR_OVER_PI",
                "_PI_OVER_4", "_CACHED_LEVELS", "_standard_tail", "_tail_moments",
                "REMAINDER_BOUND", *Z_FUNCTIONS}


def test_one_home_for_the_tail_series():
    # the series' terms, their counts and sums are private to tail.py; a
    # module that copied them (as distributions.py once rebound the 60-term
    # tables to arrays) would bind one of those names or an _UPPER_/_LOWER_ one
    tail = ast.parse(next(p for p in SOURCES if p.name == "tail.py").read_text(encoding="utf-8"))
    series = {node.name for node in tail.body if isinstance(node, ast.FunctionDef)}
    series.update(t.id for node in tail.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name))
    assert {"_upper_terms", "_LOWER_TERMS", "_lower_sums", "_z_moment", "_binomial_row",
            "_shape_measures"} <= series
    series -= TAIL_EXPORTS - Z_FUNCTIONS
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


def attribute_reads(source, attrs):
    """``(attr, line)`` of every attribute named in ``attrs`` that ``source``
    reads as a value, in line order; a method call (``d.values()``) is no read."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(((node.attr, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in attrs
                   and id(node) not in called), key=lambda read: read[1])


def test_attribute_reads_found():
    source = "x = data.values\ny = d.values()\nz = data.array[0]\n"
    assert attribute_reads(source, {"values", "array"}) == [("values", 1), ("array", 3)]


def test_fits_read_only_the_sorted_sample():
    # every fit reads one copy of its sample, the dataset's sorted one, so no
    # fit depends on the order of the rows.  The fits once summed the rows in
    # their given order and searched the sorted copy, and a shuffle of a
    # sample above FLOAT_FIT_MAX points moved them by an ulp
    import numpy as np

    fit = next(p for p in SOURCES if p.name == "fit.py").read_text(encoding="utf-8")
    assert attribute_reads(fit, {"values", "array"}) == []
    data = arctangr.LossDataset(values=np.array([2.0, 1.0]), source="array", name="s")
    assert not hasattr(arctangr.LossDataset, "array") and not hasattr(data, "array")


def reads_location(node):
    """Whether ``node`` reads a name or an attribute ``omega``."""
    return any(isinstance(n, ast.Name) and n.id == "omega"
               or isinstance(n, ast.Attribute) and n.attr == "omega" for n in ast.walk(node))


def location_subtractions(source):
    """The enclosing function (``None`` at module level) of every subtraction
    of a location in ``source``: a ``-`` or ``-=`` whose right operand reads
    ``omega``, or a ``subtract`` call that passes it after its first argument."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Sub):
                if reads_location(child.right if isinstance(child, ast.BinOp) else child.value):
                    yield func
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "subtract"
                    and any(map(reads_location, child.args[1:]))):
                yield func
            yield from visit(child, func)

    return list(visit(ast.parse(source), None))


def test_location_subtractions_found():
    source = ("def f(p, x):\n    return (x - p.omega) / p.psi\n"
              "def g(omega, v):\n    z = v\n    z -= omega * 0.5\n    return omega - v\n"
              "def h(p, x):\n    return np.subtract(x, p.omega)\n"
              "y = np.subtract(omega, 1.0) + (x + omega)\n")
    assert location_subtractions(source) == ["f", "g", "h"]


def names_read(source):
    """Every name, attribute and imported name in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
    return found


def test_one_standardization():
    # every location-scale kernel forms z = (x - omega) / scale in
    # distributions._z, so a fix to it (such as the one for x - omega
    # overflowing) is made once; the Gaussian functions once formed it
    # themselves, each its own way.  Which numbers are read as one is told
    # in _arrays alone
    source = next(p for p in SOURCES if p.name == "distributions.py").read_text(encoding="utf-8")
    assert set(location_subtractions(source)) == {"_z"}
    for path in SOURCES:
        if path.name != "_arrays.py":
            assert "SCALARS" not in names_read(path.read_text(encoding="utf-8")), path.name
