"""The library ships no test oracles: ``src/arctangr`` imports only
``scipy.special`` from scipy, and nothing from the test-only packages."""

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
