import os
from pathlib import Path

import pytest

import arctangr
from arctangr import ArctanGRParams, _arrays, ingest


@pytest.fixture(scope="session")
def src_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``,
    for tests that run the package in a new ``python`` process."""
    env = dict(os.environ)
    src = str(Path(arctangr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def insurance():
    return ingest("embedded:insurance")


@pytest.fixture(scope="session")
def unit_params():
    return ArctanGRParams(omega=0.0, psi=1.0)


@pytest.fixture(scope="session")
def table_params():
    # the location/scale pair used for the published risk grid
    return ArctanGRParams(omega=0.02, psi=0.005)


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(k)`` sets the CPU count that bulk calls split by to ``k``."""
    return lambda k: monkeypatch.setattr(_arrays, "cpus", lambda: k)
