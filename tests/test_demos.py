"""The narrative demos run to completion in process and print their story."""

import runpy
from pathlib import Path


def test_demos_run_and_print(capsys):
    demos = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
    assert len(demos) == 4
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out.strip(), demo.name
