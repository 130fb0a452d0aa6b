"""Every script under ``demos/`` runs to the end against the library."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
