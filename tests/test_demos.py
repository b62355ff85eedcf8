"""Smoke tests: the demos run to the end.  Demo 05 is the full suite,
which tests/test_acceptance.py already runs."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_branch_arithmetic", "02_log_functions_and_regions",
                                  "03_monodromy_loops", "04_exchange_and_contragredient"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
