"""Every demo script runs to its end and prints its narrative."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "compound_algebra_tour",
    "epidemic_model_analysis",
    "limit_cycles_and_control",
    "ltv_second_order_contraction",
    "volume_decay_certificates",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
