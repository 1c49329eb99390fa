"""Smoke test: the demos run to completion against the current API.

Demo 02 is left out: it runs the full (n <= 4, m <= 3) fuzz grid for
about 40 s, and acceptance criterion 02 checks the same cells.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_degree_growth.py",
    "03_commutator_towers.py",
    "04_flows_and_exponentials.py",
    "05_lie_closure.py",
    "06_order_two_counterexample.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
