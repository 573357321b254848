"""Smoke test: the demos run in-process against the current API.

Demo 04 is left out: its three-horizon sweep takes seconds, where the
others together take a fraction of one.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_compressor_gallery.py", "02_graph_spectra.py",
                                  "03_one_bit_run.py", "05_linear_convergence.py",
                                  "06_lyapunov_diagnostics.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
