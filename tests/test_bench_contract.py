"""The layers that the benchmark's tracer wraps are still there and still
counted.

``perfbench/tracing.py`` reports a function it cannot find as absent and
reads its counters with ``getattr`` defaults, so a refactor that renames a
layer, the grid's ``n_points`` or the Bland flag's position in
``simplex._choose_entering`` would make the traced counts read 0 without
any error.  The tracer is loaded from its file, the copy the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fockroof import cli, count_grid_points, roof, simplex

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install({"fockroof.cli": cli, "fockroof.roof": roof, "fockroof.simplex": simplex})
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_layer_is_present_and_counted(tracer, capsys):
    assert tracer.absent == []
    assert cli.main(["eval", "--p", "0.6,0.2,0.2", "--delta", "0.05"]) == cli.EXIT_OK
    capsys.readouterr()
    assert tracer.counters["grid.build_grid.columns"] == count_grid_points(3, 0.05)
    assert tracer.counters["simplex.solve.pivots"] > 0


def test_bland_pricings_are_counted(tracer, capsys, monkeypatch):
    monkeypatch.setattr(simplex, "_BLAND_AFTER_STALLS", 1)
    assert cli.main(["eval", "--p", "0.4,0.5,0,0.1", "--delta", "0.05"]) == cli.EXIT_OK
    capsys.readouterr()
    assert tracer.counters["simplex.bland_pricings"] > 0
