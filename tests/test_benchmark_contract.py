"""The benchmark's tracer (perfbench/tracer.py) names chemofluid functions;
a refactor that drops or renames one silently removes a traced layer."""

import importlib.util
import pathlib
import sys

import numpy as np

import chemofluid  # noqa: F401  (the tracer looks its layer modules up in sys.modules)
from chemofluid.fluid import PoissonSolver
from chemofluid.grid import make_grid

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        absent = list(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == []


def test_poisson_solver_reports_zero_iterations():
    solver = PoissonSolver(make_grid(2, (1.0, 1.0), (8, 8)))
    assert solver.last_iterations == 0
    solver.solve(np.random.default_rng(0).standard_normal((8, 8)))
    assert solver.last_iterations == 0
