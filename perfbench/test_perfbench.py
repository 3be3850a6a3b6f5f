"""Tests of the benchmark's own machinery: tracer binding and traced counts.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q``.
The workloads run here at a few paths each; the counts they produce are
compared across traced runs, across RSPDE_THREADS and with closed forms.
"""

import importlib
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, PACKAGE, LayerBindingError, Tracer, layer_targets, work_counts  # noqa: E402
from worker import Recorder, trace_rounds  # noqa: E402


def _namespaces():
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]


def _originals():
    out = {}
    for _, module, path, _ in layer_targets():
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        out[f"{module}.{path}"] = owner
    return out


def test_tracer_rebinds_every_alias_by_identity():
    originals = _originals()
    installed = Tracer().install()
    try:
        assert sorted(installed.bindings["grid_noise.increments_matrix"]) == [
            "rspde.grid_noise.increments_matrix", "rspde.semigroup.increments_matrix",
            "rspde.verify.increments_matrix"]
        assert sorted(installed.bindings["solver.penalty_resolvent"]) == [
            "rspde.semigroup.penalty_resolvent", "rspde.solver.penalty_resolvent",
            "rspde.verify.penalty_resolvent"]
        assert sorted(installed.bindings["solver.solve_path"]) == [
            "rspde.cli.solve_path", "rspde.solve_path", "rspde.solver.solve_path"]
        for key, where in installed.bindings.items():
            assert where, f"{key} has no binding"
        current = _originals()
        assert [k for k in originals if current[k] is originals[k]] == []
        stale = [f"{ns.__name__}.{attr}" for ns in _namespaces()
                 for attr, value in vars(ns).items()
                 if any(value is orig for orig in originals.values())]
        assert stale == []
    finally:
        installed.uninstall()
    assert _originals() == originals


@pytest.mark.parametrize("path", ["no_such_layer", "ImplicitHeatSolver.no_such_method"])
def test_missing_layer_callable_fails_loudly(path, monkeypatch):
    originals = _originals()
    targets = layer_targets() + [("missing", "heat", path, None)]
    monkeypatch.setattr(tracer, "layer_targets", lambda: targets)
    with pytest.raises(LayerBindingError, match=path):
        Tracer().install()
    assert _originals() == originals


def _closed_forms(name, n):
    """Counts per round at this commit: {span name: (calls, work)}."""
    chunks = math.ceil(n / 256)
    nodes = 63
    if name == "harnack_v1":
        steps = 2 * (40 + 100 + 100)  # two V=1 passes per check
        return {"verify.check": (3, 0), "semigroup.run_ensemble": (6, steps * n),
                "grid_noise.increments": (steps * chunks, steps * n),
                "heat.solve": (steps * chunks, steps * n),
                "coefficients.b_sigma": (2 * steps * chunks, 2 * nodes * steps * n)}
    if name == "gradient_v16":
        variant_steps = (16 + 1 + 16 + 1) * 100  # grad pass + one V=1 pass per check
        return {"verify.check": (2, 0), "semigroup.run_ensemble": (4, variant_steps * n),
                "grid_noise.increments": (400 * chunks, 400 * n),
                "heat.solve": (400 * chunks, variant_steps * n),
                "coefficients.b_sigma": (2 * 400 * chunks, 2 * nodes * variant_steps * n)}
    if name == "penalized_ladder":
        steps = 500  # converge-eps: 3 eps + reflected; comparison: 2 eps
        return {"verify.check": (2, 0), "grid_noise.increments": (2 * steps, 2 * steps * n),
                "heat.solve": (3 * steps, 6 * steps * n),
                "coefficients.b_sigma": (6 * steps, 12 * nodes * steps * n),
                "solver.resolvent": (5 * steps, 5 * nodes * steps * n),
                "solver.ledger": (steps, 0)}
    steps = 100  # simulate: one stream at a time
    return {"cli.simulate": (1, 0), "solver.solve_path": (n, 0),
            "grid_noise.sample_increments": (steps * n, 0),
            "grid_noise.increments": (steps * n, steps * n),
            "heat.solve": (steps * n, steps * n),
            "coefficients.b_sigma": (2 * steps * n, 2 * nodes * steps * n),
            "solver.ledger": (steps * n, 0)}


SMALL = {"harnack_v1": 257, "gradient_v16": 8, "penalized_ladder": 2, "simulate_paths": 2}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_and_match_closed_forms(name, tmp_path):
    workload = workloads.build(name, str(tmp_path), SMALL[name])
    rec = Recorder()
    first = trace_rounds(rec, workload, 7, (2, 1))
    second = trace_rounds(rec, workload, 7, (2,))
    assert rec.failed == 0
    counts = {threads: work_counts(spans) for threads, (spans, _, _) in first.items()}
    assert counts[2] == counts[1]
    assert work_counts(second[2][0]) == counts[2]
    for span_name, expected in _closed_forms(name, SMALL[name]).items():
        assert counts[1].get(span_name) == expected, span_name
    if name == "harnack_v1":
        assert counts[1]["semigroup.run_ensemble"][1] == counts[1]["grid_noise.increments"][1]
