"""Span tracer for the benchmark's traced runs, bound from outside the program.

Each named layer callable of the ``rspde`` modules is replaced by a wrapper
that records one span per call: name, start, end, parent span, thread, and
a work count (streams, columns, values, path-steps).  Module-level functions
are rebound by object identity in every ``rspde.*`` namespace, because
``from .x import y`` and the package re-exports give one function several
names; methods are rebound on their class.  A named callable that cannot be
found raises ``LayerBindingError``, so a refactor that renames or removes a
layer fails the traced run instead of silently losing its span.

Spans are kept in memory; ``collect()`` hands them over and starts a new
list.  Self time is a span's duration minus that of its children, which are
always on the same thread (the parent comes from a per-thread stack).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "rspde"
MODULES = ("grid_noise", "heat", "coefficients", "solver", "semigroup", "verify", "config", "cli")


class LayerBindingError(LookupError):
    """A named layer callable does not exist where the tracer expects it."""


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _streams(args, kwargs, result):
    return result.shape[1]


def _columns(args, kwargs, result):
    return result.size // result.shape[0]


def _values(args, kwargs, result):
    return int(np.size(result))


def _no_work(args, kwargs, result):
    return 0


def _path_steps(args, kwargs, result):
    """run_ensemble(h_variants, n_run_steps, ...): variants x streams x steps."""
    fields = result[0] if isinstance(result, tuple) else result
    n_variants, _, n_paths = fields.shape
    n_run_steps = kwargs["n_run_steps"] if "n_run_steps" in kwargs else args[1]
    return n_variants * n_paths * n_run_steps


def _check_names():
    verify = importlib.import_module(f"{PACKAGE}.verify")
    return tuple(name for name in verify.__all__ if name.startswith("check_"))


def layer_targets():
    """(span name, home module, attribute path, work counter) per layer callable."""
    targets = [
        ("grid_noise.increments", "grid_noise", "increments_matrix", _streams),
        ("grid_noise.sample_increments", "grid_noise", "sample_increments", _no_work),
        ("heat.solve", "heat", "ImplicitHeatSolver.solve", _columns),
        ("solver.resolvent", "solver", "penalty_resolvent", _values),
        ("solver.ledger", "solver", "ReflectionLedger.record", _no_work),
        ("solver.solve_path", "solver", "solve_path", _no_work),
        ("semigroup.run_ensemble", "semigroup", "run_ensemble", _path_steps),
        ("cli.simulate", "cli", "cmd_simulate", _no_work),
    ]
    for method in ("pair", "value", "grad_norm", "grad_sq"):
        targets.append(("semigroup.functional", "semigroup", f"Functional.{method}", _no_work))
    for name in _check_names():
        targets.append(("verify.check", "verify", name, _no_work))
    return targets


class Tracer:
    """Installs span wrappers on the rspde layers; ``uninstall`` restores them."""

    def __init__(self):
        self._targets = layer_targets()
        self._ids = itertools.count()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}

    # -- binding ------------------------------------------------------------

    def install(self) -> "Tracer":
        for module in MODULES:
            importlib.import_module(f"{PACKAGE}.{module}")
        namespaces = {name: mod for name, mod in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")}
        try:
            for span_name, module, path, counter in self._targets:
                self._bind(namespaces, module, path,
                           functools.partial(self.wrap, span_name, counter=counter))
            self._bind(namespaces, "coefficients", "model_from_config", self._model_wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.bindings.clear()

    def _bind(self, namespaces, module, path, make_wrapper):
        home = namespaces.get(f"{PACKAGE}.{module}")
        owner_path, _, attr = path.rpartition(".")
        owner = home
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            raise LayerBindingError(f"layer callable {PACKAGE}.{module}.{path} not found")
        original = vars(owner)[attr]
        wrapped = make_wrapper(original)
        where = []
        if owner_path:
            self._set(owner, attr, wrapped)
            where.append(f"{owner.__module__}.{path}")
        else:
            for ns_name, ns in namespaces.items():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapped)
                        where.append(f"{ns_name}.{key}")
        self.bindings[f"{module}.{path}"] = where

    def _model_wrapper(self, original):
        """Models built through model_from_config come back with b and sigma
        traced, via dataclasses.replace."""
        @functools.wraps(original)
        def model_from_config(*args, **kwargs):
            model = original(*args, **kwargs)
            return dataclasses.replace(
                model,
                b=self.wrap("coefficients.b_sigma", model.b, _values),
                sigma=self.wrap("coefficients.b_sigma", model.sigma, _values),
            )
        return model_from_config

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=_no_work):
        """fn, recording one span per call; ``counter`` gives its work count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            work = counter(args, kwargs, result)
            self._spans.append(Span(span_id, name, start, end, parent,
                                    threading.get_ident(), work))
            return result
        return traced

    def collect(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


# ---------------------------------------------------------------------------
# per-layer aggregates
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.id: s.seconds - child[s.id] for s in spans}


def aggregate(spans) -> dict[str, dict]:
    """calls, summed work and summed self seconds per span name."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "work": 0, "self_s": 0.0})
    for s in spans:
        agg = out[s.name]
        agg["calls"] += 1
        agg["work"] += s.work
        agg["self_s"] += selfs[s.id]
    return dict(out)


def work_counts(spans) -> dict[str, tuple[int, int]]:
    """(calls, work) per span name: the counts that must repeat exactly."""
    return {name: (a["calls"], a["work"]) for name, a in sorted(aggregate(spans).items())}


def pool_busy_fraction(spans) -> float:
    """Share of worker capacity spent inside traced layer calls during passes.

    For each run_ensemble pass, the threads doing its work are the caller
    (its direct child spans) and any other thread with root spans inside the
    pass interval; capacity is thread count x pass duration.
    """
    passes = [s for s in spans if s.name == "semigroup.run_ensemble"]
    busy_total = capacity = 0.0
    for p in passes:
        busy = defaultdict(float)
        for s in spans:
            if s.start < p.start or s.end > p.end or s is p:
                continue
            if s.thread == p.thread and s.parent == p.id:
                busy[s.thread] += s.seconds
            elif s.thread != p.thread and s.parent is None:
                busy[s.thread] += s.seconds
        busy_total += sum(busy.values())
        capacity += max(len(busy), 1) * p.seconds
    return busy_total / capacity if capacity > 0 else 0.0
