"""Spans around the calls into each ``bnls`` layer, recorded from outside.

The tracer replaces every binding of each listed function, in every loaded
``bnls`` module (``dynamics.gamma_sum`` is also ``energy.gamma_sum``,
``evolve_array`` is also ``measures.evolve_array``, ...), with a wrapper that
records a span (layer, start, end, parent) and the layer's work counters.
The wrapper calls the original object, so the ``lru_cache`` on
``grid_triples`` stays in place.  Spans stay in memory; ``summary`` turns
them into per-layer calls, self time and counters, and ``spans`` gives them
to be written out when the run ends.

A span's self time is its duration minus the durations of its child spans.
Library code runs on one thread, so child spans nest and never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from bnls.resonance import grid_triples as _cached_tables  # unpatched, for meters


def _rows(*arrays) -> int:
    """Batch rows of arrays whose last axis holds the modes."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return int(np.prod(shape[:-1], dtype=np.int64))


def _kernel_rows(n_grid_at: int, *array_at: int):
    """Rows of a cubic-sum kernel call, also keyed by its grid half-width N."""

    def meter(args, kwargs, result):
        rows = _rows(*(args[i] for i in array_at))
        return {"rows": rows, f"rows.N{int(args[n_grid_at])}": rows, f"calls.N{int(args[n_grid_at])}": 1}

    return meter


def _evolve_meter(args, kwargs, result):
    spec, n_grid = args[0], args[4]
    return {f"steps.{spec.resolved_integrator(n_grid)}": len(result[0]) - 1}


def _evolve_tag(args, kwargs) -> str:
    return args[0].resolved_integrator(args[4])


def _sample_meter(args, kwargs, result):
    return {"draws": len(result), "attempts": result.attempts}


def _correction_meter(args, kwargs, result):
    return {"quad_rows": _rows(args[0]) * len(_cached_tables(args[3]))}


@dataclass(frozen=True)
class Layer:
    """One traced function: ``module.name``, where name may be ``Class.method``."""

    module: str
    name: str
    meter: Callable | None = None  # (args, kwargs, result) -> {counter: amount}
    tag: Callable | None = None  # (args, kwargs) -> label kept on the span

    @property
    def label(self) -> str:
        return f"{self.module.lstrip('_')}.{self.name}"


LAYERS = (
    Layer("dynamics", "conv3", _kernel_rows(3, 0, 1, 2)),
    Layer("dynamics", "gamma_sum", _kernel_rows(2, 0)),
    Layer("dynamics", "gamma_sum_linearized", _kernel_rows(3, 0, 1)),
    Layer("dynamics", "rhs_array", lambda a, k, r: {"rows": _rows(a[1])}),
    Layer("dynamics", "linearized_rhs_array", lambda a, k, r: {"rows": _rows(a[1], a[2])}),
    Layer("dynamics", "evolve_array", _evolve_meter, _evolve_tag),
    Layer("normalform", "linearized_final"),
    Layer("normalform", "duhamel_split"),
    Layer("normalform", "normal_form_terms"),
    Layer("measures", "liouville_determinants"),
    Layer("measures", "sample", _sample_meter),
    Layer("measures", "invariance_test"),
    Layer("energy", "correction_array", _correction_meter),
    Layer("resonance", "grid_triples"),
    Layer("resonance", "GridTripleTable.scatter", lambda a, k, r: {"rows": _rows(a[1])}),
    Layer("_quadrature", "collocation_osc_weights", lambda a, k, r: {"rows": int(np.size(a[0]))}),
    Layer("fields", "sobolev_norm"),
)

# Picard sweeps are counted from outside: each sweep scatters once per
# interior Filon node.
FILON_SCATTERS_PER_SWEEP = 5


def bnls_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "bnls" or name.startswith("bnls.")]


def original(layer: Layer):
    """The library's own object for a layer, looked up in its defining module."""
    owner = importlib.import_module(f"bnls.{layer.module}")
    *cls, attr = layer.name.split(".")
    if cls:
        return vars(getattr(owner, cls[0]))[attr]
    return getattr(owner, attr)


def bindings(target) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in the bnls modules that holds ``target``."""
    found = []
    for module in bnls_modules():
        for namespace in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for attr, value in list(vars(namespace).items()):
                if value is target:
                    found.append((namespace, attr))
    return list(dict.fromkeys(found))


class Tracer:
    """Patches the layers while installed; use as a context manager."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.labels = [layer.label for layer in self.layers]
        self._patched: list[tuple[object, str, object]] = []
        self.layer_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tags: dict[int, str] = {}
        self.counters: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop recorded spans and counters (in place: the wrappers hold them)."""
        for store in (self.layer_of, self.start, self.end, self.parent, self.tags, self.counters, self._stack):
            store.clear()

    def _wrap(self, index: int, layer: Layer, fn):
        layer_of, start, end, parent, stack = self.layer_of, self.start, self.end, self.parent, self._stack
        counters, tags = self.counters, self.tags
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(layer_of)
            layer_of.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            if layer.tag is not None:
                tags[span] = layer.tag(args, kwargs)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if layer.meter is not None:
                for key, amount in layer.meter(args, kwargs, result).items():
                    counters[index, key] = counters.get((index, key), 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for index, layer in enumerate(self.layers):
            fn = original(layer)
            wrapper = self._wrap(index, layer, fn)
            for namespace, attr in bindings(fn):
                self._patched.append((namespace, attr, fn))
                setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def _arrays(self):
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        return layer_of, duration, parent

    def self_times(self) -> np.ndarray:
        layer_of, duration, parent = self._arrays()
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return duration - children

    def _nearest(self, label: str) -> np.ndarray:
        """Index of each span's nearest ancestor of layer ``label`` (-1 if none)."""
        layer_of, _, parent = self._arrays()
        target = self.labels.index(label)
        anc = parent.copy()
        while True:
            pending = anc >= 0
            pending[pending] = layer_of[anc[pending]] != target
            if not pending.any():
                return anc
            anc[pending] = parent[anc[pending]]

    def _calls_under(self, label: str, scheme: str) -> int:
        """Calls of ``label`` made inside an ``evolve_array`` run by ``scheme``."""
        layer_of, _, _ = self._arrays()
        anc = self._nearest("dynamics.evolve_array")
        mine = np.flatnonzero(layer_of == self.labels.index(label))
        return sum(1 for span in mine if anc[span] >= 0 and self.tags.get(int(anc[span])) == scheme)

    def summary(self, wall_s: float, passes: int) -> dict:
        """Per-layer calls, self and total time and counters per pass, plus solver counts.

        ``wall_s`` is the traced time the spans were recorded in; what no
        root span covers of it is reported as unattributed.
        """
        layer_of, duration, parent = self._arrays()
        calls = np.bincount(layer_of, minlength=len(self.layers))
        self_s = np.bincount(layer_of, weights=self.self_times(), minlength=len(self.layers))
        total_s = np.bincount(layer_of, weights=duration, minlength=len(self.layers))
        layers = {}
        for index, label in enumerate(self.labels):
            entry = {
                "calls": int(calls[index]) / passes,
                "self_s": float(self_s[index]) / passes,
                "total_s": float(total_s[index]) / passes,
            }
            for (owner, key), amount in sorted(self.counters.items()):
                if owner == index:
                    entry[key] = amount / passes
            if "rows" in entry:
                entry["rows"] = entry["rows"] / entry["calls"]
            for key in [k for k in entry if k.startswith("rows.N")]:
                entry[key] = entry[key] / entry[f"calls.N{key[len('rows.N'):]}"]
            layers[label] = entry

        def per_step(label: str, scheme: str, per: float) -> float:
            steps = layers["dynamics.evolve_array"].get(f"steps.{scheme}", 0.0) * passes
            return self._calls_under(label, scheme) / per / steps if steps else 0.0

        return {
            "layers": layers,
            "gauss_vf_evals_per_step": per_step("dynamics.gamma_sum", "gauss", 1),
            "filon_picard_sweeps_per_step": per_step(
                "resonance.GridTripleTable.scatter", "filon", FILON_SCATTERS_PER_SWEEP
            ),
            "unattributed_s": (wall_s - float(duration[parent < 0].sum())) / passes,
            "spans": len(layer_of),
        }

    def spans(self) -> dict:
        return {
            "layers": self.labels,
            "columns": ["layer", "start", "end", "parent"],
            "rows": [list(row) for row in zip(self.layer_of, self.start, self.end, self.parent)],
        }
