"""Tests of the benchmark itself: patching, counts, checks and seeds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bnls  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bnls import dynamics, energy, measures, normalform, resonance  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return replace(w, sizes=w.tiny)


def one_pass(w: workloads.Workload, seed: int = 3):
    inputs = w.make_inputs(seed, w.sizes)
    outputs = w.run(inputs, w.sizes)
    return w.check(inputs, outputs, w.sizes)


def test_every_binding_is_patched_and_restored():
    originals = {layer.label: tracing.original(layer) for layer in tracing.LAYERS}
    aliases = {
        "dynamics.gamma_sum": [(energy, "gamma_sum")],
        "dynamics.evolve_array": [(measures, "evolve_array"), (dynamics, "evolve_array")],
        "normalform.linearized_final": [(measures, "linearized_final")],
        "energy.correction_array": [(measures, "correction_array")],
        "resonance.grid_triples": [(energy, "grid_triples"), (measures, "grid_triples"), (normalform, "grid_triples")],
        "measures.sample": [(bnls, "sample")],
        "fields.sobolev_norm": [(bnls, "sobolev_norm"), (energy, "sobolev_norm"), (normalform, "sobolev_norm")],
        "normalform.duhamel_split": [(bnls, "duhamel_split")],
    }
    bound = {label: tracing.bindings(fn) for label, fn in originals.items()}
    for label, places in aliases.items():
        for place in places:
            assert place in bound[label], (label, place)
    with tracing.Tracer() as tracer:
        for label, fn in originals.items():
            assert tracing.bindings(fn) == [], f"{label} still bound unpatched"
            for namespace, attr in bound[label]:
                assert getattr(namespace, attr).__wrapped__ is fn
        assert tracer.labels == list(originals)
    for label, fn in originals.items():
        assert tracing.bindings(fn) == bound[label]


def test_grid_triples_cache_stays_in_place():
    cached = resonance.grid_triples
    resonance.grid_triples(3)
    hits = cached.cache_info().hits
    with tracing.Tracer():
        assert resonance.grid_triples.__wrapped__ is cached
        resonance.grid_triples(3)
        energy.grid_triples(3)
    assert cached.cache_info().hits == hits + 2


def test_self_time_subtracts_children_and_reports_the_rest():
    tracer = tracing.Tracer()
    # outer [0, 10] holds inner [1, 4] which holds leaf [2, 3]; a second root [12, 13]
    tracer.layer_of += [0, 1, 2, 0]
    tracer.start += [0.0, 1.0, 2.0, 12.0]
    tracer.end += [10.0, 4.0, 3.0, 13.0]
    tracer.parent += [-1, 0, 1, -1]
    assert tracer.self_times().tolist() == [7.0, 2.0, 1.0, 1.0]
    summary = tracer.summary(wall_s=15.0, passes=1)
    assert summary["layers"]["dynamics.conv3"]["self_s"] == 8.0
    assert summary["unattributed_s"] == 4.0


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_at_a_fixed_seed(name):
    w = tiny(name)
    inputs = w.make_inputs(5, w.sizes)
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            w.run(inputs, w.sizes)
        summary = tracer.summary(1.0, 1)
        counts.append(
            (
                {label: {k: v for k, v in entry.items() if not k.endswith("_s")} for label, entry in summary["layers"].items()},
                summary["gauss_vf_evals_per_step"],
                summary["filon_picard_sweeps_per_step"],
                summary["spans"],
            )
        )
    assert counts[0] == counts[1]
    assert summary["spans"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass_on_correct_outputs(name):
    checks = one_pass(tiny(name))
    assert checks and all(c.passed for c in checks), [c for c in checks if not c.passed]


def _scaled(fn, factor):
    def corrupted(*args, **kwargs):
        times, final = fn(*args, **kwargs)
        return times, final * factor

    return corrupted


CORRUPTIONS = {
    # the flow gains mass
    "transport": lambda mp: mp.setattr(dynamics, "evolve_array", _scaled(dynamics.evolve_array, 1.0 + 1e-6)),
    # the tangent flow stretches volume
    "tangent": lambda mp: mp.setattr(
        measures,
        "linearized_final",
        lambda *a, **k: (lambda t, v, w: (t, v, w * 1.001))(*normalform.linearized_final(*a, **k)),
    ),
    # a boundary term of the normal form is off
    "normal-form": lambda mp: mp.setattr(
        normalform,
        "normal_form_terms",
        lambda traj, f=normalform.normal_form_terms: (lambda t: replace(t, boundary_t=t.boundary_t * 1.001))(f(traj)),
    ),
    # the weights' correction term is off
    "ensemble": lambda mp: mp.setattr(
        energy, "correction_array", lambda *a, f=energy.correction_array: f(*a) * (1.0 + 1e-6)
    ),
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_fails_the_check(name, monkeypatch):
    CORRUPTIONS[name](monkeypatch)
    checks = one_pass(tiny(name))
    assert any(not c.passed for c in checks)


def test_outside_ball_draw_fails_the_ensemble_check():
    w = tiny("ensemble")
    inputs = w.make_inputs(3, w.sizes)
    outputs = w.run(inputs, w.sizes)
    outputs["coeffs"] = outputs["coeffs"] * 10.0
    assert any(c.name == "outside_ball" and not c.passed for c in w.check(inputs, outputs, w.sizes))


def _flatten(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _flatten(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flatten(v)]
    if isinstance(value, bnls.SpectralField):
        return value.coeffs.tolist()
    return [value]


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_the_inputs(name):
    w = tiny(name)
    assert _flatten(w.make_inputs(1, w.sizes)) == _flatten(w.make_inputs(1, w.sizes))
    assert _flatten(w.make_inputs(1, w.sizes)) != _flatten(w.make_inputs(2, w.sizes))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 41)]) == (75.0, 30.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_benchmark_file_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == NAMES
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in spec["workloads"])
