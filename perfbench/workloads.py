"""The four benchmark workloads, shaped like the slowest acceptance criteria.

Each workload calls the public ``bnls`` functions directly, in the call
shapes of the criteria it stands for, at sizes chosen so that one pass takes
a fraction of a second to a few seconds.  A workload is four functions:

* ``make_inputs(seed, size)`` derives every input from the benchmark seed;
  the library only ever sees the derived values (spec seeds, base points).
* ``run(inputs, size)`` is one pass: the library work the criterion does,
  including its own evaluation of the identity being checked.  It is timed.
* ``check(inputs, outputs, size)`` compares the outputs with the tolerances
  pinned in ``bnls.acceptance`` (never the z-score gates) and with oracles
  computed here.  It is not timed.
* ``units(size)`` is the work one pass does, in the workload's throughput
  unit.

Every pass of a run uses the same inputs, so pass times differ only by noise
and per-pass counts repeat exactly at a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bnls import dynamics, energy, fields, measures, normalform, resonance


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    passed: bool


def _at_most(name: str, value: float, limit: float) -> Check:
    value = float(value)
    return Check(name, value, limit, bool(np.isfinite(value) and value <= limit))


def _spec_seeds(seed: int, count: int) -> list[int]:
    """Independent sampler seeds derived from the benchmark seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


def _stamped_evolve(marks: list, spec, V, t0: float, t1: float, n_grid: int, store: bool):
    """``dynamics.evolve_array`` with a clock stamp at every step.

    The stamps go to a new list appended to ``marks``; the runner takes the
    differences of consecutive stamps the workload returns as repetition
    times.
    """
    stamps: list[float] = []
    marks.append(stamps)
    return dynamics.evolve_array(
        spec, V, t0, t1, n_grid, store=store, monitor=lambda k, tk, state: stamps.append(time.perf_counter())
    )


# -- transport: change of variable, criterion 13 ---------------------------------


def transport_inputs(seed: int, size: dict) -> dict:
    seed_a, seed_b = _spec_seeds(seed, 2)
    return {"seed_a": seed_a, "seed_b": seed_b}


def transport_run(inputs: dict, size: dict) -> dict:
    """Both estimators' library work of ``change_of_variable_suite``.

    Ensemble A is weighed and pulled back through the inverse truncated
    flow; ensemble B is weighed, pushed forward and reweighed by the
    correction at time t.  The monitor stamps every Gauss step, which is
    this workload's repetition.
    """
    n, s, r, dt = size["n"], size["s"], size["r"], size["dt"]
    t = size["steps"] * dt
    flow = dynamics.FlowSpec(variant="truncated_embedded", trunc_n=n, dt=dt)
    marks: list[list[float]] = []

    def stamped_flow(V, t0, t1):
        return _stamped_evolve(marks, flow, V, t0, t1, n, store=False)[1]

    def weights(V, tk):
        inside = np.sqrt(np.sum(np.abs(V) ** 2, axis=-1)) <= r
        return np.where(inside, np.exp(-0.5 * energy.correction_array(V, tk, s, n)), 0.0)

    Va = measures.sample(measures.GaussianSpec(s=s, sample_cutoff=n, seed=inputs["seed_a"]), size["draws"]).coeffs
    Fa = weights(Va, t)
    back = stamped_flow(Va, t, 0.0)
    Vb = measures.sample(measures.GaussianSpec(s=s, sample_cutoff=n, seed=inputs["seed_b"]), size["draws"]).coeffs
    Fb = weights(Vb, t)
    fwd = stamped_flow(Vb, 0.0, t)
    sob = fields.bracket(np.arange(-n, n + 1), s)
    inside_b = np.sqrt(np.sum(np.abs(Vb) ** 2, axis=-1)) <= r
    sob_0 = np.sum(np.abs(Vb * sob) ** 2, axis=-1)
    sob_t = np.sum(np.abs(fwd * sob) ** 2, axis=-1)
    reweight = inside_b * np.exp(0.5 * (sob_0 - sob_t - energy.correction_array(fwd, t, s, n)))
    return {"Va": Va, "back": back, "Vb": Vb, "fwd": fwd, "Fa": Fa, "Fb": Fb, "reweight": reweight, "step_marks": marks}


def _max_mass_drift(before: np.ndarray, after: np.ndarray) -> float:
    m0 = np.sum(np.abs(before) ** 2, axis=-1)
    m1 = np.sum(np.abs(after) ** 2, axis=-1)
    return float(np.max(np.abs(m1 - m0) / m0))


def transport_check(inputs: dict, outputs: dict, size: dict) -> list[Check]:
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(outputs[k]))) for k in ("Fa", "Fb", "reweight"))
    return [
        _at_most("mass_drift_backward", _max_mass_drift(outputs["Va"], outputs["back"]), 1e-9),
        _at_most("mass_drift_forward", _max_mass_drift(outputs["Vb"], outputs["fwd"]), 1e-9),
        _at_most("nonfinite_weights", nonfinite, 0),
    ]


def transport_units(size: dict) -> int:
    return 2 * size["draws"] * size["steps"]


# -- tangent: Liouville volume, criterion 06 ----------------------------------------


def tangent_inputs(seed: int, size: dict) -> dict:
    """Base points in the ball, drawn like the criterion's (s = 1, r = 2)."""
    k = size["points"]
    spec_seeds = _spec_seeds(seed, k * len(size["n_list"]))
    points = {
        n: [
            measures.sample(measures.GaussianSpec(s=1.0, sample_cutoff=n, r=2.0, seed=x), 1).fields[0]
            for x in spec_seeds[i * k : (i + 1) * k]
        ]
        for i, n in enumerate(size["n_list"])
    }
    return {"points": points}


def tangent_run(inputs: dict, size: dict) -> dict:
    t = size["steps"] * size["dt"]
    dets = {}
    for n, integrator in zip(size["n_list"], size["integrators"]):
        dets[n] = measures.liouville_determinants(n, t, inputs["points"][n], dt=size["dt"], integrator=integrator)
    return {"abs_log_det": dets}


def tangent_check(inputs: dict, outputs: dict, size: dict) -> list[Check]:
    return [
        _at_most(f"abs_log_det_N{n}_p{j}", value, 1e-6)
        for n, values in outputs["abs_log_det"].items()
        for j, value in enumerate(values)
    ]


def tangent_units(size: dict) -> int:
    return sum(size["points"] * 2 * (2 * n + 1) * size["steps"] for n in size["n_list"])


# -- normal-form: criteria 04-05 (n_grid 8) and 03 (n_grid 16) ----------------------

# Steps per repetition: over ten steps, one step slowed by an interrupt or a
# garbage collection moves the tail percentile by a few percent, not by tens.
FILON_STEPS_PER_REP = 10


def normal_form_inputs(seed: int, size: dict) -> dict:
    seeds = _spec_seeds(seed, size["draws_nf"] + 1)
    draws_nf = [
        measures.sample(measures.GaussianSpec(s=size["s"], sample_cutoff=size["n_nf"], seed=x), 1).fields[0]
        for x in seeds[:-1]
    ]
    draw_comp = measures.sample(
        measures.GaussianSpec(s=1.0, sample_cutoff=size["n_comp"], r=2.0, seed=seeds[-1]), 1
    )
    return {"f_nf": draws_nf, "u_comp": draw_comp.fields[0]}


def normal_form_run(inputs: dict, size: dict) -> dict:
    """Draws through the normal-form identity, one through the composition.

    Every trajectory is integrated per draw (batch 1) by the Filon stepper,
    with a stamp at each step; a block of ``FILON_STEPS_PER_REP`` steps of
    one trajectory, after its first step, is this workload's repetition.  The
    normal-form draws build their ``Trajectory`` as ``dynamics.evolve``
    does, then go through the Duhamel split, the normal-form terms and the
    criterion's own residual and smoothing-ratio evaluation.
    """
    s, dt = size["s"], size["dt"]
    marks: list[list[float]] = []
    spec = dynamics.FlowSpec(variant="interaction", dt=dt, integrator="filon")
    identity, ratio = [], []
    for f in inputs["f_nf"]:
        times, states = _stamped_evolve(marks, spec, f.coeffs, 0.0, size["steps_nf"] * dt, f.n_grid, store=True)
        traj = dynamics.Trajectory(times=times, coeffs=states, spec=spec, n_grid=f.n_grid)
        split = normalform.duhamel_split(traj)
        terms = normalform.normal_form_terms(traj)
        identity.append(fields.sobolev_norm(terms.total() - split.nonresonant, 0.0))
        sup_hs = max(fields.sobolev_norm(traj.state(i), s) for i in range(len(traj)))
        ratio.append(fields.sobolev_norm(split.resonant, 3.0 * s) / (split.t * sup_hs**3))

    n, t = size["n_comp"], size["steps_comp"] * dt
    u0 = inputs["u_comp"].coeffs
    phys = dynamics.FlowSpec(variant="physical", dt=dt, integrator="filon")
    _, up = _stamped_evolve(marks, phys, u0, 0.0, t, n, store=False)
    _, v = _stamped_evolve(marks, spec, u0, 0.0, t, n, store=False)
    composed = dynamics.gauge_inverse(dynamics.from_interaction(fields.SpectralField(v, n), t), t)
    defect = fields.sobolev_norm(fields.SpectralField(up, n) - composed, 0.0)
    # A Filon call computes its collocation weights inside its first step:
    # throughput counts that cost, the repetitions leave it out.
    blocks = [stamps[1::FILON_STEPS_PER_REP] for stamps in marks]
    return {"identity_residual": identity, "resonant_ratio": ratio, "composition_defect": defect, "step_marks": blocks}


def normal_form_check(inputs: dict, outputs: dict, size: dict) -> list[Check]:
    checks = []
    for j, (identity, ratio) in enumerate(zip(outputs["identity_residual"], outputs["resonant_ratio"])):
        checks.append(_at_most(f"identity_residual_{j}", identity, 1e-6))
        checks.append(_at_most(f"resonant_ratio_{j}", ratio, 1.0 + 1e-6))
    checks.append(_at_most("composition_defect", outputs["composition_defect"], 1e-8))
    return checks


def normal_form_units(size: dict) -> int:
    return size["draws_nf"] * size["steps_nf"] + 2 * size["steps_comp"]


# -- ensemble: criteria 07 and 12 ------------------------------------------------------


def ensemble_inputs(seed: int, size: dict) -> dict:
    seed_ball, seed_inv = _spec_seeds(seed, 2)
    return {"seed_ball": seed_ball, "seed_inv": seed_inv}


def ensemble_run(inputs: dict, size: dict) -> dict:
    """Rejection-sample into the ball, weigh at N = 16, test invariance."""
    n, s, t = size["n"], size["s"], size["t"]
    ball = measures.GaussianSpec(s=s, sample_cutoff=n, r=size["r"], seed=inputs["seed_ball"])
    ens = measures.sample(ball, size["draws"])
    corr = energy.correction_array(ens.coeffs, t, s, n)
    weights = np.exp(-0.5 * corr)
    probe = measures.GaussianSpec(s=s, sample_cutoff=size["n_inv"], seed=inputs["seed_inv"])
    invariance = {
        transform: measures.invariance_test(transform, probe, size["inv_count"], t=1.0)
        for transform in ("gauge", "free_flow")
    }
    return {"coeffs": ens.coeffs, "correction": corr, "weights": weights, "invariance": invariance}


def explicit_correction(v: np.ndarray, t: float, s: float, limit: int) -> float:
    """-2 Re sum over every table quad of e^{-i phi t}/phi <n>^{2s} v1 v2* v3 vn*."""
    table = resonance.grid_triples(limit)
    phi = table.phi.astype(np.float64)
    weight = np.exp(-1j * phi * t) / phi * (1.0 + table.out.astype(np.float64) ** 2) ** s
    quad = v[table.n1 + limit] * np.conj(v[table.n2 + limit]) * v[table.n3 + limit] * np.conj(v[table.out + limit])
    return float(-2.0 * np.real(np.sum(weight * quad)))


def ensemble_check(inputs: dict, outputs: dict, size: dict) -> list[Check]:
    n, s, t = size["n"], size["s"], size["t"]
    V = outputs["coeffs"]
    norms = np.sqrt(np.sum(np.abs(V) ** 2, axis=-1))
    checks = [
        _at_most("outside_ball", int(np.count_nonzero(norms > size["r"])), 0),
        _at_most("nonfinite_weights", int(np.count_nonzero(~np.isfinite(outputs["weights"]))), 0),
    ]
    for transform, report in outputs["invariance"].items():
        checks.append(Check(f"modulus_exact_{transform}", report["modulus_deviation"], 0.0, report["modulus_exact"]))
    for j in range(min(size["oracle_draws"], V.shape[0])):
        exact = explicit_correction(V[j], t, s, n)
        got = float(outputs["correction"][j])
        checks.append(_at_most(f"correction_vs_quad_sum_{j}", abs(got - exact) / max(abs(exact), 1.0), 1e-10))
    return checks


def ensemble_units(size: dict) -> int:
    return size["draws"]


# -- registry ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one throughput unit counts
    rep: str  # what one repetition is
    why: str
    tables: tuple[int, ...]  # grid_triples limits built during set-up
    sizes: dict  # benchmark size
    warmup: dict  # set-up size: same grids and code paths, little work
    tiny: dict  # test size
    make_inputs: Callable[[int, dict], dict]
    run: Callable[[dict, dict], dict]
    check: Callable[[dict, dict, dict], list[Check]]
    units: Callable[[dict], int]


_TRANSPORT = {"n": 4, "draws": 10_000, "steps": 3, "dt": 2e-3, "s": 1.0, "r": 2.0}
_TANGENT = {"n_list": (4, 8), "integrators": ("rk4", "gauss"), "points": 5, "steps": 20, "dt": 1e-4}
_NORMAL_FORM = {"n_nf": 8, "n_comp": 16, "s": 1.5, "dt": 1e-4, "draws_nf": 2, "steps_nf": 300, "steps_comp": 150}
_ENSEMBLE = {
    "n": 16, "s": 1.0, "r": 2.0, "t": 0.1, "draws": 200, "n_inv": 8, "inv_count": 500, "oracle_draws": 3,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="transport",
            unit="draw-steps",
            rep="one Gauss step of a 10 000-draw ensemble",
            why="batched FFT cubic sum at N=4 under the Gauss flow; Filon and the linearisation never run",
            tables=(4,),
            sizes=_TRANSPORT,
            warmup=_TRANSPORT | {"draws": 128, "steps": 1},
            tiny=_TRANSPORT | {"draws": 96, "steps": 1},
            make_inputs=transport_inputs,
            run=transport_run,
            check=transport_check,
            units=transport_units,
        ),
        Workload(
            name="tangent",
            unit="direction-steps",
            rep="one pass: liouville_determinants at N=4 (rk4) and N=8 (gauss)",
            why="gamma_sum_linearized at medium batch, which no other workload runs; sampling negligible",
            tables=(4, 8),
            sizes=_TANGENT,
            warmup=_TANGENT | {"steps": 1},
            tiny=_TANGENT | {"points": 1, "steps": 2},
            make_inputs=tangent_inputs,
            run=tangent_run,
            check=tangent_check,
            units=tangent_units,
        ),
        Workload(
            name="normal-form",
            unit="Filon steps",
            rep="ten consecutive Filon steps of a batch-1 trajectory at n_grid 8 or 16, after its first step",
            why="batch-1 Filon steps at n_grid 8 and 16: Python overhead, per-quad gather/einsum/scatter, small conv3; "
            "per-call collocation weights are about 4 % of a pass",
            tables=(8, 16),
            sizes=_NORMAL_FORM,
            warmup=_NORMAL_FORM | {"draws_nf": 1, "steps_nf": 4, "steps_comp": 1},
            tiny=_NORMAL_FORM | {"draws_nf": 1, "steps_nf": 4, "steps_comp": 1},
            make_inputs=normal_form_inputs,
            run=normal_form_run,
            check=normal_form_check,
            units=normal_form_units,
        ),
        Workload(
            name="ensemble",
            unit="accepted draws",
            rep="one pass: 200 ball draws sampled and weighed, two invariance tests",
            why="rejection sampling and N=16 weights do the work and dynamics never runs",
            tables=(16,),
            sizes=_ENSEMBLE,
            warmup=_ENSEMBLE | {"draws": 8, "inv_count": 32, "oracle_draws": 0},
            tiny=_ENSEMBLE | {"draws": 6, "inv_count": 20, "oracle_draws": 2},
            make_inputs=ensemble_inputs,
            run=ensemble_run,
            check=ensemble_check,
            units=ensemble_units,
        ),
    )
}


def set_up(workload: Workload, seed: int) -> None:
    """Build the workload's triple tables and make one untimed warm-up pass."""
    for limit in workload.tables:
        resonance.grid_triples(limit)
    workload.run(workload.make_inputs(seed, workload.warmup), workload.warmup)
