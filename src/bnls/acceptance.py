"""Acceptance battery: one callable per verification criterion.

Each function runs a pinned-parameter experiment and returns a
DiagnosticsReport whose flags decide pass/fail; ``run_criterion`` stamps
its wall clock.  The same battery backs
``tests/test_acceptance.py`` and the ``suite`` command; ``scale='smoke'``
shrinks ensembles and horizons for a fast end-to-end exercise, while
``scale='full'`` grows them.  Tolerances never change across scales.
"""

from __future__ import annotations

import time

import numpy as np

from . import energy as energy_mod
from . import measures as measures_mod
from . import resonance as resonance_mod
from .dynamics import (
    FlowSpec,
    Trajectory,
    evolve,
    evolve_array,
    from_interaction,
    gauge_inverse,
    residual,
    separation_time,
    single_mode_solution,
)
from .fields import SpectralField, sobolev_norm, sobolev_norm_array
from .measures import EventSpec, GaussianSpec, sample
from .normalform import RESONANT_BOUND_SLACK, duhamel_split, normal_form_terms
from .reports import DiagnosticsReport

__all__ = ["CRITERIA", "run_criterion", "run_suite"]


def _ball_ensemble(count, s=1.0, cutoff=16, r=2.0, seed=0, n_grid=None):
    return sample(GaussianSpec(s=s, sample_cutoff=cutoff, r=r, seed=seed, n_grid=n_grid), count)


# -- 1: exact phase factorization ----------------------------------------------


def phase_factorization(scale="verify"):
    limit = {"smoke": 12, "verify": 40, "full": 48}[scale]
    rng = np.arange(-limit, limit + 1, dtype=np.int64)
    n1, n2, n3 = np.meshgrid(rng, rng, rng, indexing="ij")
    n1, n2, n3 = n1.ravel(), n2.ravel(), n3.ravel()
    n = n1 - n2 + n3
    # looked up at call time, so that a patched formula reaches the check
    direct = resonance_mod.phase(n1, n2, n3, n)
    factored = resonance_mod.phase_factored(n1, n2, n3, n)
    mismatches = int(np.count_nonzero(direct != factored))
    return DiagnosticsReport(
        "phase-factorization",
        {"limit": limit},
        {"quads": int(n1.shape[0]), "mismatches": mismatches},
        flags={"factorization_exact": mismatches == 0},
    )


# -- 2: mass conservation --------------------------------------------------------


def mass_conservation(scale="verify"):
    n_draws = {"smoke": 2, "verify": 10, "full": 10}[scale]
    t_end = {"smoke": 0.01, "verify": 0.1, "full": 0.1}[scale]
    ens = _ball_ensemble(n_draws, seed=42)
    worst = {}
    for variant, trunc in [
        ("physical", None),
        ("renormalized", None),
        ("interaction", None),
        ("truncated_embedded", 8),
        ("truncated_finite", 16),
        ("approx_physical", 8),
    ]:
        spec = FlowSpec(variant=variant, trunc_n=trunc, dt=1e-4)
        drift = np.zeros(n_draws)
        m0 = np.sum(np.abs(ens.coeffs) ** 2, axis=-1)

        def monitor(k, t, V, m0=m0, drift=drift):
            np.maximum(drift, np.abs(np.sum(np.abs(V) ** 2, axis=-1) - m0) / m0, out=drift)

        evolve_array(spec, ens.coeffs, 0.0, t_end, 16, store=False, monitor=monitor)
        worst[variant] = float(np.max(drift))
    tol = 1e-9
    return DiagnosticsReport(
        "mass-conservation",
        {"n_draws": n_draws, "t_end": t_end, "dt": 1e-4, "n_grid": 16, "tol": tol},
        {f"drift_{k}": v for k, v in worst.items()},
        flags={f"mass_ok_{k}": v <= tol for k, v in worst.items()},
    )


# -- 3: gauge/free-flow composition ----------------------------------------------


def composition_identity(scale="verify"):
    t_end = {"smoke": 0.02, "verify": 0.1, "full": 0.1}[scale]
    u0 = _ball_ensemble(1, seed=11).fields[0]
    phys = FlowSpec(variant="physical", dt=1e-4, integrator="filon")
    inter = FlowSpec(variant="interaction", dt=1e-4, integrator="filon")
    _, up = evolve_array(phys, u0.coeffs, 0.0, t_end, 16, store=False)
    _, v = evolve_array(inter, u0.coeffs, 0.0, t_end, 16, store=False)
    u_comp = gauge_inverse(from_interaction(SpectralField(v, 16), t_end), t_end)
    diff = sobolev_norm(SpectralField(up, 16) - u_comp, 0.0)
    tol = 1e-8
    return DiagnosticsReport(
        "composition-identity",
        {"t_end": t_end, "dt": 1e-4, "n_grid": 16, "tol": tol},
        {"l2_difference": diff},
        flags={"composition_ok": diff <= tol},
    )


# -- 4 & 5: normal-form identity and resonant smoothing bound ---------------------


def normal_form_identity(scale="verify"):
    n_draws = {"smoke": 3, "verify": 20, "full": 20}[scale]
    s = 1.5
    t_end = 0.05
    ens = sample(GaussianSpec(s=s, sample_cutoff=8, seed=1), n_draws)
    spec = FlowSpec(variant="interaction", dt=1e-4, integrator="filon")
    times, states = evolve_array(spec, ens.coeffs, 0.0, t_end, 8, store=True)
    sup_hs = np.max(sobolev_norm_array(states, s), axis=0)
    worst_identity = 0.0
    worst_ratio = 0.0
    duhamel_ratios = []
    for j in range(n_draws):
        traj = Trajectory(times=times, coeffs=states[:, j], spec=spec, n_grid=8)
        split = duhamel_split(traj)
        terms = normal_form_terms(traj)
        worst_identity = max(
            worst_identity, sobolev_norm(terms.total() - split.nonresonant, 0.0)
        )
        duh = sobolev_norm(traj.final - traj.initial - split.nonresonant - split.resonant, 0.0)
        duhamel_ratios.append(duh / max(split.quadrature_error_estimate, 1e-300))
        bound = split.t * float(sup_hs[j]) ** 3
        worst_ratio = max(worst_ratio, sobolev_norm(split.resonant, 3.0 * s) / bound)
    return DiagnosticsReport(
        "normal-form-identity",
        {"n_draws": n_draws, "s": s, "n_grid": 8, "t_end": t_end, "dt": 1e-4},
        {
            "max_identity_residual": worst_identity,
            "max_resonant_ratio": worst_ratio,
            "max_duhamel_over_estimate": max(duhamel_ratios),
            "min_duhamel_over_estimate": min(duhamel_ratios),
        },
        flags={
            "identity_ok": worst_identity <= 1e-6,
            "resonant_bound_ok": worst_ratio <= RESONANT_BOUND_SLACK,
            # two-sided: an error estimate far too large is as wrong as one too small
            "duhamel_ok": 0.5 <= min(duhamel_ratios) and max(duhamel_ratios) <= 2.0,
        },
    )


# -- 6: Liouville ------------------------------------------------------------------


def liouville(scale="verify"):
    t_end = {"smoke": 0.05, "verify": 0.5, "full": 0.5}[scale]
    dt = 1e-4
    base_points = {"smoke": 1, "verify": 5, "full": 5}[scale]
    scalars, flags = {}, {}
    for trunc in (4, 8):
        points = [
            sample(GaussianSpec(s=1.0, sample_cutoff=trunc, r=2.0, seed=100 + j), 1).fields[0]
            for j in range(base_points)
        ]
        # classical stepping resolves the N=4 phases comfortably; at
        # N=8 the symplectic scheme pins the determinant at rounding level
        integ = "rk4" if trunc <= 4 else "gauss"
        dets = measures_mod.liouville_determinants(trunc, t_end, points, dt=dt, integrator=integ)
        # the divergence of the field, at the first base point
        rep = measures_mod.liouville_divergence(trunc, points[0])
        scalars[f"max_abs_log_det_N{trunc}"] = max(dets)
        flags[f"volume_ok_N{trunc}"] = max(dets) <= measures_mod.LOG_DET_TOL
        flags[f"divergence_ok_N{trunc}"] = rep["no_diagonal_triples"] and rep["divergence_zero"]
    return DiagnosticsReport(
        "liouville", {"t_end": t_end, "dt": dt, "base_points": base_points}, scalars, flags=flags
    )


# -- 7: measure invariance under the free flow and the gauge ------------------------


def measure_invariance(scale="verify"):
    n_seeds = {"smoke": 4, "verify": 20, "full": 20}[scale]
    count = {"smoke": 2000, "verify": 10_000, "full": 10_000}[scale]
    passes = 0
    worst_z = 0.0
    mod_exact = True
    for seed in range(n_seeds):
        ok = True
        for transform in ("free_flow", "gauge"):
            rep = measures_mod.invariance_test(
                transform, GaussianSpec(s=1.0, sample_cutoff=8, seed=1000 + seed), count, t=1.0
            )
            worst_z = max(worst_z, rep["max_abs_z"])
            mod_exact = mod_exact and rep["modulus_exact"]
            ok = ok and rep["all_within_4"]
        passes += int(ok)
    need = max(n_seeds - 1, 1)
    return DiagnosticsReport(
        "measure-invariance",
        {"n_seeds": n_seeds, "count": count, "s": 1.0, "cutoff": 8},
        {"meta_passes": passes, "worst_abs_z": worst_z},
        flags={"meta_test_ok": passes >= need, "modulus_exact": mod_exact},
    )


# -- 8: energy derivative identity ---------------------------------------------------


def energy_derivative_identity(scale="verify"):
    n_draws = {"smoke": 2, "verify": 10, "full": 10}[scale]
    spec = FlowSpec(variant="truncated_embedded", trunc_n=8, dt=1e-4, integrator="filon")
    worst = 0.0
    coarse_worst = 0.0
    for seed in range(n_draws):
        v0 = sample(GaussianSpec(s=0.8, sample_cutoff=8, seed=200 + seed), 1).fields[0]
        traj = evolve(spec, v0, 0.0, 0.003)
        d = energy_mod.derivative_terms(traj, len(traj) // 2, 0.8, 8)
        worst = max(worst, abs(d.sum - d.fd_refined) / (1.0 + abs(d.fd_refined)))
        coarse_worst = max(coarse_worst, abs(d.sum - d.fd_derivative) / (1.0 + abs(d.fd_derivative)))
    return DiagnosticsReport(
        "energy-derivative-identity",
        {"n_draws": n_draws, "s": 0.8, "trunc_n": 8, "dt": 1e-4},
        {"max_rel_error_refined_fd": worst, "max_rel_error_grid_fd": coarse_worst},
        flags={"identity_ok": worst <= 1e-5},
    )


# -- 9: energy bound stability ---------------------------------------------------------


def energy_bound_stability(scale="verify"):
    count = {"smoke": 8, "verify": 50, "full": 50}[scale]
    rep = energy_mod.energy_bound_scan(count, 0.8, [4, 8, 16], t_end=0.1, dt=1e-3, seed=6)
    rmax = rep["ratio_max"]
    return DiagnosticsReport(
        "energy-bound-stability",
        {"ensemble": count, "s": 0.8, "n_list": [4, 8, 16], "theta": 0.1, "epsilon": 0.05},
        {f"ratio_max_N{k}": v for k, v in rmax.items()}
        | {f"ratio_p99_N{k}": v for k, v in rep["ratio_p99"].items()},
        flags={"p99_finite": rep["finite"], "doubling_chain_ok": rep["stable"]},
    )


# -- 10: explicit-solution oracle --------------------------------------------------------


def explicit_solution_oracle(scale="verify"):
    s = -0.25
    # PDE residual of the closed-form solution, sampled finely
    spec = FlowSpec(variant="physical", dt=3e-6)
    times = np.arange(5) * 3e-6
    states = [single_mode_solution(1, 0.9 + 0.2j, +1, float(t), s, n_grid=3) for t in times]
    traj = Trajectory(
        times=times, coeffs=np.stack([f.coeffs for f in states]), spec=spec, n_grid=3
    )
    res = residual(traj)
    worst_sep = 0.0
    mode = 8192
    for n in (1, 2, 5):
        tn = separation_time(mode, s, n)
        u1 = single_mode_solution(mode, 1.0, +1, tn, s)
        u2 = single_mode_solution(mode, 1.0 + 1.0 / n, +1, tn, s)
        sep = sobolev_norm(u1 - u2, s)
        worst_sep = max(worst_sep, abs(sep - (2.0 + 1.0 / n)))
    return DiagnosticsReport(
        "explicit-solution-oracle",
        {"s": s, "mode": mode},
        {"pde_residual": res, "max_separation_error": worst_sep},
        flags={"residual_ok": res <= 1e-10, "separation_ok": worst_sep <= 1e-8},
    )


# -- 11: truncation approximation ----------------------------------------------------------


def truncation_approximation(scale="verify"):
    n_draws = {"smoke": 4, "verify": 20, "full": 20}[scale]
    ens = _ball_ensemble(n_draws, cutoff=64, seed=77, n_grid=128)
    ref_spec = FlowSpec(variant="physical", dt=1e-3)
    _, ref = evolve_array(ref_spec, ens.coeffs, 0.0, 0.1, 128, store=False)
    means = {}
    for trunc in (8, 16, 32):
        spec = FlowSpec(variant="approx_physical", trunc_n=trunc, dt=1e-3)
        _, uN = evolve_array(spec, ens.coeffs, 0.0, 0.1, 128, store=False)
        means[trunc] = float(np.mean(sobolev_norm_array(uN - ref, 0.0)))
    return DiagnosticsReport(
        "truncation-approximation",
        {"n_draws": n_draws, "n_grid": 128, "t_end": 0.1, "n_list": [8, 16, 32]},
        {f"mean_l2_N{k}": v for k, v in means.items()},
        flags={
            "nonincreasing": means[8] >= means[16] >= means[32],
            "halved": means[32] < 0.5 * means[8],
        },
    )


# -- 12: weight convergence --------------------------------------------------------------------


def weight_convergence(scale="verify"):
    count = {"smoke": 2000, "verify": 10_000, "full": 20_000}[scale]
    rep = measures_mod.lp_weight_convergence(
        GaussianSpec(s=1.0, sample_cutoff=16, seed=30), 2.0, 0.1, [2.0], [2, 4, 8], count
    )
    rows = rep["distances"]["2.0"]
    return DiagnosticsReport(
        "weight-convergence",
        {"count": count, "s": 1.0, "r": 2.0, "t": 0.1, "n_list": [2, 4, 8]},
        {f"l2_distance_N{row['N']}": row["estimate"] for row in rows},
        flags={"decreasing": rep["decreasing"]},
        series={"distance_vs_N": [(row["N"], row["estimate"], row["std_error"]) for row in rows]},
    )


# -- 13: change of variable ---------------------------------------------------------------------


def change_of_variable(scale="verify"):
    count = {"smoke": 3000, "verify": 20_000, "full": 40_000}[scale]
    events = {
        "box": EventSpec(kind="box", coords=((1, "re"),), lo=(-0.5,), hi=(0.5,)),
        "ball": EventSpec(kind="ball", coords=((0, "re"), (0, "im")), center=(0.0, 0.0), radius=1.0),
        "halfspace": EventSpec(
            kind="halfspace", coords=((2, "re"), (-1, "im")), weights=(1.0, 1.0), threshold=0.0
        ),
    }
    suite = measures_mod.change_of_variable_suite(4, 2.0, 0.1, 1.0, count, events, seed=9, dt=2e-3)
    scalars, flags = {}, {}
    for name, rep in suite["events"].items():
        scalars[f"z_{name}"] = rep["z"]
        scalars[f"estimate_{name}"] = rep["estimate_pullback"]
        flags[f"agree_{name}"] = rep["agree_within_4"]
    return DiagnosticsReport(
        "change-of-variable", {"count": count, "trunc_n": 4, "r": 2.0, "t": 0.1}, scalars, flags=flags
    )


CRITERIA = {
    "01-phase-factorization": phase_factorization,
    "02-mass-conservation": mass_conservation,
    "03-composition-identity": composition_identity,
    "04-05-normal-form-identity": normal_form_identity,
    "06-liouville": liouville,
    "07-measure-invariance": measure_invariance,
    "08-energy-derivative-identity": energy_derivative_identity,
    "09-energy-bound-stability": energy_bound_stability,
    "10-explicit-solution-oracle": explicit_solution_oracle,
    "11-truncation-approximation": truncation_approximation,
    "12-weight-convergence": weight_convergence,
    "13-change-of-variable": change_of_variable,
}


def run_criterion(name: str, scale: str = "verify") -> DiagnosticsReport:
    """Run one criterion; its report's ``wall_clock`` is the time of the whole call."""
    started = time.time()
    report = CRITERIA[name](scale)
    report.wall_clock = time.time() - started
    return report


def run_suite(scale: str = "verify", parallel: bool = True):
    """Run the full battery; independent criteria may run in parallel.

    Results are keyed and ordered by criterion name, so the aggregate is
    identical regardless of worker count.
    """
    names = sorted(CRITERIA)
    if parallel:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            futures = {name: pool.submit(run_criterion, name, scale) for name in names}
            return {name: futures[name].result() for name in names}
    return {name: run_criterion(name, scale) for name in names}
