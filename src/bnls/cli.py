"""Command-line entry point.

Every subcommand is one row of ``COMMANDS``.  A parameter is declared once,
as ``(section.key, type, default)``: its flag is ``--`` plus the part after
the dot with ``_`` turned into ``-`` (``flow.t_end`` is ``--t-end``, dest
``flow_t_end``), and its value is the flag, else the ``section.key = value``
line of the ``--config`` file, else the default.  A report builder gets the
values keyed by the part after the dot and returns the report's
``(config, scalars, series, flags)``; ``_report`` times it and writes the
JSON report plus one CSV per series.  The default output directory comes
from BNLS_OUTPUT_DIR (falling back to the working directory).  Exit status
is 0 exactly when every pass flag in the report is true.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import acceptance, measures
from .dynamics import FlowSpec, evolve
from .energy import energy_bound_scan
from .fields import SpectralField, bracket, field_from_json, field_to_json, hamiltonian, mass, sobolev_norm_array
from .measures import EventSpec, GaussianSpec
from .normalform import RESONANT_BOUND_SLACK, dk_hs_diagnostics, smoothing_report
from .reports import DiagnosticsReport
from .resonance import nonresonant_triples


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config: expected 'key = value', got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def _name(key: str) -> str:
    return key.rsplit(".", 1)[-1]


def _resolve(args, config: dict, key: str, cast, default):
    """Flag > config-file > default resolution for one parameter."""
    flag_val = getattr(args, key.replace(".", "_"))
    if flag_val is not None:
        return flag_val
    if cast is not None and key in config:
        return cast(config[key])
    return default


def _out_dir(args) -> str:
    out_dir = args.out_dir or os.environ.get("BNLS_OUTPUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _report(builder):
    """Handler that times ``builder`` and writes the report it returns, one CSV per series."""

    def handler(args, **values):
        started = time.time()
        report = DiagnosticsReport(args.command, *builder(**values))
        report.wall_clock = time.time() - started
        out_dir = _out_dir(args)
        path = args.out or os.path.join(out_dir, f"{report.command}.json")
        report.write(path)
        for name in report.series:
            with open(path.rsplit(".", 1)[0] + f".{name}.csv", "w") as fh:
                fh.write(report.series_csv(name))
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {report.command} -> {path}")
        for key, val in sorted(report.flags.items()):
            print(f"    {key}: {'ok' if val else 'FAIL'}")
        return 0 if report.passed else 1

    return handler


def _split(text: str, cast) -> list:
    """A comma-separated list flag, such as ``--n-list 4,8,16``."""
    return [cast(x) for x in text.split(",")]


def _parse_init(text: str, n_grid: int) -> SpectralField:
    if text.startswith("mode:"):
        params = dict(kv.split("=") for kv in text[5:].split(","))
        return SpectralField.from_modes({int(params["n"]): complex(params["a"])}, n_grid)
    if text.startswith("gaussian:"):
        params = dict(kv.split("=") for kv in text[9:].split(","))
        spec = GaussianSpec(
            s=float(params.get("s", 1.0)),
            sample_cutoff=int(params.get("cutoff", n_grid)),
            r=float(params["r"]) if "r" in params else None,
            seed=int(params.get("seed", 0)),
            n_grid=n_grid,
        )
        return measures.sample(spec, 1).fields[0]
    with open(text) as fh:
        return field_from_json(fh.read()).on_grid(n_grid)


def _parse_event(text: str, n_grid: int) -> EventSpec:
    """``all``, ``empty``, ``box:MODE,re|im,LO,HI`` or ``ball:MODE,RADIUS``, with |MODE| <= n_grid."""
    kind, _, rest = text.partition(":")
    fields = rest.split(",")
    event = None
    try:
        if kind in ("all", "empty") and not rest:
            event = EventSpec(kind=kind)
        elif kind == "box" and len(fields) == 4 and fields[1] in ("re", "im"):
            mode, comp, lo, hi = fields
            event = EventSpec(kind="box", coords=((int(mode), comp),), lo=(float(lo),), hi=(float(hi),))
        elif kind == "ball" and len(fields) == 2:
            mode = int(fields[0])
            coords = ((mode, "re"), (mode, "im"))
            event = EventSpec(kind="ball", coords=coords, center=(0.0, 0.0), radius=float(fields[1]))
    except ValueError:
        pass
    if event is None:
        raise SystemExit(f"bad event spec {text!r}: expected all, empty, box:MODE,re|im,LO,HI or ball:MODE,RADIUS")
    for mode, _ in event.coords:
        if abs(mode) > n_grid:
            raise SystemExit(f"event mode {mode} is outside the grid |n| <= {n_grid}")
    return event


@_report
def _simulate(n_grid, t_end, init, trajectory_out, **flow):
    """``flow`` holds the FlowSpec fields: variant, sign, trunc_n, dt and integrator."""
    traj = evolve(FlowSpec(**flow), _parse_init(init, n_grid), 0.0, t_end)
    m0, mT = mass(traj.initial), mass(traj.final)
    drift = abs(mT - m0) / m0 if m0 > 0 else 0.0
    if trajectory_out:
        records = [
            {"t": float(t), "field": json.loads(field_to_json(traj.state(i)))}
            for i, t in enumerate(traj.times)
        ]
        with open(trajectory_out, "w") as fh:
            json.dump(records, fh, sort_keys=True)
    scalars = {
        "mass_initial": m0,
        "mass_final": mT,
        "mass_drift_rel": drift,
        "hamiltonian_initial": hamiltonian(traj.initial, flow["sign"]),
        "hamiltonian_final": hamiltonian(traj.final, flow["sign"]),
    }
    config = flow | {"n_grid": n_grid, "t_end": t_end}
    return config, scalars, {}, {"mass_conserved": drift <= 1e-8}


def _phase_table(args, n, limit):
    triples = nonresonant_triples(n, limit)
    out_dir = _out_dir(args)
    path = args.out or os.path.join(out_dir, f"phase-table-n{n}-N{limit}.csv")
    with open(path, "w") as fh:
        fh.write("n1,n2,n3,n,phi,mu\n")
        for n1, n2, n3, phi, mu in zip(triples.n1, triples.n2, triples.n3, triples.phi, triples.mu):
            fh.write(f"{n1},{n2},{n3},{n},{phi},{mu}\n")
    print(f"[PASS] phase-table ({len(triples)} rows) -> {path}")
    return 0


@_report
def _normalform_check(s, n_grid, t_end, dt, seed):
    f0 = measures.sample(GaussianSpec(s=s, sample_cutoff=n_grid, seed=seed), 1).fields[0]
    traj = evolve(FlowSpec(variant="interaction", dt=dt, integrator="filon"), f0, 0.0, t_end)
    rep = smoothing_report(traj, s)
    scalars = {
        "lhs_nonresonant": rep["nonresonant_hs2"],
        "rhs_nonresonant": rep["nonresonant_bound"],
        "ratio_nonresonant": rep["nonresonant_ratio"],
        "lhs_resonant": rep["resonant_h3s"],
        "rhs_resonant": rep["resonant_bound"],
        "ratio_resonant": rep["resonant_ratio"],
        "quadrature_error": rep["quadrature_error"],
    }
    flags = {"resonant_bound_ok": rep["resonant_ratio"] <= RESONANT_BOUND_SLACK}
    return {"s": s, "n_grid": n_grid, "t_end": t_end, "seed": seed}, scalars, {}, flags


@_report
def _ramer_diagnostics(s, m_modes, t_end, seed):
    u0 = measures.sample(GaussianSpec(s=s, sample_cutoff=m_modes, seed=seed), 1).fields[0]
    rep = dk_hs_diagnostics(u0, t_end, s, m_modes)
    scalars = {k: rep[k] for k in ("hs_norm", "decay_exponent", "sigma1", "sigma2")}
    series = {"column_norms": [(n, c, 0.0) for n, c in zip(rep["column_modes"], rep["column_norms"])]}
    flags = {k: rep[k] for k in ("exponents_feasible", "short_time_window")}
    flags["hs_finite"] = bool(np.isfinite(rep["hs_norm"]))
    return {"s": s, "m_modes": m_modes, "t_end": t_end, "seed": seed}, scalars, series, flags


@_report
def _energy_scan(s, n_list, ensemble, **scan):
    """``scan`` holds the keywords of ``energy_bound_scan``: t_end, dt, theta, epsilon and seed."""
    rep = energy_bound_scan(ensemble, s, _split(n_list, int), **scan)
    scalars = {f"ratio_max_N{k}": v for k, v in rep["ratio_max"].items()} | {
        f"ratio_p99_N{k}": v for k, v in rep["ratio_p99"].items()
    }
    config = {k: rep[k] for k in ("s", "theta", "epsilon", "n_list")}
    return config, scalars, {}, {"finite": rep["finite"], "stable": rep["stable"]}


@_report
def _sample(s, cutoff, r, count, seed):
    ens = measures.sample(GaussianSpec(s=s, sample_cutoff=cutoff, r=r, seed=seed), count)
    norms = sobolev_norm_array(ens.coeffs, 0.0)
    expected = 2.0 * float(np.sum(bracket(np.arange(-cutoff, cutoff + 1), -2.0 * s)))
    scalars = {
        "mean_l2_sq": float(np.mean(norms**2)),
        "expected_l2_sq_unconstrained": expected,
        "acceptance": count / max(ens.attempts, 1),
    }
    config = {"s": s, "cutoff": cutoff, "r": r, "seed": seed, "count": count}
    return config, scalars, {}, {"finite": bool(np.all(np.isfinite(norms)))}


@_report
def _invariance_test(transform, t, s, cutoff, count, seed):
    rep = measures.invariance_test(transform, GaussianSpec(s=s, sample_cutoff=cutoff, seed=seed), count, t=t)
    config = {"transform": transform, "t": t, "count": count, "seed": seed}
    scalars = {"max_abs_z": rep["max_abs_z"], "modulus_deviation": rep["modulus_deviation"]}
    series = {"z_scores": [(i, z, 1.0) for i, z in enumerate(rep["z_scores"])]}
    return config, scalars, series, {k: rep[k] for k in ("all_within_4", "modulus_exact")}


@_report
def _liouville_check(trunc_n, t_end, dt, seed):
    u0 = measures.sample(GaussianSpec(s=1.0, sample_cutoff=trunc_n, r=2.0, seed=seed), 1).fields[0]
    rep = measures.liouville_check(trunc_n, t_end, u0, dt=dt)
    flags = {k: rep[k] for k in ("no_diagonal_triples", "divergence_zero")}
    flags["volume_ok"] = rep["abs_log_det"] <= measures.LOG_DET_TOL
    config = {"trunc_n": trunc_n, "t_end": t_end, "dt": dt, "seed": seed}
    return config, {k: rep[k] for k in ("abs_log_det", "divergence")}, {}, flags


@_report
def _cov_test(trunc_n, r, t_end, s, count, event, dt, seed):
    # the events live on the sampled grid, |n| <= trunc_n
    event = _parse_event(event, trunc_n)
    suite = measures.change_of_variable_suite(trunc_n, r, t_end, s, count, {"event": event}, seed=seed, dt=dt)
    rep = suite["events"]["event"]
    scalars = {
        "estimate": rep["estimate_pullback"],
        "std_error": rep["se_pullback"],
        "estimate_reweight": rep["estimate_reweight"],
        "std_error_reweight": rep["se_reweight"],
        "z": rep["z"],
    }
    config = {k: suite[k] for k in ("trunc_n", "r", "t", "s", "count")} | {"event_kind": event.kind}
    return config, scalars, {}, {"pass": rep["agree_within_4"]}


@_report
def _lp_convergence(s, cutoff, r, t_end, n_list, p_list, count, seed):
    spec = GaussianSpec(s=s, sample_cutoff=cutoff, seed=seed)
    rep = measures.lp_weight_convergence(spec, r, t_end, _split(p_list, float), _split(n_list, int), count)
    series = {
        f"p{p}": [(row["N"], row["estimate"], row["std_error"]) for row in rows]
        for p, rows in rep["distances"].items()
    }
    config = {"s": s, "r": r, "t": t_end, "count": count, "n_list": _split(n_list, int)}
    return config, {}, series, {"decreasing": rep["decreasing"]}


@_report
def _measure_growth(trunc_n, r, t_end, s, radii, count, dt, seed):
    radii = _split(radii, float)
    rep = measures.measure_growth_experiment(trunc_n, r, t_end, s, radii, count, seed=seed, dt=dt)
    series = {
        "measures": [(row["radius"], row["measure"], row["measure_se"]) for row in rep["rows"]],
        "flowed": [(row["radius"], row["flowed_measure"], row["flowed_se"]) for row in rep["rows"]],
    }
    config = {"trunc_n": trunc_n, "r": r, "t": t_end, "s": s, "count": count}
    scalars = {"exponent": rep["exponent"], "exponent_se": rep["exponent_se"]}
    return config, scalars, series, {"exponent_finite": bool(np.isfinite(rep["exponent"]))}


@_report
def _tail_sanity(m_modes, k_list, count, seed):
    rep = measures.tail_sanity(m_modes, _split(k_list, float), count, seed=seed)
    series = {"tail": [(row["K"], row["tail"], 0.0) for row in rep["rows"]]}
    flags = {"monotone": rep["monotone"], "rate_positive": rep["fitted_rate"] > 0}
    config = {"m_modes": m_modes, "count": count, "k_list": _split(k_list, float)}
    return config, {"fitted_rate": rep["fitted_rate"]}, series, flags


def _suite(args):
    started = time.time()
    scale = args.scale
    reports = acceptance.run_suite(scale=scale, parallel=not args.serial)
    out_dir = _out_dir(args)
    all_ok = True
    for name in sorted(reports):
        rep = reports[name]
        rep.write(os.path.join(out_dir, f"suite-{scale}-{name}.json"))
        status = "PASS" if rep.passed else "FAIL"
        all_ok = all_ok and rep.passed
        print(f"[{status}] {name}  ({rep.wall_clock:.1f}s)")
    print(f"suite {scale}: {'PASS' if all_ok else 'FAIL'} in {time.time() - started:.1f}s")
    return 0 if all_ok else 1


SEED = ("mc.seed", int, 0)

# (name, help, handler, parameters); a parameter is (section.key, type, default, *aliases)
# and one of type None is a flag only, never read from the config file
COMMANDS = (
    ("simulate", "integrate one variant and report conservation", _simulate, (
        ("flow.variant", str, "interaction"), ("flow.sign", int, +1), ("flow.n_grid", int, 32),
        ("flow.trunc_n", int, None), ("flow.dt", float, 1e-3), ("flow.t_end", float, 0.1),
        ("flow.integrator", str, "auto"), ("flow.init", str, "mode:n=1,a=1"), ("trajectory_out", None, None))),
    ("phase-table", "CSV of the nonresonant triples at one frequency", _phase_table, (
        ("phase.n", int, 0), ("phase.limit", int, 8, "--N"))),
    ("normalform-check", "smoothing report for one Gaussian draw", _normalform_check, (
        ("nf.s", float, 1.5), ("nf.n_grid", int, 8), ("nf.t_end", float, 0.05), ("nf.dt", float, 1e-4), SEED)),
    ("ramer-diagnostics", "Hilbert-Schmidt profile of the flow derivative", _ramer_diagnostics, (
        ("nf.s", float, 1.5), ("nf.m_modes", int, 16), ("nf.t_end", float, 0.05), SEED)),
    ("energy-scan", "modified-energy derivative ratio scan", _energy_scan, (
        ("energy.s", float, 0.8), ("energy.n_list", str, "4,8,16"), ("mc.ensemble", int, 50),
        ("energy.t_end", float, 0.1), ("energy.dt", float, 1e-3), ("energy.theta", float, 0.1),
        ("energy.epsilon", float, 0.05), SEED)),
    ("sample", "draw a Gaussian ensemble and report moments", _sample, (
        ("gauss.s", float, 1.0), ("gauss.cutoff", int, 16), ("gauss.r", float, None),
        ("mc.count", int, 1000), SEED)),
    ("invariance-test", "moment invariance under a unimodular map", _invariance_test, (
        ("inv.transform", str, "gauge"), ("inv.t", float, 1.0), ("gauss.s", float, 1.0),
        ("gauss.cutoff", int, 8), ("mc.count", int, 10_000), SEED)),
    ("liouville-check", "volume preservation of the finite flow", _liouville_check, (
        ("flow.trunc_n", int, 4), ("flow.t_end", float, 0.5), ("flow.dt", float, 1e-4), SEED)),
    ("cov-test", "two-estimator change-of-variable agreement", _cov_test, (
        ("flow.trunc_n", int, 4), ("gauss.r", float, 2.0), ("flow.t_end", float, 0.1), ("gauss.s", float, 1.0),
        ("mc.count", int, 20_000), ("event", str, "box:1,re,-0.5,0.5"), ("flow.dt", float, 2e-3), SEED)),
    ("lp-convergence", "Lp distance of truncated vs full weights", _lp_convergence, (
        ("gauss.s", float, 1.0), ("gauss.cutoff", int, 16), ("gauss.r", float, 2.0), ("flow.t_end", float, 0.1),
        ("weights.n_list", str, "2,4,8"), ("weights.p_list", str, "2"), ("mc.count", int, 10_000), SEED)),
    ("measure-growth", "transported-measure growth of shrinking events", _measure_growth, (
        ("flow.trunc_n", int, 4), ("gauss.r", float, 2.0), ("flow.t_end", float, 0.1), ("gauss.s", float, 1.0),
        ("growth.radii", str, "1.6,1.2,0.9,0.65,0.45"), ("mc.count", int, 10_000), ("flow.dt", float, 2e-3),
        SEED)),
    ("tail-sanity", "Gaussian-vector tail envelope of the sampler", _tail_sanity, (
        ("tail.m_modes", int, 16), ("tail.k_list", str, "8,10,12"), ("mc.count", int, 100_000), SEED)),
    ("suite", "acceptance battery at a chosen scale", _suite, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnls", description="Quartic-dispersion cubic NLS laboratory"
    )
    parser.add_argument("--config", help="key = value config file; flags override")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--out-dir", help="output directory (default $BNLS_OUTPUT_DIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, params in COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        for key, cast, _default, *aliases in params:
            flag = "--" + _name(key).replace("_", "-")
            choices = ["free_flow", "gauge", "rotation"] if key == "inv.transform" else None
            cmd.add_argument(flag, *aliases, dest=key.replace(".", "_"), type=cast, choices=choices)
        cmd.set_defaults(handler=handler, params=params)
    suite = sub.choices["suite"]
    suite.add_argument("scale", choices=["smoke", "verify", "full"])
    suite.add_argument("--serial", action="store_true", help="disable process parallelism")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _load_config(args.config)
    values = {_name(key): _resolve(args, config, key, cast, default) for key, cast, default, *_ in args.params}
    return args.handler(args, **values)


if __name__ == "__main__":
    sys.exit(main())
