"""The command-line surface, pinned: every report subcommand at a small size.

For each invocation this checks the exit code, the files written, the key
sets of the report sections with the echoed configuration, the CSV headers
and the printed lines; then the option table of every subparser (option
strings, dests, types, choices) and the order and help of the subcommands.
"""

import argparse
import json

import pytest

from bnls.cli import build_parser, main

BOX = {"count": 200, "event_kind": "box", "r": 2.0, "s": 1.0, "t": 0.01, "trunc_n": 2}

# (argv, config file text, exit code, files, config, scalars, series, flags)
CASES = [
    (
        ["simulate", "--n-grid", "4", "--t-end", "0.01", "--dt", "1e-3"],
        None,
        0,
        ["simulate.json"],
        {"dt": 0.001, "integrator": "auto", "n_grid": 4, "sign": 1, "t_end": 0.01, "trunc_n": None, "variant": "interaction"},
        ["hamiltonian_final", "hamiltonian_initial", "mass_drift_rel", "mass_final", "mass_initial"],
        [],
        ["mass_conserved"],
    ),
    (
        ["normalform-check", "--n-grid", "2", "--t-end", "0.002", "--dt", "1e-3", "--seed", "1"],
        None,
        0,
        ["normalform-check.json"],
        {"n_grid": 2, "s": 1.5, "seed": 1, "t_end": 0.002},
        ["lhs_nonresonant", "lhs_resonant", "quadrature_error", "ratio_nonresonant", "ratio_resonant", "rhs_nonresonant", "rhs_resonant"],
        [],
        ["resonant_bound_ok"],
    ),
    (
        ["ramer-diagnostics", "--m-modes", "2", "--t-end", "0.01", "--seed", "1"],
        None,
        0,
        ["ramer-diagnostics.column_norms.csv", "ramer-diagnostics.json"],
        {"m_modes": 2, "s": 1.5, "seed": 1, "t_end": 0.01},
        ["decay_exponent", "hs_norm", "sigma1", "sigma2"],
        ["column_norms"],
        ["exponents_feasible", "hs_finite", "short_time_window"],
    ),
    (
        ["energy-scan", "--n-list", "2,4", "--ensemble", "3", "--t-end", "0.01", "--dt", "5e-3"],
        None,
        0,
        ["energy-scan.json"],
        {"epsilon": 0.05, "n_list": [2, 4], "s": 0.8, "theta": 0.1},
        ["ratio_max_N2", "ratio_max_N4", "ratio_p99_N2", "ratio_p99_N4"],
        [],
        ["finite", "stable"],
    ),
    (
        ["sample", "--cutoff", "2", "--count", "50"],
        None,
        0,
        ["sample.json"],
        {"count": 50, "cutoff": 2, "r": None, "s": 1.0, "seed": 0},
        ["acceptance", "expected_l2_sq_unconstrained", "mean_l2_sq"],
        [],
        ["finite"],
    ),
    (
        ["sample", "--count", "30"],
        "gauss.s = 1.5\ngauss.cutoff = 3\ngauss.r = 4.0\nmc.count = 40\nmc.seed = 2\n",
        0,
        ["sample.json"],
        {"count": 30, "cutoff": 3, "r": 4.0, "s": 1.5, "seed": 2},
        ["acceptance", "expected_l2_sq_unconstrained", "mean_l2_sq"],
        [],
        ["finite"],
    ),
    (
        ["invariance-test", "--transform", "rotation", "--count", "200", "--cutoff", "2"],
        None,
        0,
        ["invariance-test.json", "invariance-test.z_scores.csv"],
        {"count": 200, "seed": 0, "t": 1.0, "transform": "rotation"},
        ["max_abs_z", "modulus_deviation"],
        ["z_scores"],
        ["all_within_4", "modulus_exact"],
    ),
    (
        ["liouville-check", "--trunc-n", "2", "--t-end", "0.01", "--dt", "5e-3"],
        None,
        0,
        ["liouville-check.json"],
        {"dt": 0.005, "seed": 0, "t_end": 0.01, "trunc_n": 2},
        ["abs_log_det", "divergence"],
        [],
        ["divergence_zero", "no_diagonal_triples", "volume_ok"],
    ),
    (
        ["cov-test", "--trunc-n", "2", "--count", "200", "--t-end", "0.01", "--dt", "5e-3"],
        None,
        0,
        ["cov-test.json"],
        BOX,
        ["estimate", "estimate_reweight", "std_error", "std_error_reweight", "z"],
        [],
        ["pass"],
    ),
    (
        ["cov-test", "--count", "200"],
        "event = ball:0,1.0\nflow.trunc_n = 2\nflow.t_end = 0.01\nflow.dt = 5e-3\nmc.count = 100\n",
        0,
        ["cov-test.json"],
        dict(BOX, event_kind="ball"),
        ["estimate", "estimate_reweight", "std_error", "std_error_reweight", "z"],
        [],
        ["pass"],
    ),
    (
        ["lp-convergence", "--cutoff", "2", "--n-list", "1,2", "--p-list", "1,2", "--count", "200", "--t-end", "0.01"],
        None,
        0,
        ["lp-convergence.json", "lp-convergence.p1.0.csv", "lp-convergence.p2.0.csv"],
        {"count": 200, "n_list": [1, 2], "r": 2.0, "s": 1.0, "t": 0.01},
        [],
        ["p1.0", "p2.0"],
        ["decreasing"],
    ),
    (
        ["measure-growth", "--trunc-n", "2", "--count", "200", "--t-end", "0.01", "--dt", "5e-3", "--radii", "1.6,1.2,0.9"],
        None,
        0,
        ["measure-growth.flowed.csv", "measure-growth.json", "measure-growth.measures.csv"],
        {"count": 200, "r": 2.0, "s": 1.0, "t": 0.01, "trunc_n": 2},
        ["exponent", "exponent_se"],
        ["flowed", "measures"],
        ["exponent_finite"],
    ),
    (
        ["tail-sanity", "--m-modes", "2", "--k-list", "2.5,3,3.5", "--count", "500"],
        None,
        0,
        ["tail-sanity.json", "tail-sanity.tail.csv"],
        {"count": 500, "k_list": [2.5, 3.0, 3.5], "m_modes": 2},
        ["fitted_rate"],
        ["tail"],
        ["monotone", "rate_positive"],
    ),
    (
        # no K above the mean norm: the rate is NaN and the exit code 1
        ["tail-sanity", "--m-modes", "2", "--k-list", "1,2,3", "--count", "500"],
        None,
        1,
        ["tail-sanity.json", "tail-sanity.tail.csv"],
        {"count": 500, "k_list": [1.0, 2.0, 3.0], "m_modes": 2},
        ["fitted_rate"],
        ["tail"],
        ["monotone", "rate_positive"],
    ),
]


@pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c[0][:5]))
def test_report_subcommand(case, tmp_path, capsys):
    argv, config_text, code, files, config, scalars, series, flags = case
    out_dir = tmp_path / "out"
    prefix = ["--out-dir", str(out_dir)]
    if config_text is not None:
        (tmp_path / "conf").write_text(config_text)
        prefix = ["--config", str(tmp_path / "conf")] + prefix
    assert main(prefix + argv) == code
    assert sorted(p.name for p in out_dir.iterdir()) == files
    rep = json.loads((out_dir / f"{argv[0]}.json").read_text())
    assert rep["command"] == argv[0] and rep["passed"] == (code == 0)
    assert rep["config"] == config
    assert sorted(rep["scalars"]) == scalars
    assert sorted(rep["series"]) == series
    assert sorted(rep["flags"]) == flags
    for name in files:
        if name.endswith(".csv"):
            assert (out_dir / name).read_text().splitlines()[0] == "x,y,y_err"
    status = "PASS" if code == 0 else "FAIL"
    expected = [f"[{status}] {argv[0]} -> {out_dir}/{argv[0]}.json"]
    expected += [f"    {k}: {'ok' if rep['flags'][k] else 'FAIL'}" for k in flags]
    assert capsys.readouterr().out.splitlines() == expected


SUBCOMMANDS = [
    ("simulate", "integrate one variant and report conservation"),
    ("phase-table", "CSV of the nonresonant triples at one frequency"),
    ("normalform-check", "smoothing report for one Gaussian draw"),
    ("ramer-diagnostics", "Hilbert-Schmidt profile of the flow derivative"),
    ("energy-scan", "modified-energy derivative ratio scan"),
    ("sample", "draw a Gaussian ensemble and report moments"),
    ("invariance-test", "moment invariance under a unimodular map"),
    ("liouville-check", "volume preservation of the finite flow"),
    ("cov-test", "two-estimator change-of-variable agreement"),
    ("lp-convergence", "Lp distance of truncated vs full weights"),
    ("measure-growth", "transported-measure growth of shrinking events"),
    ("tail-sanity", "Gaussian-vector tail envelope of the sampler"),
    ("suite", "acceptance battery at a chosen scale"),
]

SEED = (["--seed"], "mc_seed", "int", None)

# per subcommand: (option strings, dest, type name, choices); argparse's type
# None, which keeps the string as given, is listed as str
OPTIONS = {
    "simulate": [
        (["--variant"], "flow_variant", "str", None),
        (["--sign"], "flow_sign", "int", None),
        (["--n-grid"], "flow_n_grid", "int", None),
        (["--trunc-n"], "flow_trunc_n", "int", None),
        (["--dt"], "flow_dt", "float", None),
        (["--t-end"], "flow_t_end", "float", None),
        (["--integrator"], "flow_integrator", "str", None),
        (["--init"], "flow_init", "str", None),
        (["--trajectory-out"], "trajectory_out", "str", None),
    ],
    "phase-table": [
        (["--n"], "phase_n", "int", None),
        (["--limit", "--N"], "phase_limit", "int", None),
    ],
    "normalform-check": [
        (["--s"], "nf_s", "float", None),
        (["--n-grid"], "nf_n_grid", "int", None),
        (["--t-end"], "nf_t_end", "float", None),
        (["--dt"], "nf_dt", "float", None),
        SEED,
    ],
    "ramer-diagnostics": [
        (["--s"], "nf_s", "float", None),
        (["--m-modes"], "nf_m_modes", "int", None),
        (["--t-end"], "nf_t_end", "float", None),
        SEED,
    ],
    "energy-scan": [
        (["--s"], "energy_s", "float", None),
        (["--n-list"], "energy_n_list", "str", None),
        (["--ensemble"], "mc_ensemble", "int", None),
        (["--t-end"], "energy_t_end", "float", None),
        (["--dt"], "energy_dt", "float", None),
        (["--theta"], "energy_theta", "float", None),
        (["--epsilon"], "energy_epsilon", "float", None),
        SEED,
    ],
    "sample": [
        (["--s"], "gauss_s", "float", None),
        (["--cutoff"], "gauss_cutoff", "int", None),
        (["--r"], "gauss_r", "float", None),
        (["--count"], "mc_count", "int", None),
        SEED,
    ],
    "invariance-test": [
        (["--transform"], "inv_transform", "str", ["free_flow", "gauge", "rotation"]),
        (["--t"], "inv_t", "float", None),
        (["--s"], "gauss_s", "float", None),
        (["--cutoff"], "gauss_cutoff", "int", None),
        (["--count"], "mc_count", "int", None),
        SEED,
    ],
    "liouville-check": [
        (["--trunc-n"], "flow_trunc_n", "int", None),
        (["--t-end"], "flow_t_end", "float", None),
        (["--dt"], "flow_dt", "float", None),
        SEED,
    ],
    "cov-test": [
        (["--trunc-n"], "flow_trunc_n", "int", None),
        (["--r"], "gauss_r", "float", None),
        (["--t-end"], "flow_t_end", "float", None),
        (["--s"], "gauss_s", "float", None),
        (["--count"], "mc_count", "int", None),
        (["--event"], "event", "str", None),
        (["--dt"], "flow_dt", "float", None),
        SEED,
    ],
    "lp-convergence": [
        (["--s"], "gauss_s", "float", None),
        (["--cutoff"], "gauss_cutoff", "int", None),
        (["--r"], "gauss_r", "float", None),
        (["--t-end"], "flow_t_end", "float", None),
        (["--n-list"], "weights_n_list", "str", None),
        (["--p-list"], "weights_p_list", "str", None),
        (["--count"], "mc_count", "int", None),
        SEED,
    ],
    "measure-growth": [
        (["--trunc-n"], "flow_trunc_n", "int", None),
        (["--r"], "gauss_r", "float", None),
        (["--t-end"], "flow_t_end", "float", None),
        (["--s"], "gauss_s", "float", None),
        (["--radii"], "growth_radii", "str", None),
        (["--count"], "mc_count", "int", None),
        (["--dt"], "flow_dt", "float", None),
        SEED,
    ],
    "tail-sanity": [
        (["--m-modes"], "tail_m_modes", "int", None),
        (["--k-list"], "tail_k_list", "str", None),
        (["--count"], "mc_count", "int", None),
        SEED,
    ],
    "suite": [
        ([], "scale", "str", ["smoke", "verify", "full"]),
        (["--serial"], "serial", "str", None),
    ],
}


def _table(parser):
    return [
        (a.option_strings, a.dest, getattr(a.type or str, "__name__"), a.choices)
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def test_option_tables():
    parser = build_parser()
    assert _table(parser) == [(["--config"], "config", "str", None), (["--out"], "out", "str", None), (["--out-dir"], "out_dir", "str", None)]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [(c.dest, c.help) for c in sub._choices_actions] == SUBCOMMANDS
    assert list(sub.choices) == [name for name, _ in SUBCOMMANDS]
    for name, sp in sub.choices.items():
        assert _table(sp) == OPTIONS[name], name
