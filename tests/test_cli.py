import json

import pytest

from bnls.cli import main
from bnls.reports import DiagnosticsReport


def run_cli(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_report_round_trip_and_determinism(tmp_path):
    rep = DiagnosticsReport(
        command="demo",
        config={"a": 1},
        scalars={"x": 1.5},
        series={"curve": [(0.0, 1.0, 0.1), (1.0, 2.0, 0.2)]},
        flags={"ok": True},
        wall_clock=12.5,
    )
    text = rep.to_json()
    again = DiagnosticsReport.from_json(text)
    assert again.scalars == {"x": 1.5} and again.passed
    # serialization is deterministic modulo the wall clock
    other = DiagnosticsReport(
        command="demo",
        config={"a": 1},
        scalars={"x": 1.5},
        series={"curve": [(0.0, 1.0, 0.1), (1.0, 2.0, 0.2)]},
        flags={"ok": True},
        wall_clock=99.0,
    )
    strip = lambda d: {k: v for k, v in json.loads(d.to_json()).items() if k != "wall_clock"}
    assert strip(rep) == strip(other)
    csv = rep.series_csv("curve")
    assert csv.splitlines()[0] == "x,y,y_err"
    assert len(csv.splitlines()) == 3


def test_simulate_single_mode(tmp_path):
    code = run_cli(
        [
            "simulate",
            "--variant",
            "interaction",
            "--init",
            "mode:n=1,a=1",
            "--t-end",
            "0.1",
            "--n-grid",
            "4",
            "--trajectory-out",
            str(tmp_path / "traj.json"),
        ],
        tmp_path,
    )
    assert code == 0
    rep = read_report(tmp_path / "simulate.json")
    assert rep["flags"]["mass_conserved"]
    traj = json.loads((tmp_path / "traj.json").read_text())
    assert traj[0]["t"] == 0.0 and "re" in traj[0]["field"]


def test_phase_table(tmp_path):
    code = run_cli(["phase-table", "--n", "0", "--limit", "1"], tmp_path)
    assert code == 0
    lines = (tmp_path / "phase-table-n0-N1.csv").read_text().strip().splitlines()
    assert lines[0] == "n1,n2,n3,n,phi,mu"
    assert len(lines) == 3  # exactly the two triples at the origin


def test_invariance_cli(tmp_path):
    code = run_cli(
        ["invariance-test", "--transform", "gauge", "--count", "2000", "--seed", "3"], tmp_path
    )
    assert code == 0
    rep = read_report(tmp_path / "invariance-test.json")
    assert rep["flags"]["all_within_4"] and rep["flags"]["modulus_exact"]


def test_liouville_cli(tmp_path):
    code = run_cli(
        ["liouville-check", "--trunc-n", "3", "--t-end", "0.05", "--dt", "1e-3"], tmp_path
    )
    assert code == 0
    rep = read_report(tmp_path / "liouville-check.json")
    assert rep["flags"]["volume_ok"]


def test_config_file_and_flag_priority(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("phase.n = 2\nphase.limit = 1\n")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "phase-table", "--n", "0"])
    assert code == 0
    # flag overrides config for n, config supplies the limit
    assert (tmp_path / "phase-table-n0-N1.csv").exists()


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("phase.n 2\n")
    with pytest.raises(SystemExit):
        main(["--config", str(cfg), "phase-table"])


@pytest.mark.parametrize(
    "event,message",
    [("box:-6,re,-0.5,0.5", "event mode -6 is outside the grid"), ("box:1,re", "bad event spec 'box:1,re'")],
)
def test_cov_test_rejects_bad_event_before_sampling(tmp_path, monkeypatch, event, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the event spec was checked")

    monkeypatch.setattr("bnls.measures.sample", no_sampling)
    with pytest.raises(SystemExit, match=message):
        run_cli(["cov-test", "--trunc-n", "4", "--count", "50", "--event", event], tmp_path)


def test_unknown_flag_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--no-such-flag", "1"])


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BNLS_OUTPUT_DIR", str(tmp_path / "envout"))
    code = main(["phase-table", "--n", "0", "--limit", "1"])
    assert code == 0
    assert (tmp_path / "envout" / "phase-table-n0-N1.csv").exists()


def test_sample_cli_moments(tmp_path):
    code = run_cli(["sample", "--s", "1.0", "--cutoff", "1", "--count", "4000"], tmp_path)
    assert code == 0
    rep = read_report(tmp_path / "sample.json")
    assert rep["scalars"]["mean_l2_sq"] == pytest.approx(4.0, rel=0.2)
