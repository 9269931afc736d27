"""Run one bnls benchmark workload and print its metrics.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the library is imported from ``src/`` next to this
directory, and results are written under ``.bench_out/`` at the repository
root.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give every metric with its unit, the repetition count
behind the tail percentile, the check results and the run record.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("transport", "tangent", "normal-form", "ensemble")

# One BLAS thread: the FFT kernels are single-threaded, and a pinned cap keeps
# matrix products from competing with them for the cores.
BLAS_THREADS = 1
SETUP_PROBES = 5  # set-up is timed this many times, in fresh processes
MIN_REPS = 20  # the tail percentile needs at least ten repetitions beyond it
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"throughput": "1/s", "rep_s_p50": "s", "rep_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

_FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "rows": "rows",
    "draws": "count",
    "attempts": "count",
    "accept_ratio": "ratio",
    "quad_rows": "rows",
}
# layer label -> fields reported for it; rows.N<k> is batch rows per call at grid half-width k
_LAYER_FIELDS = {
    "dynamics.conv3": ("calls", "self_s", "rows.N4", "rows.N8", "rows.N16"),
    "dynamics.gamma_sum": ("calls", "self_s", "rows.N4", "rows.N8", "rows.N16"),
    "dynamics.gamma_sum_linearized": ("calls", "self_s", "rows.N4", "rows.N8"),
    "dynamics.rhs_array": ("calls", "self_s", "rows"),
    "dynamics.linearized_rhs_array": ("calls", "self_s", "rows"),
    "normalform.linearized_final": ("self_s",),
    "measures.liouville_determinants": ("self_s",),
    "dynamics.evolve_array": ("self_s",),
    "resonance.GridTripleTable.scatter": ("calls", "self_s", "rows"),
    "quadrature.collocation_osc_weights": ("calls", "self_s", "rows"),
    "normalform.duhamel_split": ("self_s",),
    "normalform.normal_form_terms": ("self_s",),
    "fields.sobolev_norm": ("calls", "self_s"),
    "measures.sample": ("self_s", "draws", "attempts", "accept_ratio"),
    "energy.correction_array": ("calls", "self_s", "quad_rows"),
    "measures.invariance_test": ("self_s",),
}
_DERIVED_UNITS = {
    "resonance.grid_triples.calls": "count",
    "resonance.grid_triples.self_s": "s",
    "dynamics.gauss.vf_evals_per_step": "calls/step",
    "dynamics.filon.picard_sweeps_per_step": "sweeps/step",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_UNITS = {
    f"{label}.{field}": _FIELD_UNITS[field.split(".")[0]] for label, fields in _LAYER_FIELDS.items() for field in fields
} | _DERIVED_UNITS


def require_sources() -> None:
    if not (SRC / "bnls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'bnls'}")


def load_library() -> None:
    """Import bnls from this checkout's sources, or stop if they are missing."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import bnls

    if Path(bnls.__file__).resolve().parent != (SRC / "bnls").resolve():
        sys.exit(f"perfbench: imported bnls from {bnls.__file__}, not from {SRC}")


# -- statistics ----------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten repetitions beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < 1:
        raise ValueError(f"{len(ordered)} repetitions leave no percentile with ten beyond it")
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def rep_times(outputs: dict, pass_s: float) -> list[float]:
    """Times between the monitor stamps a workload returns, else the pass time."""
    marks = outputs.get("step_marks")
    if not marks:
        return [pass_s]
    return [b - a for stamps in marks for a, b in zip(stamps, stamps[1:])]


# -- run record ------------------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=False
    )
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bnls").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, workload) -> dict:
    import numpy as np

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "throughput_unit": workload.unit,
        "repetition": workload.rep,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- measuring -------------------------------------------------------------------------


def probe_setup(workload_name: str, seed: int) -> float:
    """Time import, table build and the warm-up pass in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def setup_probe(workload_name: str, seed: int) -> None:
    started = time.perf_counter()
    load_library()
    import workloads

    workloads.set_up(workloads.WORKLOADS[workload_name], seed)
    print(f"{time.perf_counter() - started!r}")


def measure(workload, inputs, seconds: float, tracer=None) -> dict:
    """Run passes until ``seconds`` of pass time and MIN_REPS repetitions.

    With a tracer, passes run untraced and traced in the order U T T U,
    repeated, so that a slow drift in machine speed cancels out of the
    tracing overhead taken from the two halves.
    """
    reps: list[float] = []
    checks = []
    pass_s: dict[bool, list[float]] = {False: [], True: []}

    def more() -> bool:
        if sum(map(sum, pass_s.values())) < seconds:
            return True
        if tracer is None:
            return len(reps) < MIN_REPS
        return min(map(len, pass_s.values())) < 2

    while more():
        traced = tracer is not None and sum(map(len, pass_s.values())) % 4 in (1, 2)
        if traced:
            tracer.install()
        try:
            started = time.perf_counter()
            outputs = workload.run(inputs, workload.sizes)
            elapsed = time.perf_counter() - started
        finally:
            if traced:
                tracer.uninstall()
        pass_s[traced].append(elapsed)
        if not traced:
            reps += rep_times(outputs, elapsed)
        checks += workload.check(inputs, outputs, workload.sizes)
    return {"reps": reps, "checks": checks, "pass_s": pass_s, "units_per_pass": workload.units(workload.sizes)}


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    reps = result["reps"]
    pct, tail_s = tail(reps)
    untraced = result["pass_s"][False]
    values = {
        "throughput": len(untraced) * result["units_per_pass"] / sum(untraced),
        "rep_s_p50": statistics.median(reps),
        "rep_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"rep_s_tail": f"p{pct:.1f} of {len(reps)} repetitions"}
    return values, notes


def per_layer(summary: dict, setup_summary: dict, result: dict) -> dict:
    layers = summary["layers"]
    values = {}
    for label, fields in _LAYER_FIELDS.items():
        for field in fields:
            values[f"{label}.{field}"] = float(layers[label].get(field, 0.0))
    sample = layers["measures.sample"]
    values["measures.sample.accept_ratio"] = sample["draws"] / sample["attempts"] if sample.get("attempts") else 0.0
    tables = setup_summary["layers"]["resonance.grid_triples"]
    values["resonance.grid_triples.calls"] = float(tables["calls"])
    values["resonance.grid_triples.self_s"] = float(tables["self_s"])
    values["dynamics.gauss.vf_evals_per_step"] = summary["gauss_vf_evals_per_step"]
    values["dynamics.filon.picard_sweeps_per_step"] = summary["filon_picard_sweeps_per_step"]
    traced, untraced = result["pass_s"][True], result["pass_s"][False]
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.unattributed_s"] = summary["unattributed_s"]
    # 1 - traced/untraced throughput, both from median pass times
    values["trace.overhead_ratio"] = 1.0 - statistics.median(untraced) / statistics.median(traced)
    return values


def run_workload(args) -> int:
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES))
    load_library()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    started = time.perf_counter()
    if tracer:
        with tracer:
            workloads.set_up(workload, args.seed)
        setup_summary = tracer.summary(time.perf_counter() - started, 1)
        tracer.clear()
    else:
        workloads.set_up(workload, args.seed)
    inputs = workload.make_inputs(args.seed, workload.sizes)
    result = measure(workload, inputs, args.seconds, tracer)

    if tracer:
        summary = tracer.summary(sum(result["pass_s"][True]), len(result["pass_s"][True]))
        values, notes = per_layer(summary, setup_summary, result), {}
        units = PER_LAYER_UNITS
    else:
        values, notes = end_to_end(result, setup_s)
        units = END_TO_END_UNITS
    checks = result["checks"]
    failed = [c for c in checks if not c.passed]
    worst = {}
    for c in checks:
        worst[c.name] = max(worst.get(c.name, c.value), c.value)
    record = run_record(args, workload)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "record": record,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "notes": notes,
        "pass_s": {"untraced": result["pass_s"][False], "traced": result["pass_s"][True]},
        "repetitions": len(result["reps"]),
        "checks_failed": [vars(c) for c in failed],
        "worst_checks": worst,
    }
    if tracer:
        detail["layers"] = summary["layers"]
        detail["setup_layers"] = setup_summary["layers"]
        detail["spans_file"] = str(stem.with_name(stem.name + "-spans.json").relative_to(ROOT))
        (ROOT / detail["spans_file"]).write_text(json.dumps(tracer.spans()))
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, sort_keys=True, default=list))

    passes = sum(map(len, result["pass_s"].values()))
    print(f"# {workload.name}: seed {args.seed}, {passes} passes, throughput unit: {workload.unit}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {values[name]:>16.6g} {units[name]}{note}")
    print(f"check_fail_ratio {len(failed)}/{len(checks)}" + "".join(f"\n  FAILED {vars(c)}" for c in failed[:10]))
    print("# record " + json.dumps(record, sort_keys=True, default=list))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
    print(json.dumps(merged))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    # before numpy is imported here or in a child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
