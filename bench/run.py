#!/usr/bin/env python3
"""Benchmark of the cogarq pipeline, run from the root of a checkout:

    python3 bench/run.py --workload paper_figures --seed 1 --seconds 40 --trace 0

The workload's command sequence runs through ``cogarq.cli.main`` in this one
process, pass after pass, until ``--seconds`` have passed (at least one
pass). Each pass's outputs are checked outside the timed region. The last
line on stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the run: environment, pass times,
gates and ``ops_failed_frac``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over fresh interpreters that each import cogarq and
numpy and write the workload's inputs), both at the reference host speed
(see ``CALIBRATION_REPEATS``), and ``peak_rss_mb``. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones. A per-layer metric that reads zero on the workload built
to exercise it is left out and named under ``missing`` in the record.

The program comes from ``src/`` of the checkout; the run exits 2 without a
result when it is not there. BLAS and OpenMP run one thread.
"""

import os
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# On a shared host the same code runs up to 2x slower for seconds to
# minutes at a time, within a run and between runs. Timings are therefore
# reported at a fixed host speed: the workload's fixed kernel
# (``calibration_s``, a miniature of its work) runs CALIBRATION_REPEATS
# times before every step, after the last one and at the end of every
# set-up probe. A step that took t while the kernel's median run took c
# (the mean of the medians just before and just after the step; for
# set-up, the median at the end of the probe) is reported as
# t * reference_s / c. The record keeps the raw times.
CALIBRATION_REPEATS = 5

# Per-layer metrics: name -> unit. BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "channel.link_stats.calls": "count",
    "channel.link_stats.busy_s": "s",
    "channel.optimize_rate.calls": "count",
    "channel.optimize_rate.busy_s": "s",
    "channel.mc_draws": "count",
    "channel.masks.calls": "count",
    "channel.masks.elements": "count",
    "channel.self_s": "s",
    "experiments.derive_rates.calls": "count",
    "experiments.derive_rates.busy_s": "s",
    "experiments.evaluate_scheme.calls": "count",
    "experiments.sweep_points": "count",
    "experiments.rows_failed": "count",
    "experiments.self_s": "s",
    "mdp.cycle_values.calls": "count",
    "mdp.cycle_values.busy_s": "s",
    "mdp.cycle_values.states": "count",
    "mdp.long_term_metrics.calls": "count",
    "mdp.long_term_metrics.busy_s": "s",
    "mdp.self_s": "s",
    "optimizer.greedy_policy_path.calls": "count",
    "optimizer.greedy_policy_path.busy_s": "s",
    "optimizer.greedy_stages": "count",
    "optimizer.efficiency_report.calls": "count",
    "optimizer.efficiency_report.busy_s": "s",
    "optimizer.optimal_policy.busy_s": "s",
    "optimizer.solve_iterations": "count",
    "optimizer.self_s": "s",
    "simulator.run.busy_s": "s",
    "simulator.slots": "count",
    "simulator.cycles": "count",
    "simulator.ns_per_slot": "ns",
    "simulator.transition_check.busy_s": "s",
    "simulator.transition_check.ns_per_slot": "ns",
    "simulator.self_s": "s",
    "oracle.enumerate_frontier.busy_s": "s",
    "oracle.policies_evaluated": "count",
    "oracle.frontier_vertices": "count",
    "oracle.oracle_optimum.calls": "count",
    "oracle.oracle_optimum.busy_s": "s",
    "oracle.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_frac": "ratio",
    "trace_overhead_frac": "ratio",
}
# The workload built to exercise each layer (longest prefix wins); metrics
# with no entry here are exercised by every workload.
HOME = {
    "channel.": "paper_figures",
    "experiments.": "paper_figures",
    "mdp.": "desk_certify",
    "optimizer.": "desk_certify",
    "simulator.": "desk_certify",
    "simulator.run.": "sim_long_run",
    "simulator.cycles": "sim_long_run",
    "simulator.ns_per_slot": "sim_long_run",
    "oracle.": "desk_certify",
}
# Metrics that are zero when all is well, so zero never means "missing".
MAY_BE_ZERO = ("experiments.rows_failed", "bench.self_s",
               "trace_overhead_frac")
# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("channel.mc_draws", "channel.masks.calls",
                "optimizer.greedy_stages", "optimizer.efficiency_report.calls",
                "mdp.cycle_values.calls", "optimizer.solve_iterations",
                "oracle.policies_evaluated", "simulator.slots",
                "simulator.cycles")


class SetupError(RuntimeError):
    pass


def home_of(metric: str):
    prefixes = [p for p in HOME if metric.startswith(p)]
    return HOME[max(prefixes, key=len)] if prefixes else None


def set_up(workload: str, seed: int, scale: str):
    """Import the program from the checkout and write the workload's inputs."""
    if not (SRC / "cogarq" / "__init__.py").is_file():
        raise SetupError(f"no cogarq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and cogarq
    import cogarq
    if Path(cogarq.__file__).resolve().parent != (SRC / "cogarq").resolve():
        raise SetupError(f"cogarq imported from {cogarq.__file__}, "
                         f"not from {SRC}")
    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        case = workloads.WORKLOADS[workload](workdir, seed, scale)
    except workloads.StepFailed as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        raise SetupError(f"set-up failed: {exc}") from exc
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    case.keep_inputs()
    return case


def probe_setup(args) -> list:
    """(set-up time, median calibration run) of SETUP_PROBES fresh
    interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0", "--scale", args.scale,
             "--probe-spawned-at", repr(spawned)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["calibration_s"]))
    return samples


def run_pass(case, tracer=None) -> dict:
    """One timed pass through the workload's steps, then its gates."""
    case.clean()
    steps = case.steps()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    failed_steps = 0
    step_s, calibration = [], []

    def calibrate():
        calibration.append(statistics.median(
            case.calibration_s() for _ in range(CALIBRATION_REPEATS)))

    try:
        for i, (label, step) in enumerate(steps):
            calibrate()
            began = time.perf_counter()
            try:
                step()
            except Exception:  # noqa: BLE001 - a failed step is counted
                traceback.print_exc(file=sys.stderr)
                print(f"step {label!r} failed", file=sys.stderr)
                failed_steps = len(steps) - i
                break
            finally:
                step_s.append(time.perf_counter() - began)
        calibrate()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = sum(step_s)
    # Each step at the reference host speed, from the calibration runs just
    # before and just after it.
    scaled = sum(t * 2.0 * case.reference_s / (before + after)
                 for t, before, after
                 in zip(step_s, calibration, calibration[1:]))
    attempted, failed = len(steps), failed_steps
    try:
        out = case.outputs()
        gates = case.gates(out)
        rows = case.rows(out)
    except Exception:  # noqa: BLE001 - unreadable outputs fail the pass
        traceback.print_exc(file=sys.stderr)
        gates, rows = [("outputs_readable", False)], []
    bad_rows = sum(1 for r in rows if r.get("error"))
    attempted += len(gates) + len(rows)
    failed += sum(1 for _, ok in gates if not ok) + bad_rows
    result = {"wall_s": wall, "scaled_s": scaled, "step_s": step_s,
              "calibration_s": calibration,
              "attempted": attempted, "failed": failed,
              "gates_failed": [name for name, ok in gates if not ok],
              "rows_failed": bad_rows}
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer.spans, tracer.counts,
                                             wall)
        if tracer.hook_errors:
            result["hook_errors"] = dict(tracer.hook_errors)
        tracer.reset()
    return result


def run_passes(case, seconds: float, tracer=None) -> list:
    """Passes until ``seconds`` have passed; with a tracer, untraced and
    traced passes alternate and at least one of each runs."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(case, tracer if traced else None))
        done = len(passes) >= (2 if tracer is not None else 1)
        if done and time.perf_counter() >= deadline:
            return passes


def layer_metrics(workload: str, traced: list, untraced: list):
    """Medians of the per-layer metrics over the traced passes."""
    per_pass = [p["layers"] for p in traced]
    values = {}
    for name in per_pass[0]:
        pick = (statistics.median_low if LAYER_METRICS.get(name) == "count"
                else statistics.median)
        values[name] = pick(m[name] for m in per_pass)
    values["trace_overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    metrics, missing = {}, []
    for name, unit in LAYER_METRICS.items():
        value = values[name]
        home = home_of(name)
        if value == 0 and name not in MAY_BE_ZERO and home in (None,
                                                                 workload):
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    repeats = all(len({m[name] for m in per_pass}) == 1
                  for name in EXACT_COUNTS)
    return metrics, missing, repeats


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cogarq").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure(args, case) -> int:
    record = {"env": environment(args)}
    if args.trace:
        case.reference()
        passes = run_passes(case, args.seconds, tracing.Tracer())
        traced = [p for p in passes if "layers" in p]
        untraced = [p for p in passes if "layers" not in p]
        metrics, missing, repeats = layer_metrics(args.workload, traced,
                                                  untraced)
        record["missing"] = missing
        record["counts_repeat"] = repeats
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        if len(traced) > 1:
            attempted += 1
            failed += 0 if repeats else 1
        record["untraced_wall_s"] = [p["wall_s"] for p in untraced]
    else:
        setup = probe_setup(args)
        case.reference()
        passes = run_passes(case, args.seconds)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(p["scaled_s"]
                                                  for p in passes),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(
                t * case.reference_s / c for t, c in setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
        record["raw"] = {"setup_s": [t for t, _ in setup],
                         "setup_calibration_s": [c for _, c in setup]}
    record["passes"] = [{k: v for k, v in p.items() if k != "layers"}
                        for p in passes]
    record["ops_failed_frac"] = failed / attempted
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every size for the smoke test")
    parser.add_argument("--probe-spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        case = set_up(args.workload, args.seed, args.scale)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.probe_spawned_at is not None:
            setup_s = time.monotonic() - args.probe_spawned_at
            print(json.dumps({"setup_s": setup_s,
                              "calibration_s": statistics.median(
                                  case.calibration_s()
                                  for _ in range(CALIBRATION_REPEATS))}))
            return 0
        return measure(args, case)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(case.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:         # another run still holds a work directory
            pass


if __name__ == "__main__":
    sys.exit(main())
