"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that exact counts repeat for a fixed seed, that each correctness gate fails
when fed a deliberately perturbed result, and that the benchmark refuses to
run without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def bench(workload, trace, seed=3, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and record["ops_failed_frac"] == 0.0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert record.get("missing", []) == []
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    env = record["env"]
    for key in ("cpu_count", "python", "numpy", "git_sha", "threads",
                "seed"):
        assert key in env
    assert set(env["threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(workload):
    counts = []
    for _ in range(2):
        _, result = bench(workload, 1, seed=5)
        counts.append({name: m["value"]
                       for name, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One tiny pass of every workload: (workload, its outputs)."""
    out = {}
    for name in WORKLOADS:
        case = workloads.WORKLOADS[name](tmp_path_factory.mktemp(name), 3,
                                         "tiny")
        case.keep_inputs()
        case.reference()
        for _, step in case.steps():
            step()
        out[name] = (case, case.outputs())
    return out


def _rows(rows, x, scheme):
    return next(r for r in rows if float(r["x"]) == x and r["scheme"] == scheme)


def _perturb_paper(gate):
    def bump(key, *path, by):
        def change(out):
            target = out
            for p in path:
                target = target[p]
            target[key] = float(target[key]) + by
        return change

    def row(kind, x, scheme, by):
        def change(out):
            r = _rows(out["sweeps"][kind], x, scheme)
            r["t_s_bar"] = str(float(r["t_s_bar"]) + by)
        return change

    return {
        "rates_table1": bump("rate_su", "derived", "params", by=0.05),
        "stats_table1": bump("p_buf", "derived", "stats", by=0.02),
        "scheme_order_GPS_RATIO": row("GPS_RATIO", 1.0, "FIC_ONLY", 1.0),
        "scheme_order_TS_VS_TP": row("TS_VS_TP", 0.5, "PM_KNOWN", -1.0),
        "scheme_order_DEADLINE": row("DEADLINE", 2.0, "NO_IC", 1.0),
        "deadline1_collapse": row("DEADLINE", 1.0, "FIC_BIC", 1e-6),
    }[gate]


def _perturb(workload, gate):
    if workload == "paper_figures":
        return _perturb_paper(gate)

    def change(out):
        if gate == "budget_met":
            out["metrics"]["w_s_bar"] = out["eps_w"] + 1e-6
        elif gate == "occupancy_recount":
            out["metrics"]["t_s_bar"] += 1e-6
        elif gate.startswith("z_"):
            key = gate[2:]
            out[f"{key}_emp"] += 10 * out[f"stderr_{key}"]
        elif gate.startswith("oracle_match_"):
            out["oracle"][int(gate.rsplit("_", 1)[1])] += 1e-3
        elif gate == "transition_gap":
            out["gap"] = 0.5
    return change


GATES = [
    ("paper_figures", g) for g in (
        "rates_table1", "stats_table1", "scheme_order_GPS_RATIO",
        "scheme_order_TS_VS_TP", "scheme_order_DEADLINE",
        "deadline1_collapse")
] + [("long_deadline", g) for g in ("budget_met", "occupancy_recount")] \
  + [("sim_long_run", g) for g in ("z_t_s", "z_w_s", "z_t_p")] \
  + [("desk_certify", g) for g in ("oracle_match_0", "oracle_match_1",
                                   "oracle_match_2", "transition_gap")]


def test_gates_pass_on_true_outputs(passes):
    for name, (case, out) in passes.items():
        gates = dict(case.gates(out))
        assert all(gates.values()), (name, gates)
        assert {g for w, g in GATES if w == name} == set(gates)


@pytest.mark.parametrize("workload,gate", GATES)
def test_each_gate_fails_on_a_perturbed_result(passes, workload, gate):
    case, out = passes[workload]
    bad = copy.deepcopy(out)
    _perturb(workload, gate)(bad)
    assert dict(case.gates(bad))[gate] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

