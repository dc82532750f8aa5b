#!/usr/bin/env python3
"""Run every workload over several seeds and record the results.

    python3 bench/baseline.py --label seed --seeds 1-10 --trace-seeds 1

Runs ``bench/run.py`` one run at a time: untraced on every seed in
``--seeds``, traced on every seed in ``--trace-seeds``, each for the
``run_seconds`` BENCHMARK.json fixes (or ``--seconds``). ``--workloads``
defaults to the workloads BENCHMARK.json lists. Writes
``bench/baseline/BENCH_<label>.json`` with each run's record and result and,
per workload and metric, the median, quartiles and spread (interquartile
range over median) of the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summary(results: list) -> dict:
    values: dict = {}
    for result in results:
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "n": len(vals)}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    report = {"label": args.label, "run_seconds": args.seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, seed_list(args.seeds)),
                             (1, seed_list(args.trace_seeds))):
            runs = []
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True,
                    timeout=RUN_TIMEOUT_S)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                lines = proc.stdout.strip().splitlines()
                runs.append({"record": json.loads(lines[-2]),
                             "result": json.loads(lines[-1])})
                print(workload, trace, seed, lines[-1][:160], flush=True)
            key = "traced" if trace else "untraced"
            entry[key] = {"summary": summary([r["result"] for r in runs]),
                          "runs": runs}
        report["workloads"][workload] = entry
    out = BENCH_DIR / "baseline" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
