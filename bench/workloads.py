"""The benchmark workloads: generated inputs, timed steps and gates.

BENCHMARK.json runs ``paper_figures`` and ``desk_certify``. ``long_deadline``
and ``sim_long_run`` are run by hand (``bench/run.py --workload ...``): on
a 2-vCPU virtual machine on a shared host their run-to-run spread reached
0.32 and 0.28 (interquartile range over median of ten 20-second runs),
above any bound the benchmark may set, because pure-Python loops there slow
down by up to 2x with the host's load. Those spreads are of raw times,
measured before times were scaled to a fixed host speed; four workloads of
40-second runs would also not fit the time the benchmark's runs may take.

Each workload writes its scenario (and, for ``sim_long_run``, policy) files
when it is built, which is part of set-up. ``steps`` is the command sequence
one timed pass runs; every step goes through ``cogarq.cli.main`` except the
two certification calls of ``desk_certify``, which the CLI does not offer.
``gates`` checks the outputs of a pass outside the timed region. A gate must
hold for any correct implementation, so none of them depends on which Monte
Carlo samples a seed happens to draw. ``calibration_s`` is the workload's
host-speed kernel, a fixed miniature of its work that ``run.py`` times
around every step to report times at a fixed host speed.

Importing this module imports numpy and cogarq; ``run.py`` puts the
checkout's ``src`` on the path first.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from cogarq import cli, mdp, oracle, simulator
from cogarq.channel import LinkStats, SystemParams

TABLE1_SNRS = {"mean_snr_s": 5.0, "mean_snr_p": 10.0, "mean_snr_sp": 2.0,
               "mean_snr_ps": 5.0, "eps_pu": 0.2, "power_ratio": 1.0}
TABLE1_RATES = {"rate_p": 2.52, "rate_su": 1.12, "rate_sk": 1.91}
TABLE1_STATS = {"q_pp_idle": 0.38, "q_pp_active": 0.68, "q_ps_idle": 0.61,
                "q_ps_active": 0.74, "p_buf": 0.26, "t_su": 0.59,
                "t_sk": 1.10}
RATE_TOL = 0.02          # acceptance criterion 1
STAT_TOL = 0.01          # acceptance criterion 1
ORDER_TOL = 1e-9         # acceptance criterion 6
ORACLE_TOL = 1e-6        # acceptance criterion 3
OCCUPANCY_TOL = 1e-9     # acceptance criterion 7
# Batch means over 20 batches make each z-score roughly Student-t with 19
# degrees of freedom; |t| > 6 has probability below 1e-5.
Z_GATE = 6.0
# Acceptance criterion 5 allows a 0.005 transition gap at 1e7 slots. At
# 1e6 slots the rarest (state, action) pair of the solved policy is seen
# only about 1700 times, so the gap also gets TRANSITION_Z binomial
# standard errors of that pair's visit count.
TRANSITION_FLOOR = 0.005
TRANSITION_Z = 5.0

SCHEMES = ("FIC_BIC", "FIC_ONLY", "NO_IC", "PM_KNOWN")

# "full" is the benchmark; "tiny" shrinks every size for the smoke test.
SCALES = {
    "full": {"gps_grid": "0.5,1,2", "ts_grid": None, "deadline_grid": None,
             "long_deadline": 25, "sim_slots": 3_000_000, "desk_deadline": 4,
             "desk_slots": 1_000_000},
    "tiny": {"gps_grid": "1", "ts_grid": "0.1,0.5,0.9",
             "deadline_grid": "1,2,3", "long_deadline": 6,
             "sim_slots": 20_000, "desk_deadline": 3, "desk_slots": 20_000},
}


class StepFailed(RuntimeError):
    pass


def run_cli(argv) -> None:
    """One command through ``cli.main``, looked up at call time so that a
    traced pass goes through the installed wrapper."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:           # argparse rejects its arguments
        code = exc.code
    if code != 0:
        raise StepFailed(f"cogarq {argv[0]} exited with {code}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2))
    return path


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_rows(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _scenario(deadline: int, rate_policy: str) -> dict:
    obj = dict(TABLE1_SNRS, deadline_D=deadline, buffer_B=deadline - 1,
               rate_policy=rate_policy)
    if rate_policy == "EXPLICIT":
        obj.update(TABLE1_RATES)
    return obj


def _within(actual: dict, expected: dict, tol: float) -> bool:
    return all(abs(float(actual[k]) - v) <= tol for k, v in expected.items())


class Workload:
    """Base: a work directory, the seed, and the sizes of one scale."""

    name = ""
    # The median time of ``calibration_s`` on the 2-vCPU machine of
    # bench/README.md, so that there scaled and raw times are close.
    reference_s = 0.011

    def calibration_s(self) -> float:
        """Time of one run of the host-speed kernel (see run.py): an
        interpreted Markov-chain loop, small dense solves and Monte Carlo
        over small arrays, at fixed sizes and seeds. The arrays are small
        so that the kernel never sets the process's peak memory."""
        start = time.perf_counter()
        rng = random.Random(7)
        state, visits = 0, {}
        for _ in range(15_000):
            nxt = state + 1 if rng.random() < 0.6 and state < 4 else 0
            visits[state, nxt] = visits.get((state, nxt), 0) + 1
            state = nxt
        m, v = np.eye(13) * 2.0 + 0.01, np.ones(13)
        for _ in range(300):
            v = np.linalg.solve(m, v) + 0.5
        gen = np.random.default_rng(3)
        for _ in range(5):
            draws = gen.standard_exponential((2, 20_000))
            float(np.mean((draws[0] * 5.0 > 1.0)
                          & (draws[0] > 0.5 * draws[1])))
        return time.perf_counter() - start

    def __init__(self, workdir: Path, seed: int, scale: str):
        self.dir = workdir
        self.seed = seed
        self.size = SCALES[scale]
        self.results: dict = {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def keep_inputs(self) -> None:
        """Mark the files written so far as inputs that ``clean`` keeps."""
        self.inputs = set(self.dir.iterdir())

    def clean(self) -> None:
        """Forget the previous pass, so a failed step leaves no stale
        output for the gates to read."""
        self.results = {}
        for path in self.dir.iterdir():
            if path not in self.inputs:
                path.unlink()

    def reference(self) -> None:
        """Gate inputs computed once per run, untimed and untraced."""

    def steps(self) -> list:
        raise NotImplementedError

    def outputs(self) -> dict:
        raise NotImplementedError

    def gates(self, out: dict) -> list:
        raise NotImplementedError

    def rows(self, out: dict) -> list:
        """Sweep rows in the outputs; each one counts as an operation."""
        return []


class PaperFigures(Workload):
    """derive-params, then the GPS_RATIO, TS_VS_TP and DEADLINE sweeps."""

    name = "paper_figures"
    KINDS = ("GPS_RATIO", "TS_VS_TP", "DEADLINE")
    reference_s = 0.018

    def calibration_s(self) -> float:
        """Monte Carlo over arrays larger than the cache, as in
        ``link_stats``: the host's slow stretches slow this workload less
        than interpreted code, and the kernel must slow alike. Its arrays
        stay well below the peak memory that ``link_stats`` sets."""
        start = time.perf_counter()
        gen = np.random.default_rng(3)
        s, ps = gen.exponential(5.0, 1 << 19), gen.exponential(2.0, 1 << 19)
        float(np.mean(((s >= 1.2) & (ps >= 2.0 * (1.0 + s)))
                      | (s + ps >= 4.0)))
        return time.perf_counter() - start

    def __init__(self, *args):
        super().__init__(*args)
        self.config = _write_json(self.path("scenario.json"),
                                  _scenario(5, "RSU_STAR"))
        self.grids = {"GPS_RATIO": self.size["gps_grid"],
                      "TS_VS_TP": self.size["ts_grid"],
                      "DEADLINE": self.size["deadline_grid"]}

    def steps(self):
        common = ["--config", self.config, "--seed", self.seed]
        out = [("derive-params", lambda: run_cli(
            ["derive-params", *common, "--out", self.path("derived.json")]))]
        for kind in self.KINDS:
            argv = ["sweep", *common, "--kind", kind,
                    "--out", self.path(f"{kind}.csv")]
            if self.grids[kind] is not None:
                argv += ["--grid", self.grids[kind]]
            out.append((f"sweep {kind}", lambda argv=argv: run_cli(argv)))
        return out

    def outputs(self):
        return {"derived": _read_json(self.path("derived.json")),
                "sweeps": {k: _read_rows(self.path(f"{k}.csv"))
                           for k in self.KINDS}}

    def rows(self, out):
        return [row for rows in out["sweeps"].values() for row in rows]

    @staticmethod
    def _by_x(rows) -> dict:
        by_x: dict = {}
        for row in rows:
            if not row["error"]:
                by_x.setdefault(float(row["x"]), {})[row["scheme"]] = \
                    float(row["t_s_bar"])
        return by_x

    def gates(self, out):
        derived = out["derived"]
        result = [
            ("rates_table1", _within(derived["params"], TABLE1_RATES,
                                     RATE_TOL)),
            ("stats_table1", _within(derived["stats"], TABLE1_STATS,
                                     STAT_TOL)),
        ]
        for kind, rows in out["sweeps"].items():
            by_x = self._by_x(rows)
            ok = bool(by_x) and all(
                set(v) == set(SCHEMES)
                and v["FIC_BIC"] >= v["FIC_ONLY"] - ORDER_TOL
                and v["FIC_ONLY"] >= v["NO_IC"] - ORDER_TOL
                and v["PM_KNOWN"] >= v["FIC_BIC"] - ORDER_TOL
                for v in by_x.values())
            result.append((f"scheme_order_{kind}", ok))
        one = self._by_x(out["sweeps"]["DEADLINE"]).get(1.0, {})
        result.append(("deadline1_collapse", set(one) == set(SCHEMES) and
                       abs(one["FIC_BIC"] - one["NO_IC"]) <= ORDER_TOL and
                       abs(one["FIC_ONLY"] - one["NO_IC"]) <= ORDER_TOL))
        return result


class LongDeadline(Workload):
    """solve at D = 25, B = 24 with the budget from the constraints.

    D = 25 rather than 30 gives four to five passes in a 20-second run
    instead of two to three.
    """

    name = "long_deadline"

    def __init__(self, *args):
        super().__init__(*args)
        self.deadline = self.size["long_deadline"]
        self.config = _write_json(self.path("scenario.json"),
                                  _scenario(self.deadline, "EXPLICIT"))

    def reference(self):
        run_cli(["derive-params", "--config", self.config, "--seed",
                 self.seed, "--out", self.path("reference.json")])
        self.stats = LinkStats.from_json_obj(
            _read_json(self.path("reference.json"))["stats"])

    def steps(self):
        return [("solve", lambda: run_cli(
            ["solve", "--config", self.config, "--seed", self.seed,
             "--out", self.path("solved.json")]))]

    def outputs(self):
        return _read_json(self.path("solved.json"))

    def gates(self, out):
        m = out["metrics"]
        policy = mdp.policy_from_json_obj(out["policy"])
        t_s, w_s = mdp.occupancy_metrics(policy, self.stats, self.deadline,
                                         self.deadline - 1)
        return [
            ("budget_met", m["w_s_bar"] <= out["eps_w"] + OCCUPANCY_TOL),
            ("occupancy_recount",
             abs(t_s - m["t_s_bar"]) <= OCCUPANCY_TOL
             and abs(w_s - m["w_s_bar"]) <= OCCUPANCY_TOL),
        ]


class SimLongRun(Workload):
    """simulate --with-analytic under the Table-1 D = 5 optimal policy."""

    name = "sim_long_run"

    def __init__(self, *args):
        super().__init__(*args)
        self.config = _write_json(self.path("scenario.json"),
                                  _scenario(5, "EXPLICIT"))
        solved = self.path("solved.json")
        run_cli(["solve", "--config", self.config, "--seed", self.seed,
                 "--out", solved])
        self.policy = _write_json(self.path("policy.json"),
                                  _read_json(solved)["policy"])

    def steps(self):
        return [("simulate", lambda: run_cli(
            ["simulate", "--config", self.config, "--policy-file",
             self.policy, "--slots", self.size["sim_slots"], "--seed",
             self.seed, "--with-analytic", "--out",
             self.path("simulated.json")]))]

    def outputs(self):
        return _read_json(self.path("simulated.json"))

    def gates(self, out):
        result = []
        for key in ("t_s", "w_s", "t_p"):
            gap = abs(out[f"{key}_emp"] - out["analytic"][f"{key}_bar"])
            result.append((f"z_{key}", gap <= Z_GATE * out[f"stderr_{key}"]))
        return result


class DeskCertify(Workload):
    """Brute-force frontier, greedy optimum at three budgets, their oracle
    certification, and the transition check of one solved policy."""

    name = "desk_certify"

    def __init__(self, *args):
        super().__init__(*args)
        self.deadline = self.size["desk_deadline"]
        self.buffer = self.deadline - 1
        self.config = _write_json(self.path("scenario.json"),
                                  _scenario(self.deadline, "EXPLICIT"))
        # One budget below the known-message threshold (about 0.23 at
        # D = 4) and two inside the greedy path, drawn from the seed.
        rng = random.Random(self.seed)
        self.budgets = [rng.uniform(0.05, 0.2), rng.uniform(0.3, 0.6),
                        rng.uniform(0.65, 0.95)]

    def _common(self):
        return ["--config", self.config, "--seed", self.seed]

    def _certify(self):
        stats = LinkStats.from_json_obj(
            _read_json(self.path("derived.json"))["stats"])
        states = mdp.enumerate_states(self.deadline, self.buffer)
        frontier = [oracle.FrontierPoint(
            w_s_bar=float(r["w_s_bar"]), t_s_bar=float(r["t_s_bar"]),
            policy=oracle.policy_from_bitmask(int(r["policy_bitmask"]),
                                              states))
            for r in _read_rows(self.path("frontier.csv"))]
        self.results["stats"] = stats
        self.results["oracle"] = [
            oracle.oracle_optimum(b, frontier, stats, self.deadline,
                                  self.buffer) for b in self.budgets]

    def _transition_check(self):
        derived = _read_json(self.path("derived.json"))
        policy = mdp.policy_from_json_obj(
            _read_json(self.path("solved_1.json"))["policy"])
        config = simulator.SimConfig(
            params=SystemParams.from_json_obj(derived["params"]),
            policy=policy, num_slots=self.size["desk_slots"], seed=self.seed)
        self.results["policy"] = policy
        self.results["gap"] = simulator.empirical_transition_check(
            config, stats=self.results["stats"])

    def steps(self):
        out = [("derive-params", lambda: run_cli(
                   ["derive-params", *self._common(),
                    "--out", self.path("derived.json")])),
               ("oracle", lambda: run_cli(
                   ["oracle", *self._common(),
                    "--out", self.path("frontier.csv")]))]
        for i, b in enumerate(self.budgets):
            out.append((f"solve {i}", lambda i=i, b=b: run_cli(
                ["solve", *self._common(), "--eps-w", repr(b),
                 "--out", self.path(f"solved_{i}.json")])))
        out.append(("oracle_optimum", self._certify))
        out.append(("transition_check", self._transition_check))
        return out

    def outputs(self):
        return {"solved": [_read_json(self.path(f"solved_{i}.json"))
                           for i in range(len(self.budgets))],
                "oracle": self.results["oracle"],
                "gap": self.results["gap"],
                "policy": self.results["policy"],
                "stats": self.results["stats"]}

    def transition_tolerance(self, policy, stats) -> float:
        """Gap allowed for the least-visited (state, action) pair."""
        pi = mdp.stationary_distribution(policy, stats, self.deadline,
                                         self.buffer)
        shares = [pi[s] * p for s, mu in policy.probs.items()
                  for p in (mu, 1.0 - mu) if pi[s] * p > 0.0]
        visits = self.size["desk_slots"] * min(shares)
        return TRANSITION_FLOOR + TRANSITION_Z * math.sqrt(0.25 / visits)

    def gates(self, out):
        result = [(f"oracle_match_{i}",
                   abs(s["metrics"]["t_s_bar"] - o) <= ORACLE_TOL)
                  for i, (s, o) in enumerate(zip(out["solved"],
                                                 out["oracle"]))]
        tol = self.transition_tolerance(out["policy"], out["stats"])
        result.append(("transition_gap", out["gap"] <= tol))
        return result


WORKLOADS = {w.name: w for w in (PaperFigures, LongDeadline, SimLongRun,
                                 DeskCertify)}
