"""Mutation gate: every listed mutant of the source must fail Tier-1.

A mutant names a file, an exact old text that must occur in it exactly
once, the text that replaces it, and the definition it attacks. For each
mutant the runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the mutant there and runs the Tier-1 suite
with ``-x``: first only the test file of the mutated module
(``tests/test_<module>.py``, where there is one), which kills most
mutants quickly, and the whole suite only when that file passes. The
mutant is killed when pytest exits 1 (tests failed). The gate fails on a
survivor, on any other exit code (a collection or usage error proves
nothing; the tail of pytest's output is printed), on a run longer than
``TIMEOUT_S``, and on an old text that no longer occurs exactly once, so
a stale mutant cannot pass silently.

Equivalent mutants, which change no output any test could see, are listed
apart with their reasons; they are checked to still apply, but not run.

Run from anywhere (pytest does not collect this file):

    python tests/mutation.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIMEOUT_S = 600     # one Tier-1 run takes well under a minute


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str
    new: str
    attacks: str


MUTANTS = [
    Mutant("budget_power", "src/cogarq/optimizer.py",
           "return min(pu_term, power_ratio, 1.0)",
           "return min(pu_term, 1.0)",
           "access_rate_budget: the power-ratio ceiling"),
    Mutant("stderr_slope", "src/cogarq/simulator.py",
           '+ r * r * sums["tau_sq"])',
           '+ r * sums["tau_sq"])',
           "_ratio_stderr: the r^2 tau^2 moment"),
    Mutant("sk_threshold", "src/cogarq/simulator.py",
           "self.thr_sk = 2.0 ** params.rate_sk - 1.0",
           "self.thr_sk = 2.0 ** params.rate_su - 1.0",
           "the simulator's clean-channel decode threshold"),
    Mutant("blend_weight", "src/cogarq/optimizer.py",
           "b.chosen_state, 1.0 - min(max(lam, 0.0), 1.0))",
           "b.chosen_state, min(max(lam, 0.0), 1.0))",
           "optimal_policy: the blend's access probability"),
    Mutant("outage_interference", "src/cogarq/channel.py",
           "clear /= 1.0 + thr * params.mean_snr_sp / params.mean_snr_p",
           "clear /= 1.0 + params.mean_snr_sp / params.mean_snr_p",
           "outage_pp: the interference factor"),
    Mutant("learn_active", "src/cogarq/mdp.py",
           "return stay, grow, nack * decoded, 0.0,",
           "return stay, grow, nack * (decoded - buffered), 0.0,",
           "slot_law: learning while transmitting"),
    Mutant("grow_stay_swap", "src/cogarq/mdp.py",
           "stay, grow = nack * (undecoded - buffered), nack * buffered",
           "grow, stay = nack * (undecoded - buffered), nack * buffered",
           "slot_law: a buffered signal grows the buffer, else the state "
           "stays"),
    Mutant("ack_continues", "src/cogarq/mdp.py",
           "stay, grow = nack * (undecoded - buffered), nack * buffered",
           "stay, grow = undecoded - buffered, nack * buffered",
           "slot_law: an ACK ends the cycle"),
    Mutant("idle_decode_active", "src/cogarq/simulator.py",
           "decoded = np.where(active, pu_dec, p_ok)",
           "decoded = pu_dec",
           "the simulator's decode event of an idle slot"),
    Mutant("bic_dropped", "src/cogarq/mdp.py",
           "fresh, decoded * level * rate_su",
           "fresh, 0.0",
           "slot_law: the buffered-recovery (backward IC) reward"),
    Mutant("occupancy_decode", "src/cogarq/mdp.py",
           "* space.level[i] * stats.rate_su * decode",
           "* space.level[i] * stats.rate_su",
           "occupancy_metrics: the buffered-recovery decode factor"),
    Mutant("walk_tie_break", "src/cogarq/optimizer.py",
           "i = idle.pop(etas.index(best_eta))",
           "i = idle.pop(len(etas) - 1 - etas[::-1].index(best_eta))",
           "greedy_policy_path: ties break toward the earliest state"),
    Mutant("walk_activation", "src/cogarq/optimizer.py",
           "        mu[i] = 1.0\n",
           "",
           "greedy_policy_path: the chosen state transmits from the next "
           "stage on"),
    Mutant("visits_idle_row", "src/cogarq/mdp.py",
           "x[succ[k]] += xi * (m * p_act[k] + u * p_idl[k])",
           "x[succ[k]] += xi * (m * p_idl[k] + u * p_idl[k])",
           "_visits: the action-mixed transition row"),
    Mutant("visits_root_outflow", "src/cogarq/mdp.py",
           "for i, m in enumerate(mu):",
           "for i, m in enumerate(mu[1:], 1):",
           "_visits: the root passes its visit on"),
    Mutant("visits_root_weight", "src/cogarq/mdp.py",
           "x[0] = 1.0",
           "x[0] = 2.0",
           "_visits: one root visit per cycle (renewal-reward)"),
    Mutant("gps_drawn_first", "src/cogarq/channel.py",
           "gs_block = rng.standard_exponential(out=draws[0, :m])\n"
           "        gps_block = rng.standard_exponential(out=draws[1, :m])",
           "gps_block = rng.standard_exponential(out=draws[1, :m])\n"
           "        gs_block = rng.standard_exponential(out=draws[0, :m])",
           "_mc_region_probs: per block, gamma_s is drawn before gamma_ps"),
    Mutant("gps_previous_gs", "src/cogarq/channel.py",
           "gs_block = rng.standard_exponential(out=draws[0, :m])",
           "gs_new = rng.standard_exponential(m)\n"
           "        gs_block = draws[0, :m]\n"
           "        gs_block[:] = gs_old[:m] if start else gs_new\n"
           "        gs_old = gs_new",
           "_mc_region_probs: gamma_ps pairs with its own block's gamma_s"),
    Mutant("slots_prefix_dropped", "src/cogarq/simulator.py",
           "grown[:, :have] = self.slots",
           "grown[:, :have] = 0",
           "_Chain._hold: a grown slot buffer keeps the slots drawn"),
    Mutant("buffered_any_snr", "src/cogarq/channel.py",
           "buffered = s_ok & ~(pu_dec | su_dec)",
           "buffered = ~(pu_dec | su_dec)",
           "RegionClassifier.masks: only a signal above the clean threshold "
           "is buffered"),
    Mutant("backward_dur_grow", "src/cogarq/mdp.py",
           "d[i] = 1.0 + (p0 * d[j0] + p1 * d[j1] + p2 * d[j2])",
           "d[i] = 1.0 + (p0 * d[j0] + p1 * d[j1])",
           "_backward: the duration recursion over all three successors"),
    Mutant("eta_den_duration", "src/cogarq/optimizer.py",
           "den = v_p - d_p * w_s",
           "den = v_p",
           "efficiency_report: the duration term of the access-rate "
           "derivative"),
    Mutant("eta_root_rates", "src/cogarq/optimizer.py",
           "t_s, w_s = g[0] / dur[0], v[0] / dur[0]",
           "t_s, w_s = g[0], v[0]",
           "efficiency_report: the root's long-term rates, not its per-cycle "
           "values"),
    Mutant("march_nearest", "src/cogarq/oracle.py",
           "edge = edge[w[edge] == w[edge].max()]",
           "edge = edge[w[edge] == w[edge].min()]",
           "_march: a steepest-slope tie goes to the farthest point"),
    Mutant("slope_ln2", "src/cogarq/channel.py",
           "return p + r * ln2 * two_r * dp_da > 0.0",
           "return p + r * two_r * dp_da > 0.0",
           "optimize_rate.rising: the ln 2 of d(2^r)/dr"),
    Mutant("path_cut_left", "src/cogarq/simulator.py",
           'done = int(np.searchsorted(end, left, side="right"))',
           'done = int(np.searchsorted(end, left, side="left"))',
           "_path: a cycle that ends on the path's last slot is complete"),
    Mutant("path_cut_strict", "src/cogarq/simulator.py",
           "row // _CODES) <= left)",
           "row // _CODES) < left)",
           "_path: the path keeps its last slot"),
    Mutant("table_deadline_rows", "src/cogarq/mdp.py",
           "live = [t < deadline for t in space.layer]",
           "live = [t <= deadline for t in space.layer]",
           "transition_table: every outcome at the deadline ends the cycle"),
    Mutant("code_bits_swapped", "src/cogarq/simulator.py",
           "for bit in (su_dec, buf_dec, p_ok, pu_dec, ack, active):",
           "for bit in (su_dec, buf_dec, pu_dec, p_ok, ack, active):",
           "_Chain.cycles: the PU_DEC and P_OK bits of the outcome code"),
    Mutant("path_policy_prefix", "src/cogarq/optimizer.py",
           "for e in self.entries[1:j + 1]:",
           "for e in self.entries[1:j]:",
           "PolicyPath.policy: entry j's policy includes its own activation"),
    Mutant("state_cap", "src/cogarq/mdp.py",
           "MAX_STATES = 1 << 15",
           "MAX_STATES = 1 << 16",
           "state_space: the documented state-count cap"),
    Mutant("counts_as_floats", "src/cogarq/simulator.py",
           "count = {key: int(hist @ table)",
           "count = {key: float(hist @ table)",
           "run: k_access_slots and buffered_events are integers"),
    Mutant("config_unknown_keys", "src/cogarq/cli.py",
           "unknown = sorted(set(obj) - CONFIG_KEYS)",
           "unknown = []",
           "_load_scenario: an unknown config key is rejected"),
    Mutant("policy_unknown_keys", "src/cogarq/mdp.py",
           'unknown = sorted(set(r) - {"t", "b", "phi", "prob"})',
           "unknown = []",
           "policy_from_json_obj: an unknown row key is rejected"),
    Mutant("policy_prob_range", "src/cogarq/mdp.py",
           "\n                or not 0 <= prob <= 1):",
           "):",
           "policy_from_json_obj: a prob outside [0, 1] is refused before "
           "float() can overflow"),
    Mutant("config_int_overflow", "src/cogarq/channel.py",
           "except OverflowError:   # an integer past the double range",
           "except ZeroDivisionError:",
           "SystemParams: a real field's integer past the double range is "
           "refused with a ValueError"),
    Mutant("eps_th_vector", "src/cogarq/optimizer.py",
           "[0.0] * n_u + [1.0] * (len(mu) - n_u)",
           "[1.0] * n_u + [0.0] * (len(mu) - n_u)",
           "greedy_policy_path: eps_th's policy transmits in the "
           "known-message states, the indices from n_unknown on"),
    Mutant("brief_unchanged", "src/cogarq/channel.py",
           "    if (isinstance(value, numbers.Integral) and not",
           "    return repr(value)\n"
           "    if (isinstance(value, numbers.Integral) and not",
           "brief: a refusal shortens the outside value it names"),
]

EQUIVALENT = [
    (Mutant("visits_successor_order", "src/cogarq/mdp.py",
            "for k in range(3 * i, 3 * i + 3):",
            "for k in reversed(range(3 * i, 3 * i + 3)):",
            "_visits: the order of a state's three successors"),
     "a state's successors other than the root are distinct, and the root "
     "gains only +0.0, so every sum sees the same additions in the same "
     "order"),
    (Mutant("eta_root_continuation", "src/cogarq/optimizer.py",
            "if j == 0:",
            "if j < 0:",
            "efficiency_report: the root's cycle value is no continuation"),
     "every successor-0 entry of the table (the deadline's outcomes, a "
     "full buffer's grow, the known chain's grow and learn) has mass 0.0 "
     "under both actions, so the leaked term is 0.0 * g[0], which adds "
     "+0.0 to a finite sum"),
]


def _mutated(root: Path, mutant: Mutant) -> str:
    """The text of ``mutant``'s file under ``root`` with the mutant
    applied; ValueError unless its old text occurs there exactly once."""
    text = (root / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times "
                         f"in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def _copy(tree: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    shutil.copytree(REPO / "src", tree / "src", ignore=skip)
    shutil.copytree(REPO / "tests", tree / "tests", ignore=skip)
    shutil.copy2(REPO / "pyproject.toml", tree / "pyproject.toml")


def run_mutant(mutant: Mutant) -> subprocess.CompletedProcess:
    """Pytest's last run, output captured, on a copy of the tree with
    ``mutant`` applied; TimeoutExpired after ``TIMEOUT_S`` for one run."""
    with tempfile.TemporaryDirectory(prefix="cogarq-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        (tree / mutant.path).write_text(_mutated(tree, mutant))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        own = Path("tests", f"test_{Path(mutant.path).stem}.py")
        first = [[str(own)]] if (tree / own).exists() else []
        for only in first + [[]]:
            run = subprocess.run(PYTEST + only, cwd=tree, env=env, text=True,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, timeout=TIMEOUT_S)
            if run.returncode != 0:
                break
        return run


def main() -> int:
    stale = 0
    for mutant, reason in EQUIVALENT:
        try:
            _mutated(REPO, mutant)
        except ValueError as exc:
            stale += 1
            print(f"STALE     {exc}")
            continue
        print(f"skipped   {mutant.name}: equivalent, {reason}")
    killed = 0
    start = time.monotonic()
    for mutant in MUTANTS:
        t0 = time.monotonic()
        output = ""
        try:
            run = run_mutant(mutant)
        except ValueError as exc:
            stale += 1
            print(f"STALE     {exc}")
            continue
        except subprocess.TimeoutExpired:
            verdict = f"ERROR timeout after {TIMEOUT_S} s"
        else:
            killed += run.returncode == 1
            verdict = {0: "SURVIVED", 1: "killed"}.get(
                run.returncode, f"ERROR {run.returncode}")
            if run.returncode not in (0, 1):
                output = "\n".join(run.stdout.splitlines()[-20:])
        print(f"{verdict:9} {mutant.name} ({mutant.attacks}) "
              f"{time.monotonic() - t0:.1f} s", flush=True)
        if output:
            print(output, flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - start:.1f} s")
    return 0 if killed == len(MUTANTS) and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
