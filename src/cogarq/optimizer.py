"""Access-policy optimization for the retransmission-cycle MDP.

Both operating constraints (bounded primary throughput loss, bounded
secondary power) collapse into a single ceiling on the long-term secondary
access rate. Below the access rate of the "transmit only when the primary
message is known" policy, the optimum transmits only in known-message
states with one common probability. Above it, a greedy frontier walk
activates idle states one at a time in decreasing order of access
efficiency (marginal throughput per marginal access rate); the constrained
optimum is then the walk's last policy or a one-state randomization
between two consecutive walk policies.

A state is visited at most once per renewal cycle, so the per-cycle
reward, accesses and duration are affine in any one state's access
probability; the walk's marginal quantities (read from the MDP's
transition table) and the budget-meeting blend weight are therefore
closed forms. The low-regime calibration is a root search: scaling every
known-message probability at once also scales the chance that the
known-message chain continues, so its access rate is smooth and
increasing but not linear-fractional in the common probability, and a
bracketed Illinois (modified regula falsi) step finds it in a handful of
evaluations.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .channel import LinkStats
from .mdp import (PHI_K, ROOT, CycleValues, NetState, Policy,
                  PolicyMetrics, cycle_values, enumerate_states,
                  k_active_policy, long_term_metrics,
                  metrics_from_cycle_values, policy_to_json_obj,
                  transition_table)

W_SOLVE_TOL = 1e-13      # low-regime root-search target on the access rate
W_SOLVE_STEPS = 100      # cap on low-regime access-rate evaluations
K_START = "k_active"
IDLE_START = "idle"


@dataclass(frozen=True)
class EfficiencyReport:
    """Marginal cycle quantities and access efficiency at one state."""

    state: NetState
    g_prime: float
    v_prime: float
    d_prime: float
    eta: float


@dataclass(frozen=True)
class PathEntry:
    policy: Policy
    metrics: PolicyMetrics
    chosen_state: Optional[NetState]


@dataclass(frozen=True)
class PolicyPath:
    """Greedy activation sequence with its per-step policies and metrics."""

    entries: List[PathEntry]
    eps_th: float

    def to_json_obj(self) -> dict:
        return {
            "eps_th": self.eps_th,
            "path": [{
                "policy": policy_to_json_obj(e.policy),
                "t_s_bar": e.metrics.t_s_bar,
                "w_s_bar": e.metrics.w_s_bar,
                "chosen_state": (None if e.chosen_state is None else
                                 {"t": e.chosen_state.t, "b": e.chosen_state.b,
                                  "phi": e.chosen_state.phi}),
            } for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def cycle_derivatives(policy: Policy, state: NetState, stats: LinkStats,
                      deadline: int, buffer_size: int,
                      values: Optional[CycleValues] = None,
                      ) -> Tuple[float, float, float]:
    """d/d(mu(state)) of the per-cycle reward, accesses, and duration at
    ``state``.

    The attempt index increases strictly within a cycle, so a state is
    never revisited before the cycle ends and the downstream cycle values
    do not depend on this state's own access probability. The derivative
    therefore has one-step form: the table's one-slot reward at access
    probability 1 minus that at 0 (exact, since the reward is affine in
    it) plus the action-difference of the table row weighted by the
    downstream values. The table that ``values`` came from is reused.
    """
    if values is None:
        values = cycle_values(policy, stats, deadline, buffer_size)
    table = values.table
    if table is None or not table.describes(stats, deadline, buffer_size):
        table = transition_table(stats, deadline, buffer_size)
    i = table.index(state)
    g_p, v_p, d_p = table.r_active[i] - table.r_idle[i], 1.0, 0.0
    for k in range(3 * i, 3 * i + 3):
        j = table.succ[k]
        if j == 0:              # the cycle ends: no continuation
            continue
        dp = table.p_active[k] - table.p_idle[k]
        nxt = table.state(j)
        g_p += dp * values.g[nxt]
        v_p += dp * values.v[nxt]
        d_p += dp * values.dur[nxt]
    return g_p, v_p, d_p


def efficiency_report(policy: Policy, state: NetState, stats: LinkStats,
                      deadline: int, buffer_size: int,
                      values: Optional[CycleValues] = None,
                      metrics: Optional[PolicyMetrics] = None,
                      ) -> EfficiencyReport:
    """Access efficiency at ``state``: marginal long-term secondary
    throughput per marginal access rate when this state's access
    probability is perturbed.

    Computed directly from the cycle recursions, which stay well defined
    for states the current policy never reaches (it is the limit obtained
    by mixing in a vanishing amount of an everywhere-exploring policy).
    """
    if values is None:
        values = cycle_values(policy, stats, deadline, buffer_size)
    if metrics is None:
        metrics = metrics_from_cycle_values(values, stats)
    g_p, v_p, d_p = cycle_derivatives(policy, state, stats, deadline,
                                      buffer_size, values)
    den = v_p - d_p * metrics.w_s_bar
    if den <= 0.0:
        raise RuntimeError(
            f"access-rate derivative {den} <= 0 at {state}; this contradicts "
            "the positivity guarantee and indicates an implementation bug")
    eta = (g_p - d_p * metrics.t_s_bar) / den
    return EfficiencyReport(state=state, g_prime=g_p, v_prime=v_p,
                            d_prime=d_p, eta=eta)


def efficiency(policy: Policy, state: NetState, stats: LinkStats,
               deadline: int, buffer_size: int) -> float:
    return efficiency_report(policy, state, stats, deadline,
                             buffer_size).eta


def blend_policies(pol_a: Policy, pol_b: Policy, lam: float) -> Policy:
    """Pointwise mixture lam * pol_a + (1 - lam) * pol_b."""
    return Policy({s: lam * pa + (1.0 - lam) * pol_b.probs[s]
                   for s, pa in pol_a.probs.items()})


def access_rate_budget(stats: LinkStats, eps_pu: float,
                       power_ratio: float) -> float:
    """Single access-rate ceiling encoding both operating constraints.

    The primary-loss constraint converts to an access-rate bound through
    the linear dependence of the primary throughput on the access rate; if
    secondary activity cannot hurt the primary the bound is vacuous and
    only the power budget remains. Capped at 1, the access-probability
    ceiling.
    """
    dq = stats.q_pp_active - stats.q_pp_idle
    if dq > 0.0:
        pu_term = (1.0 - stats.q_pp_idle) * eps_pu / dq
    else:
        pu_term = math.inf
    return min(pu_term, power_ratio, 1.0)


def _k_scaled_policy(states: List[NetState], prob_k: float) -> Policy:
    return Policy({s: (prob_k if s.phi == PHI_K else 0.0) for s in states})


def low_regime_policy(eps_w: float, eps_th: float, deadline: int,
                      buffer_size: int, stats: LinkStats) -> Policy:
    """Optimal policy when the access budget does not exceed ``eps_th``.

    Transmit only in known-message states, with one common probability m,
    calibrated so the long-term access rate w(m) equals ``eps_w`` to
    within ``W_SOLVE_TOL`` (each access then earns the clean-channel
    throughput, so the optimum is attained with the budget tight). w rises
    from 0 at m = 0 to ``eps_th`` at m = 1. Regula falsi steps on
    w(m) - eps_w keep that bracket; the Illinois rule halves the residual
    of an end that stays put for two steps in a row, so neither end
    stalls. Raises RuntimeError if ``W_SOLVE_STEPS`` evaluations end
    outside the tolerance.

    Optimality presumes the clean-channel throughput dominates an
    interfered access plus its buffered top-up, which holds whenever the
    clean rate is chosen to maximize the clean-channel throughput.
    """
    if eps_th < 0.0:
        raise ValueError("eps_th must be nonnegative")
    if not 0.0 <= eps_w <= eps_th:
        raise ValueError("requires 0 <= eps_w <= eps_th; above eps_th use "
                         "the greedy policy path")
    states = enumerate_states(deadline, buffer_size)
    if eps_th == 0.0 or not any(s.phi == PHI_K for s in states):
        # No known-message states (deadline 1) or zero budget: stay idle.
        return _k_scaled_policy(states, 0.0)
    if eps_w == 0.0 or eps_w == eps_th:
        return _k_scaled_policy(states, eps_w / eps_th)

    lo, f_lo = 0.0, -eps_w
    hi, f_hi = 1.0, eps_th - eps_w
    moved = 0                   # -1: lo moved last, +1: hi moved last
    for _ in range(W_SOLVE_STEPS):
        m = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        pol = _k_scaled_policy(states, m)
        w = long_term_metrics(pol, stats, deadline, buffer_size).w_s_bar
        f = w - eps_w
        if abs(f) <= W_SOLVE_TOL:
            return pol
        if f < 0.0:
            lo, f_lo = m, f
            if moved == -1:
                f_hi *= 0.5
            moved = -1
        else:
            hi, f_hi = m, f
            if moved == 1:
                f_lo *= 0.5
            moved = 1
    raise RuntimeError(f"low-regime access probability did not converge: "
                       f"access rate {w!r} for budget {eps_w!r}")


def greedy_policy_path(stats: LinkStats, deadline: int, buffer_size: int,
                       start: str = K_START) -> PolicyPath:
    """Greedy frontier walk activating one idle state per stage.

    Starting from the known-message-only policy (or, for verification, the
    all-idle policy), each stage activates the idle state with the highest
    access efficiency, stopping when no idle state has positive efficiency.
    Ties break toward the earliest state in canonical order so the walk is
    reproducible. The threshold access rate ``eps_th`` is always that of
    the known-message-only policy.

    The default start is optimal because known-message accesses dominate:
    started from the all-idle policy instead, the walk provably activates
    all known-message states first and then coincides with this one.
    """
    states = enumerate_states(deadline, buffer_size)
    eps_th = long_term_metrics(k_active_policy(states), stats, deadline,
                               buffer_size).w_s_bar
    if start == K_START:
        policy = k_active_policy(states)
    elif start == IDLE_START:
        policy = Policy({s: 0.0 for s in states})
    else:
        raise ValueError(f"unknown start {start!r}")
    # canonical order, so the first best state found wins a tie
    idle_set = [s for s in states if policy.prob(s) == 0.0]

    values = cycle_values(policy, stats, deadline, buffer_size)
    metrics = metrics_from_cycle_values(values, stats)
    entries = [PathEntry(policy=policy, metrics=metrics, chosen_state=None)]
    while idle_set:
        best: Optional[NetState] = None
        best_eta = -math.inf
        for s in idle_set:
            rep = efficiency_report(policy, s, stats, deadline, buffer_size,
                                    values, metrics)
            if rep.eta > best_eta:
                best, best_eta = s, rep.eta
        if best is None or best_eta <= 0.0:
            break
        policy = policy.with_prob(best, 1.0)
        idle_set = [s for s in idle_set if s != best]
        values = cycle_values(policy, stats, deadline, buffer_size)
        metrics = metrics_from_cycle_values(values, stats)
        entries.append(PathEntry(policy=policy, metrics=metrics,
                                 chosen_state=best))
    return PolicyPath(entries=entries, eps_th=eps_th)


def optimal_policy(eps_w: float, path: PolicyPath, stats: LinkStats,
                   deadline: int, buffer_size: int,
                   ) -> Tuple[Policy, PolicyMetrics]:
    """Best policy under the access-rate budget ``eps_w``.

    Below the threshold rate the calibrated known-message-only policy is
    returned. Otherwise the budget either exceeds the walk's final access
    rate (return the final policy) or falls between walk policies a and b
    that differ in one state. Blending them with weight lam on a makes the
    per-cycle accesses v and duration d affine in lam, so the blend meeting
    the budget exactly solves lam v_a + (1 - lam) v_b =
    eps_w (lam d_a + (1 - lam) d_b) in closed form.
    """
    if not (math.isfinite(eps_w) and eps_w >= 0.0):
        raise ValueError("eps_w must be finite and nonnegative")
    if eps_w <= path.eps_th:
        pol = low_regime_policy(eps_w, path.eps_th, deadline, buffer_size,
                                stats)
        return pol, long_term_metrics(pol, stats, deadline, buffer_size)
    last = path.entries[-1]
    if last.metrics.w_s_bar <= eps_w:
        return last.policy, last.metrics
    j = bisect.bisect_right(path.entries, eps_w,
                            key=lambda e: e.metrics.w_s_bar) - 1
    pol_a, pol_b = path.entries[j].policy, path.entries[j + 1].policy
    cv_a = cycle_values(pol_a, stats, deadline, buffer_size)
    cv_b = cycle_values(pol_b, stats, deadline, buffer_size)
    v_a, d_a = cv_a.v[ROOT], cv_a.dur[ROOT]
    v_b, d_b = cv_b.v[ROOT], cv_b.dur[ROOT]
    # v - eps_w d is positive at b and nonpositive at a, so the
    # denominator is negative; the clamp only absorbs rounding.
    lam = (eps_w * d_b - v_b) / ((v_a - v_b) - eps_w * (d_a - d_b))
    pol = blend_policies(pol_a, pol_b, min(max(lam, 0.0), 1.0))
    return pol, long_term_metrics(pol, stats, deadline, buffer_size)
