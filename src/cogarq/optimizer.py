"""Access-policy optimization for the retransmission-cycle MDP.

Both operating constraints (bounded primary throughput loss, bounded
secondary power) collapse into a single ceiling on the long-term secondary
access rate. The optimum under every ceiling lies on one frontier path: a
greedy walk that starts from the all-idle policy and, per entry,
activates the idle state with the highest access efficiency (marginal
throughput per marginal access rate), known- and unknown-message states
alike. A known-message state with no positive efficiency (t_sk = 0) is
never activated. The constrained optimum is the path's last policy, a
path policy that meets the budget, or a one-state randomization between
two consecutive path policies; a constrained optimum needs randomization
in at most one state (Beutler & Ross 1985). ``eps_th`` is the access rate
of the "transmit only when the primary message is known" policy.

A state is visited at most once per renewal cycle, so the per-cycle
reward, accesses and duration are affine in any one state's access
probability; the walk's marginal quantities (read from the MDP's
transition table) and the budget-meeting blend weight are therefore
closed forms, and no step iterates to a tolerance. The walk builds that
table once, and the path carries it. Per stage it evaluates its access
vector, a list by state index, in one backward pass and scans every idle
state's efficiency once (`efficiency_report`); ``eps_th`` is one more
pass, so the walk converts no `Policy`. The path is its activation
order: each entry keeps the state it activated, its metrics and the
per-cycle accesses and slots the blend weight needs, and
`PolicyPath.policy` rebuilds entry j's policy from the first j
activations. Each path policy is evaluated once, by the walk, so a solve
evaluates only the blend it returns, on the path's table.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .channel import LinkStats
from .mdp import (CycleValues, NetState, Policy, PolicyMetrics,
                  TransitionTable, _backward, long_term_metrics,
                  ratio_metrics, transition_table)


@dataclass(frozen=True)
class PathEntry:
    """One path policy's metrics, the state it activated (None for the
    all-idle start), and its per-cycle accesses ``v`` and slots ``d`` from
    the cycle root. The policy itself is `PolicyPath.policy`."""

    metrics: PolicyMetrics
    chosen_state: Optional[NetState]
    v: float
    d: float


@dataclass(frozen=True)
class PolicyPath:
    """Frontier path from the all-idle policy on the transition table
    ``table`` of one (stats, deadline, buffer size). ``eps_th`` is the
    access rate of the known-message-only policy."""

    entries: List[PathEntry]
    eps_th: float
    table: TransitionTable

    def policy(self, j: int) -> Policy:
        """Entry j's policy: the states entries 1..j activated transmit
        always, every other state never. IndexError for an entry the path
        lacks."""
        if not 0 <= j < len(self.entries):
            raise IndexError(f"no path entry {j}")
        probs = dict.fromkeys(self.table.space.states(), 0.0)
        for e in self.entries[1:j + 1]:
            probs[e.chosen_state] = 1.0
        return Policy(probs)


def efficiency_report(table: TransitionTable, values: CycleValues,
                      idle: List[int]) -> List[float]:
    """Access efficiency of each state index in ``idle``, in order, under
    the policy ``values`` were computed from on ``table``: marginal
    long-term secondary throughput per marginal access rate when that
    state's access probability is perturbed.

    g', v' and d' are the derivatives of the per-cycle reward, accesses
    and duration with respect to the state's access probability. The
    attempt index increases strictly within a cycle, so a state is never
    revisited before the cycle ends and the downstream cycle values do not
    depend on its own access probability. The derivative therefore has
    one-step form: the table's one-slot reward at access probability 1
    minus that at 0 (exact, since the reward is affine in it) plus the
    action-difference of the table row weighted by the downstream values.
    It stays well defined for states the policy never reaches (it is the
    limit obtained by mixing in a vanishing amount of an
    everywhere-exploring policy).
    """
    g, v, dur = values
    succ, p_act, p_idl = table.space.succ, table.p_active, table.p_idle
    # the long-term throughput and access rate, as `ratio_metrics` has them
    t_s, w_s = g[0] / dur[0], v[0] / dur[0]
    etas = []
    for i in idle:
        g_p, v_p, d_p = table.r_active[i] - table.r_idle[i], 1.0, 0.0
        for k in range(3 * i, 3 * i + 3):
            j = succ[k]
            if j == 0:          # the cycle ends: no continuation
                continue
            dp = p_act[k] - p_idl[k]
            g_p += dp * g[j]
            v_p += dp * v[j]
            d_p += dp * dur[j]
        den = v_p - d_p * w_s
        if den <= 0.0:
            raise RuntimeError(
                f"access-rate derivative {den} <= 0 at "
                f"{table.space.state(i)}; this contradicts the positivity "
                "guarantee and indicates an implementation bug")
        etas.append((g_p - d_p * t_s) / den)
    return etas


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


def greedy_policy_path(stats: LinkStats, deadline: int,
                       buffer_size: int) -> PolicyPath:
    """Frontier path from the all-idle policy, one activated state per entry.

    Per stage the walk activates the idle state with the highest access
    efficiency, known- or unknown-message alike, and stops when no idle
    state has positive efficiency; so a known-message state with t_sk = 0
    is never activated. Ties break toward the earliest state in canonical
    order so the walk is reproducible. ``eps_th`` is the access rate of
    the known-message-only policy, computed on its own.
    """
    table = transition_table(stats, deadline, buffer_size)
    space = table.space
    mu = [0.0] * len(space.layer)   # access probabilities, by state index
    idle = list(range(len(mu)))     # canonical order: the first best wins
    best = None
    entries = []
    while True:
        values = _backward(table, mu)
        g, v, d = values.g[0], values.v[0], values.dur[0]
        entries.append(PathEntry(metrics=ratio_metrics(g, v, d, stats),
                                 chosen_state=best, v=v, d=d))
        if not idle:
            break
        etas = efficiency_report(table, values, idle)
        best_eta = max(etas)
        if best_eta <= 0.0:
            break
        i = idle.pop(etas.index(best_eta))
        mu[i] = 1.0
        best = space.state(i)
    n_u = space.n_unknown     # the known-message states come from n_u on
    g, v, d = _backward(table, [0.0] * n_u + [1.0] * (len(mu) - n_u))
    eps_th = ratio_metrics(g[0], v[0], d[0], stats).w_s_bar
    return PolicyPath(entries=entries, eps_th=eps_th, table=table)


def optimal_policy(eps_w: float,
                   path: PolicyPath) -> Tuple[Policy, PolicyMetrics]:
    """Best policy under the access-rate budget ``eps_w`` on ``path``'s
    scenario.

    A budget at or above the path's final access rate gets the final
    policy, and a path policy whose access rate equals the budget is
    returned as it is (the first of any entries that tie at that rate).
    Otherwise the budget falls strictly between consecutive path policies a
    and b, where b activates one more state. Blending them with weight lam
    on a makes the per-cycle accesses v and duration d affine in lam, so
    the blend meeting the budget exactly solves
    lam v_a + (1 - lam) v_b = eps_w (lam d_a + (1 - lam) d_b) in closed
    form, from the v and d the path entries carry; the blend is a with b's
    activated state at access probability 1 - lam.

    ``eps_th`` is the access rate of the known-message-only policy. When a
    known-message access (t_sk) beats every other access, as under the
    paper's rate choice, the walk activates the known-message states
    first, so a budget below ``eps_th`` randomizes one of them and every
    access earns t_sk. A known-message state with no positive efficiency
    (t_sk = 0) is never activated.
    """
    if not (math.isfinite(eps_w) and eps_w >= 0.0):
        raise ValueError("eps_w must be finite and nonnegative")
    last = path.entries[-1]
    if last.metrics.w_s_bar <= eps_w:
        return path.policy(len(path.entries) - 1), last.metrics
    j = bisect.bisect_left(path.entries, eps_w,
                           key=lambda e: e.metrics.w_s_bar)
    entry = path.entries[j]
    if entry.metrics.w_s_bar == eps_w:
        return path.policy(j), entry.metrics
    a, b = path.entries[j - 1], entry
    # v - eps_w d is positive at b and negative at a, so the
    # denominator is negative; the clamp only absorbs rounding.
    lam = (eps_w * b.d - b.v) / ((a.v - b.v) - eps_w * (a.d - b.d))
    pol = path.policy(j - 1).with_prob(
        b.chosen_state, 1.0 - min(max(lam, 0.0), 1.0))
    return pol, long_term_metrics(pol, path.table)
