"""Closed forms for the degenerate network (no secondary-to-primary path).

When the secondary transmitter cannot reach the primary receiver, the
primary outage probability is one number ``q_pp`` regardless of secondary
activity and the retransmission process runs independently of the access
policy. The greedy frontier walk then produces threshold policies in
(attempt index, buffer level), and the marginal cycle quantities admit
geometric-series closed forms. These serve as independent anchors for the
recursion-based machinery:

- ``a0_a1``: the two tail sums driving every closed form,
- ``g_prime_closed`` / ``v_prime_closed``: marginal per-cycle reward and
  accesses at an idle unknown-message state of a threshold policy,
- ``cycle_value_closed``: per-cycle accesses and reward on the idle region,
- ``b_max``: largest buffer level still worth transmitting at, per attempt
  index (the sign-change level of the marginal reward),
- ``unconstrained_optimal`` / ``hp_condition``: the power-unconstrained
  optimal policy and the smallness condition under which the threshold
  structure is guaranteed.
"""

from __future__ import annotations

import math
from typing import Tuple

from .channel import LinkStats
from .mdp import PHI_K, NetState, Policy, enumerate_states

DEGENERACY_TOL = 1e-12


def _require_degenerate(stats: LinkStats) -> float:
    if not abs(stats.q_pp_active - stats.q_pp_idle) <= DEGENERACY_TOL:
        raise ValueError(
            "stats are not degenerate: primary outage differs between idle "
            f"and active by {stats.q_pp_active - stats.q_pp_idle!r}")
    return stats.q_pp_idle


def delta_s(stats: LinkStats) -> float:
    """Marginal clean-channel gain over an interfered access, in units of
    the interfered rate: (t_sk - t_su - p_buf * rate_su) / rate_su."""
    return (stats.t_sk - stats.t_su - stats.p_buf * stats.rate_su) / stats.rate_su


def hp_bound(stats: LinkStats) -> float:
    dq = stats.q_ps_active - stats.q_ps_idle
    if dq <= 0.0:
        raise ValueError("requires q_ps_active > q_ps_idle")
    return (1.0 - stats.q_ps_active) / dq * stats.p_buf


def hp_condition(stats: LinkStats) -> bool:
    """Whether the clean-channel gain is small enough that the greedy walk
    provably produces threshold policies (strict inequality)."""
    return delta_s(stats) < hp_bound(stats)


def a0_a1(tau: int, q_pp: float, q_ps_idle: float,
          deadline: int) -> Tuple[float, float]:
    """Geometric tail sums over the remaining attempts starting at ``tau``.

    Both are sums of deadline - tau + 1 powers (empty, hence zero, at
    tau = deadline + 1): the first of q_pp * q_ps_idle, the second of
    q_pp. Evaluated by explicit summation, which is exact for the small
    exponents involved and free of singularities at ratio one.
    """
    if not 1 <= tau <= deadline + 1:
        raise ValueError("tau must lie in [1, deadline + 1]")
    n_terms = deadline - tau + 1
    x0 = q_pp * q_ps_idle
    a0 = sum(x0 ** k for k in range(n_terms))
    a1 = sum(q_pp ** k for k in range(n_terms))
    return float(a0), float(a1)


def g_prime_closed(t: int, b: int, stats: LinkStats, deadline: int) -> float:
    """Closed-form marginal per-cycle reward at idle state (t, b, U) of a
    threshold policy (all known-message states transmitting, the idle
    unknown-message region downstream of (t, b))."""
    q_pp = _require_degenerate(stats)
    dq = stats.q_ps_active - stats.q_ps_idle
    a0, _ = a0_a1(t + 1, q_pp, stats.q_ps_idle, deadline)
    return (stats.t_su
            + q_pp * stats.p_buf * (1.0 - stats.q_ps_idle) * stats.rate_su * a0
            - dq * b * stats.rate_su * (1.0 - q_pp * (1.0 - stats.q_ps_idle) * a0)
            - q_pp * dq * stats.t_sk * a0)


def v_prime_closed(t: int, stats: LinkStats, deadline: int) -> float:
    """Closed-form marginal per-cycle accesses at an idle unknown-message
    state of a threshold policy (independent of the buffer level)."""
    q_pp = _require_degenerate(stats)
    dq = stats.q_ps_active - stats.q_ps_idle
    a0, _ = a0_a1(t + 1, q_pp, stats.q_ps_idle, deadline)
    return 1.0 - q_pp * dq * a0


def cycle_value_closed(state: NetState, stats: LinkStats,
                       deadline: int) -> Tuple[float, float]:
    """(accesses, reward) per cycle from ``state`` under a threshold policy,
    valid on idle unknown-message states and on known-message states."""
    q_pp = _require_degenerate(stats)
    a0, a1 = a0_a1(state.t, q_pp, stats.q_ps_idle, deadline)
    if state.phi == PHI_K:
        return a1, stats.t_sk * a1
    v = a1 - a0
    g = ((1.0 - stats.q_ps_idle) * state.b * stats.rate_su * a0
         + stats.t_sk * (a1 - a0))
    return v, g


def b_max(t: int, stats: LinkStats, deadline: int) -> int:
    """Largest buffer level at which transmitting still raises the cycle
    reward, at attempt index ``t`` of the final threshold policy.

    This is the verbatim ceiling expression; the marginal reward
    ``g_prime_closed(t, b)`` is positive exactly for b <= b_max(t), so the
    final policy transmits at (t, b, U) if and only if b <= b_max(t).
    Reported unclamped; policy construction clamps to the reachable buffer
    range.
    """
    if not 1 <= t <= deadline:
        raise ValueError("t must lie in [1, deadline]")
    q_pp = _require_degenerate(stats)
    dq = stats.q_ps_active - stats.q_ps_idle
    if dq <= 0.0:
        raise ValueError("requires q_ps_active > q_ps_idle")
    a0, _ = a0_a1(t + 1, q_pp, stats.q_ps_idle, deadline)
    num = (stats.t_su / stats.rate_su * (1.0 - q_pp * dq * a0)
           + (hp_bound(stats) - delta_s(stats)) * q_pp * dq * a0)
    den = dq * (1.0 - q_pp * (1.0 - stats.q_ps_idle) * a0)
    return int(math.ceil(num / den)) - 1


def unconstrained_optimal(stats: LinkStats, deadline: int,
                          buffer_size: int) -> Policy:
    """Power-unconstrained optimal policy for a degenerate network:
    transmit in every known-message state and in every unknown-message
    state whose buffer level does not exceed the attempt's threshold."""
    _require_degenerate(stats)
    probs = {}
    for s in enumerate_states(deadline, buffer_size):
        if s.phi == PHI_K:
            probs[s] = 1.0
        else:
            probs[s] = 1.0 if s.b <= b_max(s.t, stats, deadline) else 0.0
    return Policy(probs)
