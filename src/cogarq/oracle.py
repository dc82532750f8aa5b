"""Brute-force certification of the greedy optimizer at desk scale.

Every deterministic policy over a small state space is evaluated exactly,
all 2^N of them in one array backward pass (`_bitmask_metrics`). The
upper-left convex hull of the resulting (access rate, throughput) cloud
is the achievable frontier, because a policy randomized in a single state
traces the straight chord between the two deterministic policies it mixes
(all three per-cycle quantities are affine in that one probability, and a
projective image of a line is a line). One gift-wrapping march over the
two arrays finds the hull (`_march`); only its vertices carry a `Policy`,
each re-evaluated by `long_term_metrics` on the same transition table,
which must reproduce its batched values exactly. The constrained optimum
is the frontier value at the access budget, read off the hull by linear
interpolation. Nothing here calls the optimizer, so the check of the
greedy construction is independent of it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .channel import LinkStats
from .mdp import (NetState, Policy, StateSpace, TransitionTable, _backward,
                  count_text, enumerate_states, long_term_metrics,
                  state_count, state_space, transition_table)

MAX_ENUM_STATES = 16
_MASK_BLOCK = 1 << 10         # policies per array pass; bounds its memory
SLOPE_RTOL = 1e-9             # slopes this close, relatively, are one edge


@dataclass(frozen=True)
class FrontierPoint:
    w_s_bar: float
    t_s_bar: float
    policy: Policy


def policy_from_bitmask(mask: int, states: List[NetState]) -> Policy:
    return Policy({s: float((mask >> i) & 1) for i, s in enumerate(states)})


def policy_to_bitmask(policy: Policy, space: StateSpace) -> int:
    mask = 0
    for i, p in enumerate(space.vector(policy)):
        if p not in (0.0, 1.0):
            raise ValueError("bitmask only defined for deterministic policies")
        mask |= int(p) << i
    return mask


def _bitmask_metrics(table: TransitionTable
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Access rate and throughput of every deterministic policy, by bitmask.

    Blocks of `_MASK_BLOCK` bitmasks go through `_backward` as one access
    matrix whose row i holds bit i of each mask, as in
    `policy_from_bitmask`; numpy rounds each elementwise step as Python
    does, so every value equals `long_term_metrics` of that policy.
    """
    n_states = len(table.space.layer)
    n_masks = 1 << n_states
    w, t = np.empty(n_masks), np.empty(n_masks)
    for start in range(0, n_masks, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, n_masks))
        mu = [((masks >> i) & 1).astype(float) for i in range(n_states)]
        g, v, d = _backward(table, mu)
        w[masks], t[masks] = v[0] / d[0], g[0] / d[0]
    return w, t


def _march(w: np.ndarray, t: np.ndarray) -> List[int]:
    """Indices of the upper-left hull vertices of the points (w[i], t[i]),
    gift-wrapped from point 0, the leftmost: each step takes, of the
    points ahead on the steepest ascent (slopes within `SLOPE_RTOL` of the
    steepest count as equal), the farthest, then the higher throughput,
    then the smaller index, and the march stops where no slope is positive.
    """
    hull = [0]
    while True:
        c = hull[-1]
        ahead = np.flatnonzero(w > w[c])
        slope = (t[ahead] - t[c]) / (w[ahead] - w[c])
        steep = slope.max(initial=0.0)
        if steep == 0.0:
            return hull
        edge = ahead[slope >= steep - SLOPE_RTOL * steep]
        edge = edge[w[edge] == w[edge].max()]
        hull.append(int(edge[t[edge] == t[edge].max()][0]))


def check_enumerable(deadline: int, buffer_size: int) -> None:
    """ValueError unless (deadline, buffer_size) is a valid space of at most
    `MAX_ENUM_STATES` states, judged from its closed-form size before any
    of it is built."""
    n_states = state_count(deadline, buffer_size)
    if n_states > MAX_ENUM_STATES:
        raise ValueError(f"state space too large to enumerate "
                         f"({count_text(n_states)} > {MAX_ENUM_STATES})")


def enumerate_frontier(stats: LinkStats, deadline: int,
                       buffer_size: int) -> List[FrontierPoint]:
    """Upper-left hull of all deterministic policies, from the idle policy
    at (0, 0) to the throughput peak; slopes within `SLOPE_RTOL` of each
    other are one edge, so no vertex exists only by rounding. Each vertex
    is the smallest bitmask at its (w_s_bar, t_s_bar) and is evaluated
    again by `long_term_metrics`; RuntimeError unless that reproduces its
    batched values exactly. A space that `check_enumerable` refuses is
    refused first."""
    check_enumerable(deadline, buffer_size)
    table = transition_table(stats, deadline, buffer_size)
    w, t = _bitmask_metrics(table)
    states = enumerate_states(deadline, buffer_size)
    frontier = []
    for mask in _march(w, t):
        w_s, t_s = float(w[mask]), float(t[mask])
        policy = policy_from_bitmask(mask, states)
        m = long_term_metrics(policy, table)
        if (m.w_s_bar, m.t_s_bar) != (w_s, t_s):
            raise RuntimeError(f"batched frontier value ({w_s!r}, {t_s!r}) "
                               f"of policy {mask} differs from its "
                               f"evaluation ({m.w_s_bar!r}, {m.t_s_bar!r})")
        frontier.append(FrontierPoint(w_s, t_s, policy))
    return frontier


def oracle_optimum(eps_w: float, frontier: List[FrontierPoint],
                   stats: LinkStats, deadline: int, buffer_size: int) -> float:
    """Best achievable throughput under access rate <= ``eps_w``.

    Returns the frontier's value at the budget: a vertex value when the
    budget is slack or below the first vertex, otherwise the chord between
    the two bracketing hull vertices. ``stats``, ``deadline`` and
    ``buffer_size`` are unused; they remain for callers that pass them by
    position.
    """
    if not frontier:
        raise ValueError("frontier must be nonempty")
    if eps_w >= frontier[-1].w_s_bar:
        return frontier[-1].t_s_bar
    if eps_w <= frontier[0].w_s_bar:
        return frontier[0].t_s_bar
    j = bisect.bisect_right(frontier, eps_w, key=lambda p: p.w_s_bar) - 1
    a, b = frontier[j], frontier[j + 1]
    frac = (eps_w - a.w_s_bar) / (b.w_s_bar - a.w_s_bar)
    return a.t_s_bar + frac * (b.t_s_bar - a.t_s_bar)


def frontier_csv_rows(frontier: List[FrontierPoint], deadline: int,
                      buffer_size: int) -> List[dict]:
    space = state_space(deadline, buffer_size)
    return [{"w_s_bar": p.w_s_bar, "t_s_bar": p.t_s_bar,
             "policy_bitmask": policy_to_bitmask(p.policy, space)}
            for p in frontier]
