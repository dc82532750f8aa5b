"""Brute-force certification of the greedy optimizer at desk scale.

Every deterministic policy over a small state space is evaluated exactly;
the upper-left convex hull of the resulting (access rate, throughput)
cloud is the achievable frontier, because a policy randomized in a single
state traces the straight chord between the two deterministic policies it
mixes (all three per-cycle quantities are affine in that one probability,
and a projective image of a line is a line). The constrained optimum is
therefore the frontier value at the access budget, read off the hull by
linear interpolation. Nothing here calls the optimizer, so the check of
the greedy construction is independent of it. The 2^N candidates are kept
as (access rate, throughput, bitmask) triples; only the hull vertices that
`enumerate_frontier` returns carry a `Policy`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List

from .channel import LinkStats
from .mdp import (NetState, Policy, StateSpace, enumerate_states,
                  long_term_metrics, state_space)

MAX_ENUM_STATES = 16


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


def _cross(o, a, b) -> float:
    """Cross product of (a - o) and (b - o) on (w_s_bar, t_s_bar, ...) tuples."""
    return ((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def enumerate_frontier(stats: LinkStats, deadline: int,
                       buffer_size: int) -> List[FrontierPoint]:
    """Upper-left hull of all deterministic policies, sorted by access rate.

    Vertices are strict corners (collinear interior points are dropped)
    and the chain is truncated at its throughput maximum, so slopes are
    strictly decreasing and positive left to right.
    """
    states = enumerate_states(deadline, buffer_size)
    if len(states) > MAX_ENUM_STATES:
        raise ValueError(f"state space too large to enumerate "
                         f"({len(states)} > {MAX_ENUM_STATES})")
    points = []
    for mask in range(1 << len(states)):
        m = long_term_metrics(policy_from_bitmask(mask, states), stats,
                              deadline, buffer_size)
        points.append((m.w_s_bar, m.t_s_bar, mask))
    points.sort()
    # Keep only the best throughput at (numerically) equal access rates.
    dedup = []
    for p in points:
        if dedup and abs(p[0] - dedup[-1][0]) <= 1e-14:
            dedup[-1] = p
        else:
            dedup.append(p)
    hull = []
    for p in dedup:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    best = max(range(len(hull)), key=lambda i: hull[i][1])
    return [FrontierPoint(w_s_bar=w, t_s_bar=t,
                          policy=policy_from_bitmask(mask, states))
            for w, t, mask in hull[:best + 1]]


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
