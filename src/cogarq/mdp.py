"""Markov decision process over the primary retransmission cycle.

The network state is (t, b, phi): retransmission attempt index t in [1, D],
secondary receive-buffer occupancy b, and message-knowledge flag phi (K if
the secondary receiver currently knows the primary message, U otherwise).
A stationary randomized access policy maps every state to a transmit
probability. Long-term averages follow from the renewal structure of the
retransmission cycle: every cycle starts in (1, 0, U) and ends at an ACK or
at the deadline, so a single backward pass over t yields the expected
per-cycle reward, accesses, and duration, whose ratios are the long-term
throughput and access rate.

`StateSpace` owns the state layout of one (D, B): which states exist,
their canonical index order, each state's buffer level and at most three
successors (stay, grow, learn), and a `Policy`'s access vector in that
order; `state_space` refuses a space of more than `MAX_STATES` states.
`cycle_values` reads one flat transition table per (stats, D, B), built
once by the caller (`transition_table`): per state index, the successor
probabilities under each action and the one-slot throughput at access
probability 1 and 0. `long_term_metrics` is the ratio at its root. The
backward pass, and its forward mirror behind the occupancy, run over plain
lists; the greedy walk runs it on its own access vector, by index.
`CycleValues` is the pass's three lists by state index and nothing else;
`Policy` dicts and `NetState` keys appear only at the API boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .channel import LinkStats, brief, check_integer

PHI_U = "U"
PHI_K = "K"
# The largest state space `state_space` builds. A walk's time grows about
# as the square of the state count (B = D - 1: 0.61 s at D = 40, 9.5 s at
# D = 80, 2-vCPU VM), so a `solve` near the cap takes about 16 minutes;
# past it, a config or sweep deadline could take hours or exhaust memory.
MAX_STATES = 1 << 15


@dataclass(frozen=True)
class NetState:
    """One network state: attempt index t, buffer level b, knowledge flag."""

    t: int
    b: int
    phi: str

    def key(self) -> Tuple[int, int, int]:
        return (0 if self.phi == PHI_U else 1, self.t, self.b)


@dataclass(frozen=True)
class Policy:
    """Stationary randomized access policy: state -> transmit probability."""

    probs: Mapping[NetState, float]

    def with_prob(self, state: NetState, p: float) -> "Policy":
        new = dict(self.probs)
        new[state] = p
        return Policy(new)


def policy_to_json_obj(policy: Policy) -> list:
    rows = sorted(policy.probs.items(), key=lambda kv: kv[0].key())
    return [{"t": s.t, "b": s.b, "phi": s.phi, "prob": p} for s, p in rows]


def policy_from_json_obj(obj: list) -> Policy:
    """Policy from its JSON rows: a list of objects with keys t, b, phi
    and prob, and no other key, since a misspelt one would be ignored. A
    row's t and b must be integers, its phi "U" or "K" and its prob a
    number in [0, 1], since JSON true would read as 1, a list would not
    hash and "0.5" would parse; a state given twice is rejected, since one
    row would silently override the other."""
    if not isinstance(obj, list):
        raise ValueError("a policy is a list of rows, got "
                         + type(obj).__name__)
    probs: Dict[NetState, float] = {}
    for i, r in enumerate(obj):
        if not isinstance(r, dict):
            raise ValueError(f"policy row {i} is not an object: {brief(r)}")
        missing = [k for k in ("t", "b", "phi", "prob") if k not in r]
        if missing:
            raise ValueError(f"policy row {i} lacks {', '.join(missing)}: "
                             f"{brief(r)}")
        unknown = sorted(set(r) - {"t", "b", "phi", "prob"})
        if unknown:
            raise ValueError(f"policy row {i} has unknown keys: "
                             f"{brief(', '.join(unknown), str)}")
        check_integer("t", r["t"])
        check_integer("b", r["b"])
        prob = r["prob"]
        # checked before float(), which raises OverflowError on a JSON
        # integer past the double range
        if (isinstance(prob, bool) or not isinstance(prob, numbers.Real)
                or not 0 <= prob <= 1):
            raise ValueError("prob must be a number in [0, 1], got "
                             + brief(prob))
        if r["phi"] not in (PHI_U, PHI_K):
            raise ValueError(f"policy row {i}: phi must be {PHI_U!r} or "
                             f"{PHI_K!r}, got {brief(r['phi'])}")
        s = NetState(r["t"], r["b"], r["phi"])
        if s in probs:
            raise ValueError(f"state {brief(s)} appears twice in the "
                             "policy")
        probs[s] = float(prob)
    return Policy(probs)


class StateSpace(NamedTuple):
    """The states of one (deadline, buffer size) in canonical index order.

    The unknown-message states come first, sorted by (t, b), then the
    known-message states (t, 0, K), t >= 2, sorted by t: the order of
    `NetState.key`. At attempt t at most t - 1 signals can have been
    buffered, and at most ``buffer_size``. ``offsets[t]`` counts the
    unknown-message states before attempt t, so the unknown-message state
    (t, b) sits at ``offsets[t] + b`` and the known-message state t at
    ``n_unknown + t - 2``; ``layer[i]`` and ``level[i]`` are the attempt
    index and buffer level (0 if known) of state i, and index 0 is the
    cycle root. ``succ[3i + k]`` is state i's stay, grow or learn
    successor (k = 0, 1, 2) of `slot_law`, or 0, the root, where that
    outcome ends the cycle or cannot happen. Built by `state_space`.
    """

    deadline: int
    buffer_size: int
    offsets: List[int]
    n_unknown: int
    layer: List[int]
    level: List[int]
    succ: List[int]

    def index(self, state: NetState) -> int:
        """Index of ``state``; ValueError for a state outside the space."""
        t, b = state.t, state.b
        if (state.phi == PHI_U and 0 <= b < t <= self.deadline
                and b <= self.buffer_size):
            return self.offsets[t] + b
        if state.phi == PHI_K and 2 <= t <= self.deadline and b == 0:
            return self.n_unknown + t - 2
        raise ValueError(f"invalid state {brief(state)} for "
                         f"D={self.deadline}, B={self.buffer_size}")

    def state(self, i: int) -> NetState:
        """The state at index ``i``."""
        return NetState(self.layer[i], self.level[i],
                        PHI_K if i >= self.n_unknown else PHI_U)

    def states(self) -> List[NetState]:
        """Every state, in index order."""
        return [self.state(i) for i in range(len(self.layer))]

    def vector(self, policy: Policy) -> List[float]:
        """The policy's access probabilities, by index.

        Raises ValueError unless the policy covers the space exactly with
        probabilities in [0, 1].
        """
        n = len(self.layer)
        if len(policy.probs) != n:
            raise ValueError("policy does not cover the state space exactly")
        mu = [0.0] * n
        for s, p in policy.probs.items():
            i = self.index(s)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"access probability {p} at {s} outside [0, 1]")
            mu[i] = p
        return mu


def state_count(deadline: int, buffer_size: int) -> int:
    """The number of states of `state_space` (deadline, buffer_size), in
    closed form: min(t, B + 1) unknown-message states at each attempt t,
    plus D - 1 known-message ones. ValueError unless deadline >= 1 and
    buffer_size lies in [0, deadline - 1]."""
    if deadline < 1:
        raise ValueError("deadline must be >= 1")
    if not 0 <= buffer_size <= deadline - 1:
        raise ValueError("buffer_size must lie in [0, deadline - 1]")
    full = buffer_size + 1      # attempts 1..full hold 1..full states each
    return full * (full + 1) // 2 + (deadline - full) * full + deadline - 1


def state_space(deadline: int, buffer_size: int) -> StateSpace:
    """The state space of a deadline and buffer size; ValueError as in
    `state_count`, and for more than `MAX_STATES` states, judged from
    `state_count` before any of it is built."""
    n_states = state_count(deadline, buffer_size)
    if n_states > MAX_STATES:
        raise ValueError(f"state space too large ({brief(n_states)} > "
                         f"{MAX_STATES} states)")
    offsets, layer, level = [0, 0], [], []
    for t in range(1, deadline + 1):
        levels = min(t - 1, buffer_size) + 1
        offsets.append(offsets[-1] + levels)
        layer += [t] * levels
        level += range(levels)
    n_u = offsets[-1]
    succ: List[int] = []
    for t in range(1, deadline):
        nxt, learn = offsets[t + 1], n_u + t - 1
        for b in range(nxt - offsets[t]):
            succ += (nxt + b, nxt + b + 1 if b < buffer_size else 0, learn)
    succ += [0] * (3 * (n_u - offsets[deadline]))      # the deadline
    for t in range(2, deadline + 1):                    # the known chain
        succ += (n_u + t - 1 if t < deadline else 0, 0, 0)
    layer += range(2, deadline + 1)
    level += [0] * (deadline - 1)
    return StateSpace(deadline, buffer_size, offsets, n_u, layer, level, succ)


def enumerate_states(deadline: int, buffer_size: int) -> List[NetState]:
    """The states of `state_space` (deadline, buffer_size), in index order."""
    return state_space(deadline, buffer_size).states()


def slot_law(level, room, nack, decoded, undecoded, buffered, fresh, clean,
             rate_su) -> tuple:
    """What one slot does: the one definition of the transition row and
    the slot reward. A state class is the known-message states (``level``
    None) or the unknown-message states at buffer ``level``, with or
    without ``room`` for one more signal. The events are one action's:
    NACK, primary message decoded or not, secondary signal buffered (part
    of not decoded), secondary bits decoded under interference (``fresh``)
    and on a clean channel. Returns the stay, grow and learn masses of
    `StateSpace.succ` (an ACK ends the cycle), then the bits of forward IC,
    fresh decodes and backward IC; the reward is their sum. A mass is the
    NACK, independent of the decode events, times at most one event of the
    partition decoded, buffered, neither, or a sum of such; bits are one
    event times constants. So on probabilities each output is its
    expectation, and on 0/1 values with a unit ``rate_su`` it counts."""
    if level is None:
        return nack, 0.0, 0.0, clean, 0.0, 0.0
    if room:
        stay, grow = nack * (undecoded - buffered), nack * buffered
    else:
        stay, grow = nack * undecoded, 0.0
    return stay, grow, nack * decoded, 0.0, fresh, decoded * level * rate_su


class TransitionTable(NamedTuple):
    """Transition data of one (stats, deadline, buffer size).

    State i moves to ``space.succ[3i + k]`` with probability
    ``p_active[3i + k]`` when it transmits and ``p_idle[3i + k]`` when it
    is idle; the rest of its mass (an ACK, or the deadline) ends the
    cycle. A new cycle carries no continuation value, and the backward
    pass reads the root's value before writing it, so the root doubles as
    the zero sink. ``r_active`` and ``r_idle`` are the one-slot throughput
    at access probability 1 and 0; it is affine in between.
    """

    stats: LinkStats
    space: StateSpace
    p_active: List[float]
    p_idle: List[float]
    r_active: List[float]
    r_idle: List[float]


def transition_table(stats: LinkStats, deadline: int,
                     buffer_size: int) -> TransitionTable:
    """The `slot_law` of ``stats`` on the layout of `state_space`
    (deadline, buffer_size), state by state: state i takes the law of the
    known-message class from index ``space.n_unknown`` on, else of level
    ``space.level[i]``; at the deadline every outcome ends the cycle."""
    space = state_space(deadline, buffer_size)
    stats.validate()
    # a transmitting and an idle slot's events (an idle one never buffers),
    # then the (active, idle) laws of the levels 0..B and the known states,
    # as successor masses and one-slot rewards
    events = ((stats.q_pp_active, 1.0 - stats.q_ps_active, stats.q_ps_active,
               stats.p_buf, stats.t_su, stats.t_sk),
              (stats.q_pp_idle, 1.0 - stats.q_ps_idle, stats.q_ps_idle,
               0.0, 0.0, 0.0))
    laws = [[slot_law(level, level != buffer_size, *e, stats.rate_su)
             for e in events] for level in (*range(buffer_size + 1), None)]
    rows = [(a[:3], i[:3], sum(a[3:]), sum(i[3:])) for a, i in laws]
    row = [rows[b] if i < space.n_unknown else rows[-1]
           for i, b in enumerate(space.level)]
    live = [t < deadline for t in space.layer]
    end = (0.0, 0.0, 0.0)
    return TransitionTable(
        stats, space,
        [p for r, on in zip(row, live) for p in (r[0] if on else end)],
        [p for r, on in zip(row, live) for p in (r[1] if on else end)],
        [r[2] for r in row], [r[3] for r in row])


class CycleValues(NamedTuple):
    """Expected per-cycle reward, accesses, and slots from each start state,
    by state index of the table they were computed on: the values from
    state s are at ``table.space.index(s)``, and index 0 is the cycle root.
    """

    g: List[float]
    v: List[float]
    dur: List[float]


def _backward(table: TransitionTable, mu: List[float]) -> CycleValues:
    """Per-cycle reward, accesses and slots from every state, by index.

    Successors lie one attempt later, and every known-message state and
    every later attempt comes after a state in canonical order, so one
    pass from the last index to the first sees each successor finished.
    ``mu[i]`` may also be an array of access probabilities, one per
    policy: the pass then runs elementwise over all of them, with the
    root's ``0.0`` broadcasting as the zero sink, and each value equals
    the one a single-policy pass gives, since numpy rounds each float64
    step as Python does.
    """
    n = len(mu)
    g = [0.0] * n
    v = [0.0] * n
    d = [0.0] * n
    succ, p_act, p_idl = table.space.succ, table.p_active, table.p_idle
    r_act, r_idl = table.r_active, table.r_idle
    for i in range(n - 1, -1, -1):
        m = mu[i]
        u = 1.0 - m
        k = 3 * i
        j0, j1, j2 = succ[k], succ[k + 1], succ[k + 2]
        p0 = m * p_act[k] + u * p_idl[k]
        p1 = m * p_act[k + 1] + u * p_idl[k + 1]
        p2 = m * p_act[k + 2] + u * p_idl[k + 2]
        g[i] = (m * r_act[i] + u * r_idl[i]) + (p0 * g[j0] + p1 * g[j1]
                                                + p2 * g[j2])
        v[i] = m + (p0 * v[j0] + p1 * v[j1] + p2 * v[j2])
        d[i] = 1.0 + (p0 * d[j0] + p1 * d[j1] + p2 * d[j2])
    return CycleValues(g, v, d)


def _visits(table: TransitionTable, mu: List[float]) -> List[float]:
    """Expected visits per cycle to every state, by index.

    The mirror of `_backward`: every successor comes after its state in
    canonical order, so one pass from the root to the last index sees
    each state's inflow complete before passing it on. The root is
    visited once per cycle; successor 0 has probability 0 in the table,
    so it gains nothing. A state the policy cannot reach keeps exactly
    zero, and the visits sum to the root's expected duration.
    """
    x = [0.0] * len(mu)
    x[0] = 1.0
    succ, p_act, p_idl = table.space.succ, table.p_active, table.p_idle
    for i, m in enumerate(mu):
        xi, u = x[i], 1.0 - m
        for k in range(3 * i, 3 * i + 3):
            x[succ[k]] += xi * (m * p_act[k] + u * p_idl[k])
    return x


@dataclass(frozen=True)
class PolicyMetrics:
    """Long-term averages of one policy.

    ``p_s_ratio`` is the mean secondary power draw as a fraction of the
    per-slot transmit power, which equals the access rate ``w_s_bar``.
    """

    t_s_bar: float
    w_s_bar: float
    t_p_bar: float
    p_s_ratio: float


def cycle_values(policy: Policy, table: TransitionTable) -> CycleValues:
    """Per-cycle expected reward/access/duration from every state.

    One backward pass over ``table``; transitions into the cycle root
    (1, 0, U) contribute no continuation because they end the cycle.
    """
    return _backward(table, table.space.vector(policy))


def ratio_metrics(g: float, v: float, d: float,
                  stats: LinkStats) -> PolicyMetrics:
    """Long-term metrics from per-cycle reward g, accesses v, duration d;
    the primary throughput falls linearly in the access rate v / d."""
    t_s = g / d
    w_s = v / d
    t_p = stats.t_p_idle - (stats.t_p_idle - stats.t_p_active) * w_s
    return PolicyMetrics(t_s_bar=t_s, w_s_bar=w_s, t_p_bar=t_p, p_s_ratio=w_s)


def long_term_metrics(policy: Policy, table: TransitionTable) -> PolicyMetrics:
    """Long-term averages via the renewal-reward ratio at the cycle root."""
    values = cycle_values(policy, table)
    return ratio_metrics(values.g[0], values.v[0], values.dur[0], table.stats)


def stationary_distribution(policy: Policy, stats: LinkStats, deadline: int,
                            buffer_size: int) -> Dict[NetState, float]:
    """Steady-state occupancy of every state under ``policy``, by index.

    By renewal-reward, a state's long-run share of slots is its expected
    visits per cycle (`_visits`) over the expected cycle length, their
    sum. A state unreachable from the root gets exactly zero.
    """
    table = transition_table(stats, deadline, buffer_size)
    x = _visits(table, table.space.vector(policy))
    total = sum(x)
    return {table.space.state(i): xi / total for i, xi in enumerate(x)}


def occupancy_metrics(policy: Policy, stats: LinkStats, deadline: int,
                      buffer_size: int) -> Tuple[float, float]:
    """(t_s_bar, w_s_bar) recomputed from the expected visits per cycle.

    Independent accounting used to cross-check the renewal-reward route:
    the access rate is the occupancy-weighted access probability and the
    throughput splits into plain secondary bits, the clean-channel bonus
    in known-message states, and buffered-recovery bits.
    """
    table = transition_table(stats, deadline, buffer_size)
    space = table.space
    mu = space.vector(policy)
    x = _visits(table, mu)
    total = sum(x)
    acc = [xi * m for xi, m in zip(x, mu)]
    f_s = sum(acc[space.n_unknown:]) * (stats.t_sk - stats.t_su)
    b_s = 0.0
    for i in range(space.n_unknown):
        decode = (1.0 - stats.q_ps_idle
                  - mu[i] * (stats.q_ps_active - stats.q_ps_idle))
        b_s += x[i] * space.level[i] * stats.rate_su * decode
    w_s = sum(acc) / total
    return stats.t_su * w_s + (f_s + b_s) / total, w_s
