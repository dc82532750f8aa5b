"""Cycle-parallel Monte Carlo simulation of the shared-spectrum network.

Every retransmission cycle starts at the root (1, 0, U) and ends at an ACK
or at the deadline, so cycles are independent and identically distributed.
The simulator draws a chunk of cycles at once and advances them together,
one attempt layer t = 1..D at a time: each layer is one array step over the
cycles still alive (fading draws, the secondary access coin, the primary
ACK/NACK, the secondary receiver's decode outcome from
`RegionClassifier.masks`, and the next state). Laying the chunk's cycles
end to end in order gives the chain's sample path from the root, which is
cut off exactly after ``num_slots`` slots. Decode outcomes use the
classification the link statistics use, so simulated transition
frequencies estimate the analytic transition rows by construction.

The step costs little more than its draws. Each variate is drawn into a
buffer allocated once per chunk (`channel._exponential_into`, bit-identical
to ``rng.exponential``), and the ACK threshold is computed in place in the
gamma_sp buffer. A slot's booleans (active, ACK, primary decoded while
active, gamma_ps >= thr_p, secondary signal buffered) are packed into one
5-bit outcome code, and ``_CODES * state + code`` is the slot's row in
tables built once per chain from `mdp.StateSpace.succ`: the next state,
whether the primary message is decoded, and the transition code. The
counting pass only histograms rows; the reward pass reads the same bits.

Standard errors come from the regenerative ratio estimator (Crane &
Iglehart 1975; Asmussen & Glynn, *Stochastic Simulation*, ch. IV): with y
a complete cycle's reward, tau its length and r the ratio of their sums,
the error of r is sqrt(sum (y - r tau)^2) / sum tau. Only running sums of
y, y^2, y tau, tau and tau^2 are kept, so memory does not grow with
``num_slots``.

Transition counts are folded from the row histogram into a Counter with
one count per (state, action, next state) move the path makes, keyed by
transition-table indices, and `empirical_transition_check` compares the
visited (state, action) rows with the table's, so neither side is ever a
dense n x 2 x n array; a pass collects either the counts or the rewards,
over the same draws.

Reproducibility: one seeded generator; per chunk of cycles, then per layer
t, the draw order is (gamma_s, gamma_p, gamma_sp, gamma_ps,
access-uniform) over the cycles alive at that layer.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .channel import (LinkStats, RegionClassifier, SystemParams,
                      _exponential_into, check_integer)
from .mdp import Policy, state_space, transition_table

_CHUNK = 1 << 14      # cycles simulated together


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    policy: Policy
    num_slots: int
    seed: int

    def __post_init__(self):
        for name in ("num_slots", "seed"):
            check_integer(name, getattr(self, name))
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # raises unless the policy covers the scenario's states exactly
        state_space(self.params.deadline_D,
                    self.params.buffer_B).vector(self.policy)


@dataclass(frozen=True)
class SimResult:
    """Empirical long-term averages with regenerative standard errors.

    A standard error is ``math.inf`` when fewer than two cycles complete,
    null in `to_json`, since strict JSON has no infinity; any other
    non-finite field makes `to_json` raise ValueError.
    """

    t_s_emp: float
    w_s_emp: float
    t_p_emp: float
    stderr_t_s: float
    stderr_w_s: float
    stderr_t_p: float
    fic_bits: float
    bic_bits: float
    u_bits: float
    k_access_slots: int
    buffered_events: int
    cycles_completed: int
    num_slots: int

    def to_json(self) -> str:
        return json.dumps({k: None if v == math.inf else v
                           for k, v in asdict(self).items()}, indent=2,
                          allow_nan=False)


# The bits of a slot's outcome code: the secondary transmits (ACTIVE), the
# primary receiver ACKs (ACK), and the secondary receiver decodes the
# primary message while the secondary transmits (PU_DEC), would decode it
# alone, gamma_ps >= thr_p (P_OK), or buffers the secondary signal (BUF).
ACTIVE, ACK, PU_DEC, P_OK, BUF = 1, 2, 4, 8, 16
_CODES = 32


class _Chain:
    """Scenario constants and the layer-by-layer simulation of cycles.

    States are indexed as in `mdp.StateSpace`; index 0 is the root. A slot
    in state i with outcome code c is row ``_CODES * i + c`` of three
    tables: ``next``, the state it leads to (the layout's ``succ``, or the
    root after an ACK or at the deadline); ``decoded``, whether the
    secondary receiver decodes the primary message; and ``transition``,
    its transition code (2 i + active) * n_states + next.
    """

    def __init__(self, params: SystemParams, policy: Policy):
        self.params = params
        space = state_space(params.deadline_D, params.buffer_B)
        self.mu = np.array(space.vector(policy))
        self.level = np.array(space.level)
        n = len(self.level)
        self.known = np.arange(n) >= space.n_unknown
        self.cls = RegionClassifier(params.rate_su, params.rate_p)
        self.thr_sk = 2.0 ** params.rate_sk - 1.0
        code = np.arange(_CODES)
        active = (code & ACTIVE) > 0
        unknown = ~self.known[:, None]
        decoded = unknown & ((code & np.where(active, PU_DEC, P_OK)) > 0)
        # learn if the primary message was decoded, grow if a signal was
        # buffered and the buffer has room, else stay
        succ = np.array(space.succ).reshape(n, 3)
        grow = unknown & active & ((code & BUF) > 0) & (succ[:, 1:2] > 0)
        nxt = np.take_along_axis(succ, np.where(decoded, 2, grow), axis=1)
        nxt[:, (code & ACK) > 0] = 0
        self.next = nxt.ravel()
        self.decoded = decoded.ravel()
        self.transition = ((2 * np.arange(n)[:, None] + active) * n
                           + nxt).ravel()

    def cycles(self, rng: np.random.Generator, n: int,
               room: Optional[np.ndarray], collect_transitions: bool):
        """Simulate ``n`` cycles laid end to end from the root.

        Returns (sums, lengths, rows); the draws do not depend on ``room``
        or ``collect_transitions``. With ``room`` given, slot t of cycle c
        counts only if t <= room[c]; otherwise every slot counts.
        ``lengths`` holds the full length of every cycle. ``rows`` holds
        the number of counted slots at each table row if
        ``collect_transitions``; otherwise ``sums`` holds the totals over
        counted slots and the moments of the cycles that end in a counted
        slot. The other one is None.
        """
        p = self.params
        deadline = p.deadline_D
        rsu, rsk = p.rate_su, p.rate_sk
        thr_p = self.cls.thr_p
        rows = (np.zeros(len(self.next), dtype=np.int64)
                if collect_transitions else None)
        sums = None if collect_transitions else Counter()
        # one buffer per variate and per bit, sliced to the cycles alive
        gs_buf, gp_buf, gsp_buf, gps_buf, u_buf = np.empty((5, n))
        active_buf, ack_buf, p_ok_buf = np.empty((3, n), dtype=bool)
        code_buf = np.empty(n, dtype=np.uint8)
        row_buf = np.empty(n, dtype=np.int64)
        cyc = np.arange(n)
        state = np.zeros(n, dtype=np.int64)
        y = {"t_s": np.zeros(n), "w_s": np.zeros(n)}
        lengths = np.zeros(n)
        acked = np.zeros(n, dtype=bool)
        for t in range(1, deadline + 1):
            m = len(cyc)
            if m == 0:
                break
            gs = _exponential_into(rng, p.mean_snr_s, gs_buf[:m])
            gp = _exponential_into(rng, p.mean_snr_p, gp_buf[:m])
            gsp = _exponential_into(rng, p.mean_snr_sp, gsp_buf[:m])
            gps = _exponential_into(rng, p.mean_snr_ps, gps_buf[:m])
            u = rng.random(out=u_buf[:m])
            active = np.less(u, self.mu[state], out=active_buf[:m])
            # gsp becomes the ACK threshold thr_p * (1 + gamma_sp * active),
            # inf beyond the double range. An idle slot's is exactly thr_p:
            # where gamma_sp overflowed to inf, inf * 0 is NaN, and fmax
            # turns that NaN into 0.
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(gsp, active, out=gsp)
                np.fmax(gsp, 0.0, out=gsp)
                np.add(gsp, 1.0, out=gsp)
                np.multiply(gsp, thr_p, out=gsp)
            ack = np.greater_equal(gp, gsp, out=ack_buf[:m])
            pu_dec, su_dec, buf_dec = self.cls.masks(gs, gps)
            p_ok = np.greater_equal(gps, thr_p, out=p_ok_buf[:m])
            # the outcome code, most significant bit first, doubled by uint8
            # additions (numpy's uint8 shifts ran about four times slower)
            code = code_buf[:m]
            np.copyto(code, buf_dec.view(np.uint8))
            for bit in (p_ok, pu_dec, ack, active):
                np.add(code, code, out=code)
                np.add(code, bit.view(np.uint8), out=code)
            row = np.multiply(state, _CODES, out=row_buf[:m])
            np.add(row, code, out=row)
            nxt = self.next[row]

            # every live cycle is written; a cycle's last write is its end
            lengths[cyc] = t
            live = slice(None) if room is None else room[cyc] >= t
            if rows is not None:
                rows += np.bincount(row[live], minlength=len(rows))
            else:
                acked[cyc] = ack
                counted = cyc[live]
                known = self.known[state]
                k_access = active & known
                fic = k_access & (gs >= self.thr_sk)
                fresh = active & ~known & su_dec
                bic = self.decoded[row] * (self.level[state] * rsu)
                y["t_s"][counted] += (fic * rsk + fresh * rsu + bic)[live]
                y["w_s"][counted] += active[live]
                sums["u_bits"] += rsu * int(np.count_nonzero(fresh[live]))
                sums["fic_bits"] += rsk * int(np.count_nonzero(fic[live]))
                sums["bic_bits"] += float(bic[live].sum())
                sums["k_access_slots"] += int(np.count_nonzero(k_access[live]))
                sums["buffered_events"] += int(np.count_nonzero(
                    (active & ~known & buf_dec)[live]))

            # the root is never a successor within a cycle: next 0 ends it
            stay = np.flatnonzero(nxt != 0)
            cyc, state = cyc[stay], nxt[stay]

        if sums is None:
            return None, lengths, rows
        # an ACK is a cycle's last slot, so only complete cycles carry one
        done = np.full(n, True) if room is None else lengths <= room
        y["t_p"] = p.rate_p * (acked & done)
        tau = lengths[done]
        sums["cycles_completed"] += len(tau)
        sums["tau"] += float(tau.sum())
        sums["tau_sq"] += float(tau @ tau)
        for key in ("t_s", "w_s", "t_p"):
            sums[key] += float(y[key].sum())
            whole = y[key][done]
            sums[key + "_cyc"] += float(whole.sum())
            sums[key + "_sq"] += float(whole @ whole)
            sums[key + "_tau"] += float(whole @ tau)
        return sums, lengths, None


def _ratio_stderr(sums: Counter, key: str) -> float:
    """Regenerative standard error of the long-term ratio of ``key``.

    sum (y - r tau)^2 over complete cycles, expanded into the running
    moments, with r the ratio of their sums; rounding can push it a hair
    below zero when y is proportional to tau.
    """
    if sums["cycles_completed"] < 2:
        return math.inf
    tau = sums["tau"]
    r = sums[key + "_cyc"] / tau
    sq = (sums[key + "_sq"] - 2.0 * r * sums[key + "_tau"]
          + r * r * sums["tau_sq"])
    return math.sqrt(max(sq, 0.0)) / tau


def _simulate(params: SystemParams, policy: Policy, num_slots: int, seed: int,
              collect_transitions: bool):
    """Return (result, moves) of the first ``num_slots`` slots of the
    sample path of ``seed``. With ``collect_transitions``, result is None
    and ``moves`` a Counter of the moves the path makes: ``moves[(2 i + a)
    n + j]`` slots moved state i under action a (0 idle, 1 active) to
    state j, n the state count; otherwise moves is None."""
    chain = _Chain(params, policy)
    rng = np.random.default_rng(seed)
    sums, rows, slots = Counter(), 0, 0
    while slots < num_slots:
        left = num_slots - slots
        n = min(_CHUNK, left)       # every cycle lasts at least one slot
        before = rng.bit_generator.state
        part, lengths, part_rows = chain.cycles(rng, n, None,
                                                collect_transitions)
        total = int(lengths.sum())
        if total > left:
            # the path ends inside this chunk: repeat its draws, counting
            # slot t of cycle c only if start[c] + t - 1 < left
            rng.bit_generator.state = before
            room = left - (np.cumsum(lengths) - lengths)
            part, _, part_rows = chain.cycles(rng, n, room,
                                              collect_transitions)
        slots += min(total, left)
        if collect_transitions:
            rows = rows + part_rows
        else:
            sums.update(part)
    if collect_transitions:
        moves = Counter()
        for code, count in zip(chain.transition.tolist(), rows.tolist()):
            if count:
                moves[code] += count
        return None, moves
    return SimResult(
        t_s_emp=sums["t_s"] / num_slots,
        w_s_emp=sums["w_s"] / num_slots,
        t_p_emp=sums["t_p"] / num_slots,
        stderr_t_s=_ratio_stderr(sums, "t_s"),
        stderr_w_s=_ratio_stderr(sums, "w_s"),
        stderr_t_p=_ratio_stderr(sums, "t_p"),
        fic_bits=sums["fic_bits"],
        bic_bits=sums["bic_bits"],
        u_bits=sums["u_bits"],
        k_access_slots=sums["k_access_slots"],
        buffered_events=sums["buffered_events"],
        cycles_completed=sums["cycles_completed"],
        num_slots=num_slots,
    ), None


def run(config: SimConfig) -> SimResult:
    """Simulate the chain and return empirical long-term metrics."""
    result, _ = _simulate(config.params, config.policy, config.num_slots,
                          config.seed, collect_transitions=False)
    return result


def empirical_transition_check(config: SimConfig, stats: LinkStats) -> float:
    """Maximum absolute gap between empirical one-step transition
    frequencies (conditioned on state and action) and the analytic rows of
    ``stats``, over the (state, action) pairs the run visits.

    Each visited row compares the successors seen with the table's
    analytic ones (the layout's successors and the root, which takes the
    cycle-ending mass as in `mdp.TransitionTable.matrix`), so a move to a
    state the table does not allow is a gap too. Every other entry of the
    row is zero on both sides, so memory stays linear in the state count.
    """
    _, moves = _simulate(config.params, config.policy, config.num_slots,
                         config.seed, collect_transitions=True)
    table = transition_table(stats, config.params.deadline_D,
                             config.params.buffer_B)
    n = len(table.space.layer)
    totals = Counter()                      # by row 2 i + a
    for code, count in moves.items():
        totals[code // n] += count
    gap = Counter({code: count / totals[code // n]
                   for code, count in moves.items()})
    for row in totals:
        i = row // 2
        p = (table.p_active if row % 2 else table.p_idle)[3 * i:3 * i + 3]
        gap[row * n] -= ((1.0 - p[0]) - p[1]) - p[2]
        for j, q in zip(table.succ[3 * i:3 * i + 3], p):
            if j:
                gap[row * n + j] -= q
    return max(abs(g) for g in gap.values())
