"""Cycle-parallel Monte Carlo simulation of the shared-spectrum network.

Every retransmission cycle starts at the root (1, 0, U) and ends at an ACK
or at the deadline, so cycles are independent and identically distributed.
The simulator draws a chunk of cycles at once and advances them together,
one attempt layer t = 1..D at a time: each layer is one array step over the
cycles still alive (fading draws, the secondary access coin, the primary
ACK/NACK, the secondary receiver's decode outcome from
`RegionClassifier.masks`, and the next state). Laying the chunk's cycles
end to end in order gives the chain's sample path from the root, which is
cut off exactly after ``num_slots`` slots.

The step costs little more than its draws. Each variate is drawn into a
buffer allocated once per chain (`_exponential_into`, bit-identical to
``rng.exponential``), the ACK threshold is computed in place in the
gamma_sp buffer, and each slot's cycle and row go to a buffer that grows
by doubling with the slots drawn, never past D slots per cycle. A slot's
seven booleans (`ACTIVE` to `SK_OK`) are packed into one outcome code,
whose 0/1 events `mdp.slot_law` maps to the next state and to what the
slot adds to each output, as it maps the link statistics to the analytic
rows. The step only samples: slot t of cycle c is slot start[c] + t of
its chunk, one mask keeps it iff that is at most the slots left, so
each chunk is drawn once, and every total is a histogram times a table.

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
dense n x 2 x n array.

Reproducibility: one seeded generator; per chunk of cycles, then per layer
t, the draw order is (gamma_s, gamma_p, gamma_sp, gamma_ps,
access-uniform) over the cycles alive at that layer.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .channel import LinkStats, RegionClassifier, SystemParams, check_integer
from .mdp import Policy, slot_law, state_space, transition_table

_CHUNK = 1 << 14      # cycles simulated together


def _exponential_into(rng: np.random.Generator, mean: float,
                      out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with exponential draws of mean ``mean``, bit-identical to
    ``rng.exponential(mean, len(out))`` and consuming the same stream
    (which also gives inf, without a warning, beyond the double range)."""
    rng.standard_exponential(out=out)
    with np.errstate(over="ignore"):
        out *= mean
    return out


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
# alone, gamma_ps >= thr_p (P_OK), buffers the secondary signal (BUF),
# decodes the secondary message (SU_DEC), or would decode it on a clean
# channel at the known-message rate, gamma_s >= thr_sk (SK_OK).
ACTIVE, ACK, PU_DEC, P_OK, BUF, SU_DEC, SK_OK = 1, 2, 4, 8, 16, 32, 64
_CODES = 128


class _Chain:
    """Scenario constants, slot tables and the layer-by-layer sampler.

    States are indexed as in `mdp.StateSpace`; index 0 is the root, and
    ``layer[i]`` is state i's attempt index. A slot in state i with outcome
    code c is row ``_CODES * i + c`` of ``next``, the state it leads to
    (the root ends the cycle), and row ``class_row[i] + c`` of the
    `mdp.slot_law` class tables of what it adds to its cycle's t_s, w_s and
    t_p (``cycle_adds``) and to the summed `SimResult` counts (``counts``).
    """

    def __init__(self, params: SystemParams, policy: Policy):
        self.params = params
        space = state_space(params.deadline_D, params.buffer_B)
        self.mu = np.array(space.vector(policy))
        self.layer = np.array(space.layer, dtype=np.int32)
        n, n_u, cap = len(space.layer), space.n_unknown, params.buffer_B
        self.cls = RegionClassifier(params.rate_su, params.rate_p)
        self.thr_sk = 2.0 ** params.rate_sk - 1.0
        code = np.arange(_CODES)
        active, ack, pu_dec, p_ok, buf, su_dec, sk_ok = (
            code // bit % 2
            for bit in (ACTIVE, ACK, PU_DEC, P_OK, BUF, SU_DEC, SK_OK))
        decoded = np.where(active, pu_dec, p_ok)
        # flat (class, code) tables, classes 0..B then known; bits as counts
        stay, grow, learn, fic, fresh, bic, active, ack, buf, known = np.array(
            [np.broadcast_arrays(*slot_law(
                level, level != cap, 1 - ack, decoded, 1 - decoded,
                active & buf, active & su_dec, active & sk_ok, 1),
                active, ack, buf, level is None)
             for level in (*range(cap + 1), None)],
            dtype=np.int64).transpose(1, 0, 2).reshape(10, -1)
        classes = np.where(np.arange(n) < n_u, space.level, cap + 1)
        self.class_row = (classes * _CODES).astype(np.int32)
        # the successor k of `succ[3 i + k]` whose mass is 1 on a code that
        # can be drawn, or the root (k = 3) where the law leaves none
        succ = np.pad(np.int32(space.succ).reshape(n, 3), ((0, 0), (0, 1)))
        k = (3 - 3 * stay - 2 * grow - learn).astype(np.int8)
        self.next = np.take_along_axis(succ, k.reshape(-1, _CODES)[classes],
                                       axis=1).ravel()
        rsu, rsk = params.rate_su, params.rate_sk
        self.cycle_adds = {"t_s": fic * rsk + fresh * rsu + bic * rsu,
                           "w_s": active, "t_p": ack * params.rate_p}
        self.counts = {"fic": fic, "fresh": fresh, "levels": bic,
                       "k_access_slots": active * known,
                       "buffered_events": active * buf * (1 - known)}
        # one buffer per variate and per bit, sliced to the cycles alive,
        # and the cycle and row of each slot of a chunk, which `_hold`
        # grows as the layers are drawn; `cycles` fills them in place
        self.draws = np.empty((5, _CHUNK))
        self.bits = np.empty((4, _CHUNK), dtype=bool)
        self.code = np.empty(_CHUNK, dtype=np.uint8)
        self.slots = np.empty((2, 0), dtype=np.int32)

    def _hold(self, need: int) -> None:
        """Make the slot buffer hold at least ``need`` slots, keeping the
        slots it holds: it at least doubles, up to the D slots of every
        cycle of a full chunk."""
        have = self.slots.shape[1]
        if need > have:
            grown = np.empty((2, min(max(need, 2 * have),
                                     _CHUNK * self.params.deadline_D)),
                             dtype=np.int32)
            grown[:, :have] = self.slots
            self.slots = grown

    def cycles(self, rng: np.random.Generator, n: int):
        """Draw ``n`` <= `_CHUNK` cycles from the root, one attempt layer
        at a time.

        Returns (cycle, row): the cycle, 0..n-1, and the table row of
        every slot drawn, layer after layer, each layer in cycle order;
        both are int32 views that the next call may overwrite (`np.take`
        reads int32 indices without the cast that indexing makes).
        """
        p = self.params
        thr_p = self.cls.thr_p
        gs_buf, gp_buf, gsp_buf, gps_buf, u_buf = self.draws
        active_buf, ack_buf, p_ok_buf, sk_buf = self.bits
        self._hold(n)
        self.slots[0, :n] = np.arange(n)
        state = np.zeros(n, dtype=np.int32)
        drawn = 0
        while len(state):
            m = len(state)
            gs = _exponential_into(rng, p.mean_snr_s, gs_buf[:m])
            gp = _exponential_into(rng, p.mean_snr_p, gp_buf[:m])
            gsp = _exponential_into(rng, p.mean_snr_sp, gsp_buf[:m])
            gps = _exponential_into(rng, p.mean_snr_ps, gps_buf[:m])
            u = rng.random(out=u_buf[:m])
            active = np.less(u, np.take(self.mu, state), out=active_buf[:m])
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
            sk_ok = np.greater_equal(gs, self.thr_sk, out=sk_buf[:m])
            # the outcome code, most significant bit first, doubled by uint8
            # additions (numpy's uint8 shifts ran about four times slower)
            code = self.code[:m]
            np.copyto(code, sk_ok.view(np.uint8))
            for bit in (su_dec, buf_dec, p_ok, pu_dec, ack, active):
                np.add(code, code, out=code)
                np.add(code, bit.view(np.uint8), out=code)
            # the buffer already holds this layer's slots: the previous
            # layer made room for their cycles
            cycle, row = self.slots
            here = slice(drawn, drawn + m)
            np.multiply(state, _CODES, out=row[here])
            np.add(row[here], code, out=row[here])
            nxt = np.take(self.next, row[here])
            # the root is never a successor within a cycle: next 0 ends it
            stay = np.flatnonzero(nxt != 0)
            drawn += m
            self._hold(drawn + len(stay))
            cycle = self.slots[0]
            np.take(cycle[here], stay, out=cycle[drawn:drawn + len(stay)])
            state = nxt[stay]
        return self.slots[0, :drawn], self.slots[1, :drawn]


def _path(chain: _Chain, num_slots: int, seed: int):
    """The first ``num_slots`` slots of the sample path of ``seed``.

    Yields (n, done, cycle, row) per chunk of ``n`` cycles, of which the
    first ``done`` are complete: the cycle and row of its slots on the
    path, as `_Chain.cycles` orders them. Where the path ends inside the
    chunk, one mask keeps slot t of cycle c, t its state's attempt index,
    iff start[c] + t is at most the slots left, whatever the order.
    """
    rng = np.random.default_rng(seed)
    left = num_slots
    while left:
        n = done = min(_CHUNK, left)    # every cycle lasts at least one slot
        cycle, row = chain.cycles(rng, n)
        if len(row) > left:
            length = np.bincount(cycle, minlength=n)
            end = np.cumsum(length)
            done = int(np.searchsorted(end, left, side="right"))
            start = end - length
            keep = (np.take(start, cycle)
                    + np.take(chain.layer, row // _CODES) <= left)
            cycle, row = cycle[keep], row[keep]
        left -= len(row)
        yield n, done, cycle, row


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


def run(config: SimConfig) -> SimResult:
    """Simulate the chain and return empirical long-term metrics."""
    chain = _Chain(config.params, config.policy)
    hist = np.zeros(len(chain.counts["fic"]), dtype=np.int64)
    sums = Counter()
    for n, done, cycle, row in _path(chain, config.num_slots, config.seed):
        state, code = np.divmod(row, _CODES)
        row = np.take(chain.class_row, state) + code    # class tables'
        hist += np.bincount(row, minlength=len(hist))
        tau = np.bincount(cycle, minlength=n)[:done]    # complete lengths
        sums["cycles_completed"] += len(tau)
        sums["tau"] += float(tau.sum())
        sums["tau_sq"] += float(tau @ tau)
        for key, table in chain.cycle_adds.items():
            # each cycle's sum over its slots on the path, layer by layer
            y = np.bincount(cycle, weights=np.take(table, row), minlength=n)
            whole = y[:len(tau)]
            sums[key] += float(y.sum())
            sums[key + "_cyc"] += float(whole.sum())
            sums[key + "_sq"] += float(whole @ whole)
            sums[key + "_tau"] += float(whole @ tau)
    count = {key: int(hist @ table) for key, table in chain.counts.items()}
    p, num_slots = config.params, config.num_slots
    return SimResult(
        t_s_emp=sums["t_s"] / num_slots,
        w_s_emp=sums["w_s"] / num_slots,
        t_p_emp=sums["t_p"] / num_slots,
        stderr_t_s=_ratio_stderr(sums, "t_s"),
        stderr_w_s=_ratio_stderr(sums, "w_s"),
        stderr_t_p=_ratio_stderr(sums, "t_p"),
        fic_bits=p.rate_sk * count["fic"],
        bic_bits=p.rate_su * count["levels"],
        u_bits=p.rate_su * count["fresh"],
        k_access_slots=count["k_access_slots"],
        buffered_events=count["buffered_events"],
        cycles_completed=sums["cycles_completed"],
        num_slots=num_slots,
    )


def _moves(config: SimConfig) -> Counter:
    """The moves of the run's path: ``moves[(2 i + a) n + j]`` slots moved
    state i under action a (0 idle, 1 active) to state j, n the state
    count."""
    chain = _Chain(config.params, config.policy)
    hist = np.zeros(len(chain.next), dtype=np.int64)
    for *_, row in _path(chain, config.num_slots, config.seed):
        hist += np.bincount(row, minlength=len(hist))
    seen = np.flatnonzero(hist)
    codes = ((2 * (seen // _CODES) + (seen & ACTIVE)) * len(chain.mu)
             + chain.next[seen])
    moves = Counter()
    for code, count in zip(codes.tolist(), hist[seen].tolist()):
        moves[code] += count
    return moves


def empirical_transition_check(config: SimConfig, stats: LinkStats) -> float:
    """Maximum absolute gap between empirical one-step transition
    frequencies (conditioned on state and action) and the analytic rows of
    ``stats``, over the (state, action) pairs the run visits.

    Each visited row compares the successors seen with the table's
    analytic ones (the table row's successors, and the root, which takes
    the cycle-ending mass the row leaves), so a move to a
    state the table does not allow is a gap too. Every other entry of the
    row is zero on both sides, so memory stays linear in the state count.
    """
    moves = _moves(config)
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
        for j, q in zip(table.space.succ[3 * i:3 * i + 3], p):
            if j:
                gap[row * n + j] -= q
    return max(abs(g) for g in gap.values())
