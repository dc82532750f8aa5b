"""Shared builders, policy-structure helpers and independent references
for the test suite."""

from __future__ import annotations

import math

from typing import Dict, List, NamedTuple, Tuple

import numpy as np
from hypothesis import strategies as st

from cogarq import (FrontierPoint, LinkStats, NetState, Policy,
                    RegionClassifier, SimResult, SystemParams)
from cogarq.mdp import (PHI_K, PHI_U, enumerate_states, long_term_metrics,
                        transition_table)
from cogarq.oracle import SLOPE_RTOL, policy_from_bitmask
from cogarq.simulator import _CHUNK

TABLE1_SNRS = dict(mean_snr_s=5.0, mean_snr_p=10.0, mean_snr_sp=2.0,
                   mean_snr_ps=5.0)
TABLE1_RATES = dict(rate_p=2.52, rate_su=1.12, rate_sk=1.91)

# the state every retransmission cycle starts from
ROOT = NetState(1, 0, PHI_U)


def table1_params(**overrides) -> SystemParams:
    fields = dict(TABLE1_SNRS, **TABLE1_RATES, deadline_D=5, buffer_B=4,
                  eps_pu=0.2, power_ratio=1.0)
    fields.update(overrides)
    return SystemParams(**fields)


def make_random_stats(rng, degenerate: bool = False,
                      ensure_hp: bool = False) -> LinkStats:
    """Feasible random link statistics for structural tests.

    Respects the ordering constraints the real channel model guarantees:
    active outages dominate idle ones, the buffering probability cannot
    exceed the active outage probability, and the clean-channel throughput
    dominates the interfered throughput plus its buffered top-up.
    """
    q_pp_i = float(rng.uniform(0.15, 0.7))
    q_pp_a = q_pp_i if degenerate else float(rng.uniform(q_pp_i + 0.03, 0.92))
    q_ps_i = float(rng.uniform(0.2, 0.7))
    q_ps_a = float(rng.uniform(q_ps_i + 0.05, 0.95))
    p_buf = float(rng.uniform(0.03, max(q_ps_a - 0.02, 0.04)))
    rate_su = float(rng.uniform(0.5, 2.0))
    t_su = rate_su * float(rng.uniform(0.2, 0.8))
    if ensure_hp:
        bound = (1.0 - q_ps_a) / (q_ps_a - q_ps_i) * p_buf
        margin = float(rng.uniform(0.05, 0.9)) * bound
    else:
        margin = float(rng.uniform(0.0, 0.5))
    t_sk = t_su + p_buf * rate_su + margin * rate_su
    rate_sk = max(float(rng.uniform(rate_su, 2.5)), t_sk * 1.05)
    rate_p = float(rng.uniform(1.0, 3.0))
    return LinkStats(
        q_pp_idle=q_pp_i, q_pp_active=q_pp_a,
        q_ps_idle=q_ps_i, q_ps_active=q_ps_a,
        p_buf=p_buf, t_su=t_su, t_sk=t_sk,
        t_p_idle=rate_p * (1.0 - q_pp_i),
        t_p_active=rate_p * (1.0 - q_pp_a),
        rate_p=rate_p, rate_su=rate_su, rate_sk=rate_sk,
    )


class _Draws:
    """`make_random_stats` source drawing each uniform from Hypothesis."""

    def __init__(self, draw):
        self.draw = draw

    def uniform(self, lo, hi):
        return self.draw(st.floats(lo, hi))


@st.composite
def feasible_stats(draw):
    return make_random_stats(_Draws(draw), degenerate=draw(st.booleans()))


@st.composite
def sized_policies(draw):
    """(deadline, buffer size, random policy) with D <= 6 and B <= D - 1."""
    deadline = draw(st.integers(1, 6))
    cap = draw(st.integers(0, deadline - 1))
    states = enumerate_states(deadline, cap)
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(states),
                          max_size=len(states)))
    return deadline, cap, Policy(dict(zip(states, probs)))


def make_random_policy(rng, states, lo: float = 0.0, hi: float = 1.0) -> Policy:
    return Policy({s: float(rng.uniform(lo, hi)) for s in states})


def first_idle_thresholds(policy: Policy, deadline: int) -> dict:
    """Per attempt index, the lowest idle buffer level (inf if none idle).

    Canonical threshold representation: for a threshold policy the
    accessed levels at each attempt are exactly b < threshold(t).
    """
    out = {}
    for t in range(1, deadline + 1):
        idle = [s.b for s, p in policy.probs.items()
                if s.phi == PHI_U and s.t == t and p == 0.0]
        out[t] = min(idle) if idle else math.inf
    return out


def max_accessed_levels(policy: Policy, deadline: int) -> dict:
    """Per attempt index, the highest accessed buffer level (-1 if none)."""
    out = {}
    for t in range(1, deadline + 1):
        acc = [s.b for s, p in policy.probs.items()
               if s.phi == PHI_U and s.t == t and p == 1.0]
        out[t] = max(acc) if acc else -1
    return out


def is_threshold_policy(policy: Policy, deadline: int) -> bool:
    """All known-message states transmit and, per attempt index, the
    accessed unknown-message levels form a prefix in the buffer level."""
    th = first_idle_thresholds(policy, deadline)
    for s, p in policy.probs.items():
        if s.phi == PHI_K:
            if p != 1.0:
                return False
        else:
            if p not in (0.0, 1.0):
                return False
            if (p == 1.0) != (s.b < th[s.t]):
                return False
    return True


def reference_matrix(table, mu: List[float]) -> np.ndarray:
    """The (n, n) transition matrix of ``table`` when state i transmits
    with probability ``mu[i]``; the root column (0) takes the cycle-ending
    mass, ((1 - p0) - p1) - p2 over the three outcomes."""
    n = len(mu)
    m = np.asarray(mu, dtype=float)[:, None]
    p = (m * np.reshape(table.p_active, (n, 3))
         + (1.0 - m) * np.reshape(table.p_idle, (n, 3)))
    out = np.zeros((n, n))
    out[np.repeat(np.arange(n), 3), table.space.succ] = p.ravel()
    out[:, 0] = ((1.0 - p[:, 0]) - p[:, 1]) - p[:, 2]
    return out


def table_row(table, state: NetState, access_prob: float
              ) -> Dict[NetState, float]:
    """The transition table's successor distribution of ``state`` at
    ``access_prob``, keyed by state instead of table index."""
    space = table.space
    row = reference_matrix(table, [access_prob] * len(space.layer)
                           )[space.index(state)]
    return {space.state(j): float(row[j]) for j in np.flatnonzero(row)}


# Independent reference for the MDP core: the per-state dict recursion the
# flat transition table replaced, with its rows and rewards written out.

def reference_transition_row(state: NetState, active: bool, stats: LinkStats,
                             deadline: int, buffer_size: int
                             ) -> Dict[NetState, float]:
    """Successor distribution of ``state`` when the secondary transmits
    (``active``) or stays idle."""
    if active:
        q_pp, q_ps, p_buf = stats.q_pp_active, stats.q_ps_active, stats.p_buf
    else:
        q_pp, q_ps, p_buf = stats.q_pp_idle, stats.q_ps_idle, 0.0
    if state.t == deadline:
        return {ROOT: 1.0}
    row = {ROOT: 1.0 - q_pp}
    t1 = state.t + 1
    if state.phi == PHI_K:
        row[NetState(t1, 0, PHI_K)] = q_pp
        return row
    stay = q_pp * (q_ps - p_buf)
    grow = q_pp * p_buf
    if state.b == buffer_size:
        stay += grow            # buffer full: the new signal is dropped
        grow = 0.0
    row[NetState(t1, state.b, PHI_U)] = stay
    if grow > 0.0:
        row[NetState(t1, state.b + 1, PHI_U)] = grow
    row[NetState(t1, 0, PHI_K)] = q_pp * (1.0 - q_ps)
    return row


def reference_throughput(state: NetState, mu: float,
                         stats: LinkStats) -> float:
    if state.phi == PHI_K:
        return mu * stats.t_sk
    decode_pu = mu * (1.0 - stats.q_ps_active) + (1.0 - mu) * (
        1.0 - stats.q_ps_idle)
    return mu * stats.t_su + decode_pu * state.b * stats.rate_su


class ReferenceValues(NamedTuple):
    """Per-cycle reward, accesses and slots from each state, by state."""

    g: Dict[NetState, float]
    v: Dict[NetState, float]
    dur: Dict[NetState, float]


def reference_cycle_values(policy: Policy, stats: LinkStats, deadline: int,
                           buffer_size: int) -> ReferenceValues:
    g: Dict[NetState, float] = {}
    v: Dict[NetState, float] = {}
    dur: Dict[NetState, float] = {}
    for s in sorted(enumerate_states(deadline, buffer_size),
                    key=lambda s: -s.t):
        mu = policy.probs[s]
        row = {}
        for active, weight in ((True, mu), (False, 1.0 - mu)):
            for nxt, p in reference_transition_row(
                    s, active, stats, deadline, buffer_size).items():
                row[nxt] = row.get(nxt, 0.0) + weight * p
        cont_g = cont_v = cont_d = 0.0
        for nxt, p in row.items():
            if nxt == ROOT:
                continue
            cont_g += p * g[nxt]
            cont_v += p * v[nxt]
            cont_d += p * dur[nxt]
        g[s] = reference_throughput(s, mu, stats) + cont_g
        v[s] = mu + cont_v
        dur[s] = 1.0 + cont_d
    return ReferenceValues(g=g, v=v, dur=dur)


# Independent references for the channel estimator and the oracle: the
# one-shot bodies that the streamed and bitmask versions replaced.

def reference_masks(cls: RegionClassifier, snr_s, snr_ps):
    """(pu_decodable, su_decodable, buffered), each comparison written out."""
    mac = ((snr_s >= cls.thr_su) & (snr_ps >= cls.thr_p)
           & (snr_s + snr_ps >= cls.thr_sum))
    pu_alone = (snr_s < cls.thr_su) & (snr_ps >= cls.thr_p * (1.0 + snr_s))
    su_alone = (snr_ps < cls.thr_p) & (snr_s >= cls.thr_su * (1.0 + snr_ps))
    in_gp = mac | pu_alone
    in_gs = mac | su_alone
    buffered = ~in_gp & ~in_gs & (snr_s >= cls.thr_su)
    return in_gp, in_gs, buffered


def reference_region_probs(params: SystemParams, rate_su: float,
                           mc_samples: int, seed: int):
    """Monte-Carlo (Pr decode PU, Pr decode SU, Pr buffer) in the draw
    order `link_stats` documents: per block of 2^15 samples (the last one
    shorter), one gamma_s array, then one gamma_ps array, paired by
    position."""
    cls = RegionClassifier(rate_su, params.rate_p)
    rng = np.random.default_rng(seed)
    n_gp = n_gs = n_buf = 0
    remaining = mc_samples
    while remaining > 0:
        m = min(1 << 15, remaining)
        gs = rng.exponential(params.mean_snr_s, m)
        gps = rng.exponential(params.mean_snr_ps, m)
        in_gp, in_gs, buf = reference_masks(cls, gs, gps)
        n_gp += int(in_gp.sum())
        n_gs += int(in_gs.sum())
        n_buf += int(buf.sum())
        remaining -= m
    n = float(mc_samples)
    return n_gp / n, n_gs / n, n_buf / n


def reference_simulation(params: SystemParams, policy: Policy,
                         num_slots: int, seed: int):
    """(SimResult, counts) of the first ``num_slots`` slots of the sample
    path of ``seed``, each cycle moved in a Python loop.

    The draws follow the simulator's documented order: per chunk of
    min(`_CHUNK`, slots left) cycles, then per attempt t, gamma_s, gamma_p,
    gamma_sp, gamma_ps and the access uniform over the cycles still alive.
    Each slot decodes through `reference_masks` and moves by the state
    definition, not by the layout's ``succ``: an ACK or the deadline ends
    the cycle; decoding the primary message learns it, (t + 1, 0, K); a
    signal buffered by an unknown-message state grows the buffer,
    (t + 1, b + 1, U), while b < B; any other slot stays, (t + 1, b, phi).
    The chunk's cycles are laid end to end by their lengths and cut after
    ``num_slots`` slots, with no second pass over the draws.
    ``counts[i, a, j]`` counts the slots that moved state i under action a
    to state j. The regenerative standard errors sum (y - r tau)^2
    directly.
    """
    deadline, cap = params.deadline_D, params.buffer_B
    # states as (t, b, phi) tuples, which hash far faster than NetState
    index = {(s.t, s.b, s.phi): i
             for i, s in enumerate(enumerate_states(deadline, cap))}
    mu = {(s.t, s.b, s.phi): p for s, p in policy.probs.items()}
    root = (ROOT.t, ROOT.b, ROOT.phi)
    n_states = len(index)
    cls = RegionClassifier(params.rate_su, params.rate_p)
    thr_p, thr_sk = cls.thr_p, 2.0 ** params.rate_sk - 1.0
    rsu, rsk = params.rate_su, params.rate_sk
    rng = np.random.default_rng(seed)
    counts = np.zeros((n_states, 2, n_states), dtype=np.int64)
    totals = dict.fromkeys(("t_s", "w_s", "fic", "fresh", "bic",
                            "k_access", "buffered"), 0.0)
    cycles = []         # (t_s, w_s, t_p, tau) of each complete cycle
    slots = 0
    while slots < num_slots:
        n = min(_CHUNK, num_slots - slots)
        state = [root] * n
        alive = list(range(n))
        layers = []
        for t in range(1, deadline + 1):
            if not alive:
                break
            m = len(alive)
            gs = rng.exponential(params.mean_snr_s, m)
            gp = rng.exponential(params.mean_snr_p, m)
            gsp = rng.exponential(params.mean_snr_sp, m)
            gps = rng.exponential(params.mean_snr_ps, m)
            u = rng.random(m)
            pu_dec, su_dec, buf = reference_masks(cls, gs, gps)
            now = [state[c] for c in alive]
            known = np.array([s[2] == PHI_K for s in now])
            active = u < np.array([mu[s] for s in now])
            with np.errstate(over="ignore"):    # inf beyond the doubles
                ack = np.where(active, gp >= thr_p * (1.0 + gsp), gp >= thr_p)
            decoded = ~known & np.where(active, pu_dec, gps >= thr_p)
            grows = active & ~known & buf
            nxt_index, still = [], []
            for c, s, k, d, g in zip(alive, now, ack.tolist(),
                                     decoded.tolist(), grows.tolist()):
                _, b, phi = s
                if k or t == deadline:
                    nxt = root
                elif d:
                    nxt = (t + 1, 0, PHI_K)
                elif g and b < cap:
                    nxt = (t + 1, b + 1, PHI_U)
                else:
                    nxt = (t + 1, b, phi)
                nxt_index.append(index[nxt])
                if nxt != root:
                    state[c] = nxt
                    still.append(c)
            level = np.array([s[1] for s in now])
            layers.append(dict(
                cycle=np.array(alive), t=t, ack=ack,
                i=np.array([index[s] for s in now]), a=active,
                j=np.array(nxt_index),
                fic=(active & known & (gs >= thr_sk)) * rsk,
                fresh=(active & ~known & su_dec) * rsu,
                bic=decoded * level * rsu,
                k_access=active & known, buffered=grows))
            alive = still
        # lay the cycles end to end: slot t of cycle c is slot start[c] + t
        # of the chunk, and the path ends after num_slots slots
        length = np.bincount(np.concatenate([x["cycle"] for x in layers]),
                             minlength=n)
        start = np.cumsum(length) - length
        left = num_slots - slots
        y = {key: np.zeros(n) for key in ("t_s", "w_s", "t_p")}
        for x in layers:
            keep = start[x["cycle"]] + x["t"] <= left
            np.add.at(counts, (x["i"][keep], x["a"][keep].astype(int),
                               x["j"][keep]), 1)
            for key in ("fic", "fresh", "bic", "k_access", "buffered"):
                totals[key] += math.fsum(x[key][keep])
            y_ts = x["fic"] + x["fresh"] + x["bic"]
            totals["t_s"] += math.fsum(y_ts[keep])
            totals["w_s"] += math.fsum(x["a"][keep])
            y["t_s"][x["cycle"]] += y_ts
            y["w_s"][x["cycle"]] += x["a"]
            y["t_p"][x["cycle"]] += x["ack"] * params.rate_p
        whole = start + length <= left
        cycles += zip(y["t_s"][whole], y["w_s"][whole], y["t_p"][whole],
                      length[whole])
        slots += min(int(length.sum()), left)
    cyc = np.array(cycles, dtype=float).reshape(-1, 4)
    tau = cyc[:, 3].sum()

    def stderr(col):
        if len(cyc) < 2:
            return math.inf
        y_c = cyc[:, col]
        return math.sqrt(np.sum((y_c - y_c.sum() / tau * cyc[:, 3]) ** 2)
                         ) / tau

    result = SimResult(
        t_s_emp=totals["t_s"] / num_slots, w_s_emp=totals["w_s"] / num_slots,
        t_p_emp=cyc[:, 2].sum() / num_slots,
        stderr_t_s=stderr(0), stderr_w_s=stderr(1), stderr_t_p=stderr(2),
        fic_bits=totals["fic"], bic_bits=totals["bic"],
        u_bits=totals["fresh"], k_access_slots=int(totals["k_access"]),
        buffered_events=int(totals["buffered"]), cycles_completed=len(cyc),
        num_slots=num_slots)
    return result, counts


def reference_su_throughput(rates, rate_p: float, mean_snr_s: float,
                            mean_snr_ps: float) -> np.ndarray:
    """r Pr(su_decodable) over an array of rates, both links present: the
    three exponential integrals of the decode region evaluated in numpy."""
    r = np.asarray(rates, dtype=float)
    a, b = 2.0 ** r - 1.0, 2.0 ** rate_p - 1.0
    u, v = 1.0 / mean_snr_s, 1.0 / mean_snr_ps
    kappa = v + a * u
    alone = np.exp(-a * u) * -np.expm1(-kappa * b) * v / kappa
    # v (e^e_near - e^e_far) / (v - u), both exponents nonpositive
    e_near = -b * v - a * (1.0 + b) * u
    e_far = -b * (1.0 + a) * v - a * u
    m = abs(v - u)
    ratio = -np.expm1(-m * a * b) / m if m > 0.0 else a * b
    binding = np.exp(np.maximum(e_near, e_far)) * ratio * v
    return r * (alone + binding + np.exp(e_far))


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert's W at x > 0, w e^w = x, by Halley's
    iteration (Corless et al., "On the Lambert W function", 1996)."""
    w = math.log1p(x)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-15 * w:
            return w
    raise RuntimeError(f"Halley iteration for W0({x!r}) did not converge")


def reference_frontier(stats: LinkStats, deadline: int,
                       buffer_size: int) -> List[FrontierPoint]:
    """Upper-left hull built on a `FrontierPoint` per deterministic policy,
    by a monotone chain: vertices as `enumerate_frontier` defines them."""
    def slope(a, b):
        return (b.t_s_bar - a.t_s_bar) / (b.w_s_bar - a.w_s_bar)

    states = enumerate_states(deadline, buffer_size)
    table = transition_table(stats, deadline, buffer_size)
    points = []
    for mask in range(1 << len(states)):
        pol = policy_from_bitmask(mask, states)
        m = long_term_metrics(pol, table)
        points.append((m.w_s_bar, -m.t_s_bar, mask,
                       FrontierPoint(w_s_bar=m.w_s_bar, t_s_bar=m.t_s_bar,
                                     policy=pol)))
    # ascending access rate; at equal rates the highest throughput, then
    # the smallest mask, comes first and alone survives
    points.sort(key=lambda p: p[:3])
    hull: List[FrontierPoint] = []
    for *_, p in points:
        if hull and p.w_s_bar == hull[-1].w_s_bar:
            continue
        while len(hull) >= 2:
            edge = slope(hull[-2], hull[-1])
            if slope(hull[-2], p) < edge - SLOPE_RTOL * abs(edge):
                break
            hull.pop()
        hull.append(p)
    while len(hull) >= 2 and hull[-1].t_s_bar <= hull[-2].t_s_bar:
        hull.pop()
    return hull


# Independent reference for the degenerate network (no secondary-to-primary
# path). The primary outage probability is then one number q_pp whatever
# the secondary does, so the retransmission process runs independently of
# the access policy. The greedy frontier walk then produces threshold
# policies in (attempt index, buffer level), and the marginal cycle
# quantities admit geometric-series closed forms:
#
# - `a0_a1`: the two tail sums driving every closed form,
# - `g_prime_closed` / `v_prime_closed`: marginal per-cycle reward and
#   accesses at an idle unknown-message state of a threshold policy,
# - `cycle_value_closed`: per-cycle accesses and reward on the idle region,
# - `b_max`: largest buffer level still worth transmitting at, per attempt
#   index (the sign-change level of the marginal reward),
# - `unconstrained_optimal` / `hp_condition`: the power-unconstrained
#   optimal policy and the smallness condition under which the threshold
#   structure is guaranteed.

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
