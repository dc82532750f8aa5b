"""Slot-level Monte Carlo simulation of the shared-spectrum network.

One chain is advanced slot by slot: fading draws, the secondary access
coin, the primary ACK/NACK, the secondary receiver's decode outcome, and
the resulting state update. Decode outcomes of each chunk of draws come
from `RegionClassifier.masks`, the classification the link statistics
use, so simulated transition frequencies estimate the analytic transition
rows by construction.

Reproducibility: one seeded generator; per chunk the draw order is
(gamma_s, gamma_p, gamma_sp, gamma_ps, action-uniform). Standard errors
use batch means over 20 equal batches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Dict, Optional

import numpy as np

from .channel import LinkStats, RegionClassifier, SystemParams, link_stats
from .mdp import (ACTIVE, IDLE, PHI_K, PHI_U, NetState, Policy,
                  enumerate_states, transition_row)

N_BATCHES = 20
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    policy: Policy
    num_slots: int
    seed: int

    def __post_init__(self):
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.policy.validate(enumerate_states(self.params.deadline_D,
                                              self.params.buffer_B))


@dataclass(frozen=True)
class SimResult:
    """Empirical long-term averages with batch-means standard errors."""

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
        return json.dumps(asdict(self), indent=2)


def _batch_stderr(sums, batch_size: int) -> float:
    means = np.asarray(sums, dtype=float) / batch_size
    if len(means) < 2:
        return 0.0
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


def _simulate(params: SystemParams, policy: Policy, num_slots: int, seed: int,
              collect_transitions: bool):
    cls = RegionClassifier(params.rate_su, params.rate_p)
    thr_p = cls.thr_p
    thr_sk = 2.0 ** params.rate_sk - 1.0
    rsu, rsk, rp = params.rate_su, params.rate_sk, params.rate_p
    deadline, cap = params.deadline_D, params.buffer_B
    mu = {(s.t, s.b, s.phi): policy.probs[s]
          for s in enumerate_states(deadline, cap)}

    rng = np.random.default_rng(seed)
    batch = max(1, num_slots // N_BATCHES)
    last_batch = N_BATCHES - 1
    ts_sum = [0.0] * N_BATCHES
    w_sum = [0.0] * N_BATCHES
    tp_sum = [0.0] * N_BATCHES
    fic_bits = bic_bits = u_bits = 0.0
    k_access = buffered_events = cycles = 0
    trans: Optional[Dict] = {} if collect_transitions else None

    t, b, phi = 1, 0, PHI_U
    pos = _CHUNK
    gs_a = gp_a = gsp_a = gps_a = u_a = pu_dec = su_dec = buf_dec = None
    for n in range(num_slots):
        if pos == _CHUNK:
            m = min(_CHUNK, num_slots - n)
            gs_arr = rng.exponential(params.mean_snr_s, m)
            gp_a = rng.exponential(params.mean_snr_p, m).tolist()
            gsp_a = rng.exponential(params.mean_snr_sp, m).tolist()
            gps_arr = rng.exponential(params.mean_snr_ps, m)
            u_a = rng.random(m).tolist()
            pu_dec, su_dec, buf_dec = (
                mask.tolist() for mask in cls.masks(gs_arr, gps_arr))
            gs_a = gs_arr.tolist()
            gps_a = gps_arr.tolist()
            pos = 0
        gs = gs_a[pos]
        gp = gp_a[pos]
        gsp = gsp_a[pos]
        gps = gps_a[pos]
        active = u_a[pos] < mu[(t, b, phi)]
        bi = n // batch
        if bi > last_batch:
            bi = last_batch

        if active:
            w_sum[bi] += 1.0
            ack = gp >= thr_p * (1.0 + gsp)
        else:
            ack = gp >= thr_p
        if ack:
            tp_sum[bi] += rp

        slot_bits = 0.0
        decoded_pu = False
        buffered = False
        if phi == PHI_K:
            if active:
                k_access += 1
                if gs >= thr_sk:
                    slot_bits = rsk
                    fic_bits += rsk
        elif active:
            if su_dec[pos]:
                slot_bits += rsu
                u_bits += rsu
            if pu_dec[pos]:
                decoded_pu = True
            elif buf_dec[pos]:
                buffered = True
                buffered_events += 1
        else:
            decoded_pu = gps >= thr_p
        if decoded_pu and b > 0:
            slot_bits += b * rsu
            bic_bits += b * rsu
        ts_sum[bi] += slot_bits

        if ack or t == deadline:
            nxt = (1, 0, PHI_U)
            cycles += 1
        elif phi == PHI_K:
            nxt = (t + 1, 0, PHI_K)
        elif decoded_pu:
            nxt = (t + 1, 0, PHI_K)
        elif buffered:
            nxt = (t + 1, b + 1 if b < cap else b, PHI_U)
        else:
            nxt = (t + 1, b, PHI_U)
        if collect_transitions:
            key = ((t, b, phi), ACTIVE if active else IDLE)
            row = trans.setdefault(key, {})
            row[nxt] = row.get(nxt, 0) + 1
        t, b, phi = nxt
        pos += 1

    totals = (sum(ts_sum), sum(w_sum), sum(tp_sum))
    result = SimResult(
        t_s_emp=totals[0] / num_slots,
        w_s_emp=totals[1] / num_slots,
        t_p_emp=totals[2] / num_slots,
        stderr_t_s=_batch_stderr(ts_sum, batch),
        stderr_w_s=_batch_stderr(w_sum, batch),
        stderr_t_p=_batch_stderr(tp_sum, batch),
        fic_bits=fic_bits,
        bic_bits=bic_bits,
        u_bits=u_bits,
        k_access_slots=k_access,
        buffered_events=buffered_events,
        cycles_completed=cycles,
        num_slots=num_slots,
    )
    return result, trans


def run(config: SimConfig) -> SimResult:
    """Simulate the chain and return empirical long-term metrics."""
    result, _ = _simulate(config.params, config.policy, config.num_slots,
                          config.seed, collect_transitions=False)
    return result


def empirical_transition_check(config: SimConfig,
                               stats: Optional[LinkStats] = None,
                               mc_samples: int = 10_000_000,
                               stats_seed: int = 1234) -> float:
    """Maximum absolute gap between empirical one-step transition
    frequencies (conditioned on state and action) and the analytic rows.

    ``stats`` may be passed to reuse precomputed link statistics;
    otherwise they are computed from the scenario parameters.
    """
    if stats is None:
        stats = link_stats(config.params, mc_samples, stats_seed)
    _, trans = _simulate(config.params, config.policy, config.num_slots,
                         config.seed, collect_transitions=True)
    deadline, cap = config.params.deadline_D, config.params.buffer_B
    worst = 0.0
    for (skey, action), row_counts in trans.items():
        state = NetState(*skey)
        total = sum(row_counts.values())
        analytic = transition_row(state, action, stats, deadline, cap)
        targets = set(analytic)
        targets.update(NetState(*k) for k in row_counts)
        for nxt in targets:
            emp = row_counts.get((nxt.t, nxt.b, nxt.phi), 0) / total
            gap = abs(emp - analytic.get(nxt, 0.0))
            if gap > worst:
                worst = gap
    return worst
