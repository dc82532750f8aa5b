"""Scheme comparison and parameter sweeps.

Four access schemes are compared at a common access-rate budget:

- FIC_BIC: full interference cancellation, buffering up to deadline - 1
  signals (optimized policy),
- FIC_ONLY: no buffering (buffer size zero, optimized policy),
- NO_IC: no cancellation at all; the optimum is a constant access
  probability equal to the budget, earning the interfered throughput per
  access,
- PM_KNOWN: idealized bound with the primary message known in advance,
  earning the clean-channel throughput per access.

Sweeps derive transmission rates as dictated by the rate policy, compute
link statistics, evaluate all four schemes, and emit one row per (grid
point, scheme) with per-row error capture so a failing point does not
abort the sweep. Kinds whose grid leaves every channel input unchanged
(TS_VS_TP, DEADLINE) compute rates and statistics once per sweep; the
others recompute them at each point.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .channel import (LinkStats, PU_IDLE_THROUGHPUT, SU_CLEAN_THROUGHPUT,
                      SU_INTERFERED_THROUGHPUT, SystemParams,
                      check_mc_samples, link_stats, optimize_rate)
from .mdp import PolicyMetrics, ratio_metrics
from .optimizer import (PolicyPath, access_rate_budget, greedy_policy_path,
                        optimal_policy)

RSU_STAR = "RSU_STAR"
RSU_EQ_RSK = "RSU_EQ_RSK"
EXPLICIT = "EXPLICIT"
RATE_POLICIES = (RSU_STAR, RSU_EQ_RSK, EXPLICIT)

FIC_BIC = "FIC_BIC"
FIC_ONLY = "FIC_ONLY"
NO_IC = "NO_IC"
PM_KNOWN = "PM_KNOWN"
SCHEMES = (FIC_BIC, FIC_ONLY, NO_IC, PM_KNOWN)

TS_VS_TP = "TS_VS_TP"
GSP_RATIO = "GSP_RATIO"
GPS_RATIO = "GPS_RATIO"
RSU_RATIO = "RSU_RATIO"
DEADLINE = "DEADLINE"
SWEEP_KINDS = (TS_VS_TP, GSP_RATIO, GPS_RATIO, RSU_RATIO, DEADLINE)
# Kinds whose grid changes no input of derive_rates or link_stats.
FIXED_CHANNEL_KINDS = (TS_VS_TP, DEADLINE)

CSV_COLUMNS = ("x", "scheme", "t_s_bar", "w_s_bar", "t_p_bar", "error")


@dataclass(frozen=True)
class Scenario:
    params: SystemParams
    rate_policy: str = RSU_STAR
    scheme: str = FIC_BIC

    def __post_init__(self):
        _check_rate_policy(self.rate_policy)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _check_rate_policy(rate_policy: str) -> None:
    if rate_policy not in RATE_POLICIES:
        raise ValueError(f"unknown rate policy {rate_policy!r}")


def derive_rates(params: SystemParams, rate_policy: str) -> SystemParams:
    """Replace the rates in ``params`` according to the rate policy, one of
    `RATE_POLICIES`; any other value raises ValueError.

    Every derived rate is the exact maximizer of a closed-form throughput
    (`optimize_rate`, to adjacent doubles) and depends on no seed.
    """
    _check_rate_policy(rate_policy)
    if rate_policy == EXPLICIT:
        return params
    rate_p = optimize_rate(PU_IDLE_THROUGHPUT, params)
    rate_sk = optimize_rate(SU_CLEAN_THROUGHPUT, params)
    with_rp = params.replace(rate_p=rate_p, rate_sk=rate_sk)
    if rate_policy == RSU_EQ_RSK:
        return with_rp.replace(rate_su=rate_sk)
    rate_su = optimize_rate(SU_INTERFERED_THROUGHPUT, with_rp)
    return with_rp.replace(rate_su=rate_su)


def _bound_metrics(per_access: float, eps_w: float,
                   stats: LinkStats) -> PolicyMetrics:
    # constant access probability w: per slot, w accesses earning per_access
    w = min(eps_w, 1.0)
    return ratio_metrics(per_access * w, w, 1.0, stats)


def evaluate_scheme(scenario: Scenario, eps_w: float, stats: LinkStats,
                    path: Optional[PolicyPath] = None) -> PolicyMetrics:
    """Long-term metrics of one scheme at access budget ``eps_w``.

    ``stats`` are the link statistics of the scenario's (derived) params;
    for the optimized schemes a precomputed greedy ``path`` may be passed
    in to reuse it.
    """
    if scenario.scheme == NO_IC:
        return _bound_metrics(stats.t_su, eps_w, stats)
    if scenario.scheme == PM_KNOWN:
        return _bound_metrics(stats.t_sk, eps_w, stats)
    deadline = scenario.params.deadline_D
    buffer_size = deadline - 1 if scenario.scheme == FIC_BIC else 0
    if path is None:
        path = greedy_policy_path(stats, deadline, buffer_size)
    _, metrics = optimal_policy(eps_w, path)
    return metrics


def _point_params(kind: str, base: Scenario, x: float) -> SystemParams:
    p = base.params
    if kind == TS_VS_TP:
        return p
    if kind == GSP_RATIO:
        return p.replace(mean_snr_sp=x * p.mean_snr_p)
    if kind == GPS_RATIO:
        return p.replace(mean_snr_ps=x * p.mean_snr_s)
    if kind == RSU_RATIO:
        return p
    if kind == DEADLINE:
        d = int(round(x))
        if d != x:
            raise ValueError(f"DEADLINE grid values must be integers, got {x}")
        return p.replace(deadline_D=d, buffer_B=d - 1)
    raise ValueError(f"unknown sweep kind {kind!r}")


def _point_channel(kind: str, params: SystemParams, x: float,
                   rate_policy: str, mc_samples: int,
                   seed: int) -> Tuple[SystemParams, LinkStats]:
    """Derived params and link statistics at one grid point."""
    if kind == RSU_RATIO:
        derived = derive_rates(params, RSU_EQ_RSK)
        params = derived.replace(rate_su=x * derived.rate_sk)
        rate_policy = EXPLICIT
    params = derive_rates(params, rate_policy)
    return params, link_stats(params, mc_samples, seed)


def sweep(kind: str, base: Scenario, grid: Sequence[float],
          mc_samples: int = 10 ** 6, seed: int = 1234) -> List[dict]:
    """Evaluate all four schemes along one parameter grid.

    Rows carry (x, scheme, t_s_bar, w_s_bar, t_p_bar, error); a failure at
    one grid point is recorded in its rows' error field and the sweep
    continues. For TS_VS_TP the grid is the access budget itself; for the
    other kinds the budget comes from the scenario's constraints at each
    point. ``mc_samples`` and ``seed`` drive `link_stats` only; a count
    below `MIN_MC_SAMPLES` raises before the first point.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    if not all(math.isfinite(x) for x in grid):
        raise ValueError("grid values must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be monotone nondecreasing")
    check_mc_samples(mc_samples)

    rows: List[dict] = []
    channel = paths = None
    for x in grid:
        try:
            point = _point_params(kind, base, x)
            if channel is None or kind not in FIXED_CHANNEL_KINDS:
                channel = _point_channel(kind, point, x, base.rate_policy,
                                         mc_samples, seed)
            params, stats = channel
            deadline = point.deadline_D
            params = params.replace(deadline_D=deadline,
                                    buffer_B=point.buffer_B)
            if kind == TS_VS_TP:
                eps_w = float(x)
            else:
                eps_w = access_rate_budget(stats, params.eps_pu,
                                           params.power_ratio)
            # TS_VS_TP varies only the budget, so one pair of paths serves
            # every point.
            if paths is None or kind != TS_VS_TP:
                paths = {FIC_BIC: greedy_policy_path(stats, deadline,
                                                     deadline - 1),
                         FIC_ONLY: greedy_policy_path(stats, deadline, 0)}
            for scheme in SCHEMES:
                scen = Scenario(params=params, rate_policy=EXPLICIT,
                                scheme=scheme)
                m = evaluate_scheme(scen, eps_w, stats=stats,
                                    path=paths.get(scheme))
                rows.append({"x": x, "scheme": scheme, "t_s_bar": m.t_s_bar,
                             "w_s_bar": m.w_s_bar, "t_p_bar": m.t_p_bar,
                             "error": ""})
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            for scheme in SCHEMES:
                rows.append({"x": x, "scheme": scheme, "t_s_bar": "",
                             "w_s_bar": "", "t_p_bar": "",
                             "error": f"{type(exc).__name__}: {exc}"})
    return rows


def write_csv(rows: List[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def rows_to_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()
