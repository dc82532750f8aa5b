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

`evaluate_scheme` reads the link statistics, plus a greedy policy path
for the optimized schemes. Sweeps (one kind per `DEFAULT_GRIDS` entry)
derive transmission rates as dictated by the rate policy, compute link
statistics and each optimized scheme's path, evaluate all four schemes,
and emit one row per (grid point, scheme) with per-row error capture so
a failing point does not abort the sweep. A sweep first derives every
point's params, then computes the statistics of all their distinct
channels in one `link_stats` call (one pass over the Monte Carlo draws),
then evaluates each point. Kinds whose grid leaves every channel input
unchanged (TS_VS_TP, DEADLINE) derive rates once and pass one channel;
the others derive them at each point.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Optional, Sequence

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
# Each sweep kind and the grid the CLI sweeps when given none.
DEFAULT_GRIDS = {
    TS_VS_TP: [i / 20 for i in range(21)],
    GSP_RATIO: [i / 8 for i in range(17)],
    GPS_RATIO: [i / 4 for i in range(17)],
    RSU_RATIO: [0.1 + i * 0.05 for i in range(19)],
    DEADLINE: [1, 2, 3, 4, 5, 6],
}
# Kinds whose grid changes no input of derive_rates or link_stats.
FIXED_CHANNEL_KINDS = (TS_VS_TP, DEADLINE)

CSV_COLUMNS = ("x", "scheme", "t_s_bar", "w_s_bar", "t_p_bar", "error")


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


def evaluate_scheme(scheme: str, eps_w: float, stats: LinkStats,
                    path: Optional[PolicyPath] = None) -> PolicyMetrics:
    """Long-term metrics of one scheme at access budget ``eps_w``.

    NO_IC and PM_KNOWN follow from ``stats`` alone; FIC_BIC and FIC_ONLY
    solve at the budget on ``path``, the caller's greedy policy path of
    that scheme's buffer size over the same ``stats``. Raises ValueError
    for an unknown scheme, or an optimized one without a path.
    """
    if scheme in (NO_IC, PM_KNOWN):
        # constant access probability w: per slot, w accesses earning the
        # interfered (NO_IC) or clean (PM_KNOWN) throughput
        w = min(eps_w, 1.0)
        per_access = stats.t_su if scheme == NO_IC else stats.t_sk
        return ratio_metrics(per_access * w, w, 1.0, stats)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if path is None:
        raise ValueError(f"scheme {scheme} needs a greedy policy path")
    _, metrics = optimal_policy(eps_w, path)
    return metrics


def _point_params(kind: str, params: SystemParams, x: float) -> SystemParams:
    if kind == GSP_RATIO:
        return params.replace(mean_snr_sp=x * params.mean_snr_p)
    if kind == GPS_RATIO:
        return params.replace(mean_snr_ps=x * params.mean_snr_s)
    if kind == DEADLINE:
        d = int(round(x))
        if d != x:
            raise ValueError(f"DEADLINE grid values must be integers, got {x}")
        return params.replace(deadline_D=d, buffer_B=d - 1)
    return params


def _channel_params(kind: str, point: SystemParams, x: float,
                    rate_policy: str) -> SystemParams:
    """The derived params whose link statistics serve one grid point."""
    if kind == RSU_RATIO:
        derived = derive_rates(point, RSU_EQ_RSK)
        return derived.replace(rate_su=x * derived.rate_sk)
    return derive_rates(point, rate_policy)


def sweep(kind: str, params: SystemParams, rate_policy: str,
          grid: Sequence[float], mc_samples: int = 10 ** 6,
          seed: int = 1234) -> List[dict]:
    """Evaluate all four schemes along one parameter grid.

    Rows carry (x, scheme, t_s_bar, w_s_bar, t_p_bar, error); a failure at
    one grid point, a non-finite metric included, is recorded in the error
    field of its four rows and the sweep continues. For TS_VS_TP the grid
    is the access budget itself; for the other kinds the budget comes from
    the scenario's constraints at each point. ``rate_policy`` (one of
    `RATE_POLICIES`) derives the rates of ``params`` at each point.
    ``mc_samples`` and ``seed`` drive `link_stats` only, which the sweep
    calls once for the distinct channels of all its points, so each
    point's statistics equal a one-scenario call at that seed. An unknown
    kind or rate policy, a bad grid, or a count below `MIN_MC_SAMPLES`
    raises before the first point.
    """
    if kind not in DEFAULT_GRIDS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    _check_rate_policy(rate_policy)
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    if not all(math.isfinite(x) for x in grid):
        raise ValueError("grid values must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be monotone nondecreasing")
    check_mc_samples(mc_samples)

    # Each point's params and channel, or the error that stopped it.
    points = []
    channel = None
    for x in grid:
        try:
            point = _point_params(kind, params, x)
            if channel is None or kind not in FIXED_CHANNEL_KINDS:
                channel = _channel_params(kind, point, x, rate_policy)
            points.append((x, point, channel))
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            points.append((x, exc, None))

    channels = list(dict.fromkeys(c for _, _, c in points if c is not None))
    # one pass over the draws for every channel, and none if no point has one
    stats_of = {}
    if channels:
        stats_of = dict(zip(channels, link_stats(channels, mc_samples, seed)))

    rows: List[dict] = []
    paths = None
    for x, point, channel in points:
        try:
            if isinstance(point, Exception):
                raise point
            stats = stats_of[channel]
            if kind == TS_VS_TP:
                eps_w = float(x)
            else:
                eps_w = access_rate_budget(stats, point.eps_pu,
                                           point.power_ratio)
            # TS_VS_TP varies only the budget, so one pair of paths serves
            # every point.
            if paths is None or kind != TS_VS_TP:
                deadline = point.deadline_D
                paths = {FIC_BIC: greedy_policy_path(stats, deadline,
                                                     deadline - 1),
                         FIC_ONLY: greedy_policy_path(stats, deadline, 0)}
            point_rows = []
            for scheme in SCHEMES:
                m = evaluate_scheme(scheme, eps_w, stats, paths.get(scheme))
                if not all(map(math.isfinite,
                               (m.t_s_bar, m.w_s_bar, m.t_p_bar))):
                    raise ValueError(f"non-finite {scheme} metric")
                point_rows.append({"x": x, "scheme": scheme,
                                   "t_s_bar": m.t_s_bar,
                                   "w_s_bar": m.w_s_bar,
                                   "t_p_bar": m.t_p_bar, "error": ""})
            rows += point_rows
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            for scheme in SCHEMES:
                rows.append({"x": x, "scheme": scheme, "t_s_bar": "",
                             "w_s_bar": "", "t_p_bar": "",
                             "error": f"{type(exc).__name__}: {exc}"})
    return rows


def rows_to_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
