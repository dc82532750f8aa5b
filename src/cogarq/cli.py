"""Command-line front-end.

Subcommands:

- ``derive-params``: derive transmission rates and link statistics for a
  scenario config, emitting JSON.
- ``solve``: compute the optimal access policy and its metrics at a given
  (or constraint-derived) access budget, emitting JSON.
- ``simulate``: run the slot-level simulator under a policy file, emitting
  JSON.
- ``oracle``: brute-force achievable frontier as CSV.
- ``sweep``: scheme-comparison sweep as CSV.

Config files are JSON objects mirroring the SystemParams field names, plus
an optional ``rate_policy`` of RSU_STAR (default), RSU_EQ_RSK, or EXPLICIT;
any other key is rejected, and the four mean SNRs and ``deadline_D`` are
required; EXPLICIT needs all three rates, the others derive them. Derived
rates are exact; ``--mc-samples`` (at least `channel.MIN_MC_SAMPLES`) and
``--seed`` drive the Monte-Carlo link statistics and the simulator only;
a negative seed is refused before any rate derivation.
Every error, a malformed command line included, exits 1 with a one-line
JSON diagnostic on stderr; ``--help`` exits 0. Output is strict JSON, in
which a missing ``simulate`` standard error is null, or finite CSV; any
other non-finite value is a ValueError, never a printed NaN, and in a
``sweep`` it is the grid point's row error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

from .channel import SystemParams, check_integer, link_stats
from .experiments import (DEFAULT_GRIDS, EXPLICIT, RSU_STAR, derive_rates,
                          rows_to_csv, sweep)
from .mdp import (long_term_metrics, policy_from_json_obj, policy_to_json_obj,
                  transition_table)
from .optimizer import access_rate_budget, greedy_policy_path, optimal_policy
from .oracle import check_enumerable, enumerate_frontier, frontier_csv_rows
from .simulator import SimConfig, run

DEFAULT_MC = 10 ** 6
DEFAULT_SEED = 1234
CONFIG_KEYS = frozenset(f.name for f in fields(SystemParams)) | {"rate_policy"}
REQUIRED_KEYS = ("mean_snr_s", "mean_snr_p", "mean_snr_sp", "mean_snr_ps",
                 "deadline_D")


def _load_scenario(path: str):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(obj) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    absent = [k for k in REQUIRED_KEYS if k not in obj]
    if absent:
        raise ValueError(f"missing config keys: {', '.join(absent)}")
    rate_policy = obj.pop("rate_policy", RSU_STAR)
    missing = [k for k in ("rate_p", "rate_su", "rate_sk") if k not in obj]
    if rate_policy == EXPLICIT and missing:
        raise ValueError("EXPLICIT rate policy needs every rate; missing: "
                         + ", ".join(missing))
    # Placeholder rates keep the config small when they are derived.
    obj.update(dict.fromkeys(missing, 1.0))
    check_integer("deadline_D", obj["deadline_D"])   # before the default B
    obj.setdefault("buffer_B", obj["deadline_D"] - 1)
    obj.setdefault("eps_pu", 0.2)
    obj.setdefault("power_ratio", 1.0)
    return SystemParams.from_json_obj(obj), rate_policy


def _json(obj) -> str:
    """Strict JSON: a NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _prepared(args, params, rate_policy):
    params = derive_rates(params, rate_policy)
    [stats] = link_stats([params], args.mc_samples, args.seed)
    return params, stats


def _cmd_derive_params(args) -> int:
    params, stats = _prepared(args, *_load_scenario(args.config))
    eps_w = access_rate_budget(stats, params.eps_pu, params.power_ratio)
    _emit(_json({"params": asdict(params), "stats": asdict(stats),
                 "eps_w": eps_w}), args.out)
    return 0


def _cmd_solve(args) -> int:
    params, stats = _prepared(args, *_load_scenario(args.config))
    eps_w = (args.eps_w if args.eps_w is not None
             else access_rate_budget(stats, params.eps_pu, params.power_ratio))
    path = greedy_policy_path(stats, params.deadline_D, params.buffer_B)
    policy, metrics = optimal_policy(eps_w, path)
    _emit(_json({
        "eps_w": eps_w,
        "eps_th": path.eps_th,
        "policy": policy_to_json_obj(policy),
        "metrics": asdict(metrics),
    }), args.out)
    return 0


def _cmd_simulate(args) -> int:
    params, rate_policy = _load_scenario(args.config)
    params = derive_rates(params, rate_policy)
    with open(args.policy_file) as fh:
        policy = policy_from_json_obj(json.load(fh))
    config = SimConfig(params=params, policy=policy, num_slots=args.slots,
                       seed=args.seed)
    result = run(config)
    analytic = None
    if args.with_analytic:
        [stats] = link_stats([params], args.mc_samples, args.seed)
        table = transition_table(stats, params.deadline_D, params.buffer_B)
        analytic = asdict(long_term_metrics(policy, table))
    out = json.loads(result.to_json())
    if analytic is not None:
        out["analytic"] = analytic
    _emit(_json(out), args.out)
    return 0


def _cmd_oracle(args) -> int:
    params, rate_policy = _load_scenario(args.config)
    deadline = args.D if args.D is not None else params.deadline_D
    buffer_size = args.B if args.B is not None else params.buffer_B
    check_enumerable(deadline, buffer_size)     # before any channel work
    params, stats = _prepared(args, params, rate_policy)
    frontier = enumerate_frontier(stats, deadline, buffer_size)
    rows = frontier_csv_rows(frontier, deadline, buffer_size)
    if not all(math.isfinite(r[k]) for r in rows
               for k in ("w_s_bar", "t_s_bar")):
        raise ValueError("non-finite frontier metric")
    lines = ["w_s_bar,t_s_bar,policy_bitmask"]
    lines += [f"{r['w_s_bar']!r},{r['t_s_bar']!r},{r['policy_bitmask']}"
              for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    params, rate_policy = _load_scenario(args.config)
    grid = (DEFAULT_GRIDS[args.kind] if args.grid is None
            else [float(x) for x in args.grid.split(",")])
    rows = sweep(args.kind, params, rate_policy, grid,
                 mc_samples=args.mc_samples, seed=args.seed)
    _emit(rows_to_csv(rows), args.out)
    return 0


class UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors take the CLI's one error path instead
    of printing usage text and exiting 2. Subcommand parsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cogarq",
        description="Secondary access policies for spectrum sharing with a "
                    "retransmitting primary user")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--mc-samples", dest="mc_samples", type=int,
                       default=DEFAULT_MC)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("derive-params", help="derive rates and link statistics")
    common(p)
    p.set_defaults(func=_cmd_derive_params)

    p = sub.add_parser("solve", help="optimal policy at an access budget")
    common(p)
    p.add_argument("--eps-w", dest="eps_w", type=float, default=None,
                   help="access-rate budget (default: from constraints)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="slot-level simulation of a policy")
    common(p)
    p.add_argument("--policy-file", required=True)
    p.add_argument("--slots", type=int, default=10 ** 6)
    p.add_argument("--with-analytic", action="store_true",
                   help="also report analytic metrics for the policy")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force frontier CSV")
    common(p)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--B", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="scheme-comparison sweep CSV")
    common(p)
    p.add_argument("--kind", required=True, choices=list(DEFAULT_GRIDS))
    p.add_argument("--grid", default=None,
                   help="comma-separated grid values (default per kind)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:       # before any rate derivation
            raise ValueError("seed must be >= 0")
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error surface
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
