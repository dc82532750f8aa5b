"""Spans and counters around cogarq's public functions, installed from outside.

The program is not edited: each traced function is replaced by a wrapper in
every ``cogarq`` module that holds it by name, because ``from .x import y``
binds ``y`` in the importing module when it is imported (so
``optimizer.cycle_values``, ``oracle.long_term_metrics`` and ``cli.link_stats``
each need their own rebinding). ``uninstall`` puts the originals back.

Spans stay in memory during a pass; ``summarize`` turns them into per-layer
metrics at the end. A layer is the module a span's function belongs to, and
its self time is the time its spans cover minus the time their child spans
cover. Helpers called millions of times (``transition_row``,
``state_reward``, ``cycle_derivatives``) are not wrapped, so their time
counts toward the layer that calls them; that keeps the tracing overhead to
a few per cent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "cogarq"
SOLVE_SPANS = ("optimizer.optimal_policy", "optimizer.low_regime_policy")
FRONTIER_SPAN = "oracle.enumerate_frontier"
LAYERS = ("cli", "channel", "experiments", "mdp", "optimizer", "simulator",
          "oracle")


def _bound(fn):
    """Return a function mapping a call's arguments to their names."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: {}

    def bind(args, kwargs):
        try:
            b = sig.bind(*args, **kwargs)
        except TypeError:
            return {}
        b.apply_defaults()
        return b.arguments
    return bind


def _count_mc(tracer, fn, args, kwargs, result):
    # The Monte-Carlo draws a call makes: one (gamma_s, gamma_ps) pair per
    # sample. optimize_rate draws only for the interfered objective.
    a = tracer.arguments(fn, args, kwargs)
    if fn.__name__ == "optimize_rate" and \
            a.get("objective") != "SU_INTERFERED_THROUGHPUT":
        return
    tracer.counts["channel.mc_draws"] += int(a.get("mc_samples", 0))


def _count_masks(tracer, fn, args, kwargs, result):
    tracer.counts["channel.masks.elements"] += len(args[1])


def _count_sweep(tracer, fn, args, kwargs, result):
    grid = tracer.arguments(fn, args, kwargs).get("grid", ())
    tracer.counts["experiments.sweep_points"] += len(grid)
    tracer.counts["experiments.rows_failed"] += sum(
        1 for row in result if row.get("error"))


def _count_states(tracer, fn, args, kwargs, result):
    tracer.counts["mdp.cycle_values.states"] += len(args[0].probs)


def _count_evaluation(tracer, fn, args, kwargs, result):
    if any(tracer.open[name] for name in SOLVE_SPANS):
        tracer.counts["optimizer.solve_iterations"] += 1
    if tracer.open[FRONTIER_SPAN]:
        tracer.counts["oracle.policies_evaluated"] += 1


def _count_stages(tracer, fn, args, kwargs, result):
    tracer.counts["optimizer.greedy_stages"] += len(result.entries) - 1


def _count_run(tracer, fn, args, kwargs, result):
    tracer.counts["simulator.run_slots"] += result.num_slots
    tracer.counts["simulator.cycles"] += result.cycles_completed


def _count_check(tracer, fn, args, kwargs, result):
    config = tracer.arguments(fn, args, kwargs).get("config")
    tracer.counts["simulator.check_slots"] += config.num_slots


def _count_frontier(tracer, fn, args, kwargs, result):
    tracer.counts["oracle.frontier_vertices"] += len(result)


# (module, attribute, span name, counter hook). A target missing from the
# program is skipped, and the metrics it feeds then read zero.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("channel", "link_stats", "channel.link_stats", _count_mc),
    ("channel", "optimize_rate", "channel.optimize_rate", _count_mc),
    ("channel", "RegionClassifier.masks", "channel.masks", _count_masks),
    ("experiments", "derive_rates", "experiments.derive_rates", None),
    ("experiments", "evaluate_scheme", "experiments.evaluate_scheme", None),
    ("experiments", "sweep", "experiments.sweep", _count_sweep),
    ("mdp", "cycle_values", "mdp.cycle_values", _count_states),
    ("mdp", "long_term_metrics", "mdp.long_term_metrics", _count_evaluation),
    ("optimizer", "greedy_policy_path", "optimizer.greedy_policy_path",
     _count_stages),
    ("optimizer", "efficiency_report", "optimizer.efficiency_report", None),
    ("optimizer", "optimal_policy", "optimizer.optimal_policy", None),
    ("optimizer", "low_regime_policy", "optimizer.low_regime_policy", None),
    ("simulator", "run", "simulator.run", _count_run),
    ("simulator", "empirical_transition_check", "simulator.transition_check",
     _count_check),
    ("oracle", "enumerate_frontier", "oracle.enumerate_frontier",
     _count_frontier),
    ("oracle", "oracle_optimum", "oracle.oracle_optimum", None),
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()   # span names currently on the stack
        self.hook_errors: Counter = Counter()
        self._stack: list = []
        self._patches: list = []     # (holder, attribute, original)
        self._binders: dict = {}

    def arguments(self, fn, args, kwargs) -> dict:
        if fn not in self._binders:
            self._binders[fn] = _bound(fn)
        return self._binders[fn](args, kwargs)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            tracer.open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.open[name] -= 1
                spans[index] = (name, start, end, parent)
            if hook is not None:
                try:
                    hook(tracer, fn, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # The program changed shape under the hook; the counter
                    # then reads low and is reported, not the call failed.
                    tracer.hook_errors[name] += 1
            return result
        return traced

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every target in place, in every module that holds it."""
        modules = self._modules()
        for module_name, attribute, name, hook in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None)
                if original is None:
                    continue
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, hook))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, hook)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.open = Counter()
        self._stack = []


def summarize(spans, counts, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        layer_self[name.split(".", 1)[0]] += end - start - child[i]

    run_slots = counts["simulator.run_slots"]
    check_slots = counts["simulator.check_slots"]

    def per_slot_ns(span, slots):
        return busy[span] / slots * 1e9 if slots else 0.0

    m = {
        "channel.link_stats.calls": calls["channel.link_stats"],
        "channel.link_stats.busy_s": busy["channel.link_stats"],
        "channel.optimize_rate.calls": calls["channel.optimize_rate"],
        "channel.optimize_rate.busy_s": busy["channel.optimize_rate"],
        "channel.mc_draws": counts["channel.mc_draws"],
        "channel.masks.calls": calls["channel.masks"],
        "channel.masks.elements": counts["channel.masks.elements"],
        "experiments.derive_rates.calls": calls["experiments.derive_rates"],
        "experiments.derive_rates.busy_s": busy["experiments.derive_rates"],
        "experiments.evaluate_scheme.calls":
            calls["experiments.evaluate_scheme"],
        "experiments.sweep_points": counts["experiments.sweep_points"],
        "experiments.rows_failed": counts["experiments.rows_failed"],
        "mdp.cycle_values.calls": calls["mdp.cycle_values"],
        "mdp.cycle_values.busy_s": busy["mdp.cycle_values"],
        "mdp.cycle_values.states": counts["mdp.cycle_values.states"],
        "mdp.long_term_metrics.calls": calls["mdp.long_term_metrics"],
        "mdp.long_term_metrics.busy_s": busy["mdp.long_term_metrics"],
        "optimizer.greedy_policy_path.calls":
            calls["optimizer.greedy_policy_path"],
        "optimizer.greedy_policy_path.busy_s":
            busy["optimizer.greedy_policy_path"],
        "optimizer.greedy_stages": counts["optimizer.greedy_stages"],
        "optimizer.efficiency_report.calls":
            calls["optimizer.efficiency_report"],
        "optimizer.efficiency_report.busy_s":
            busy["optimizer.efficiency_report"],
        "optimizer.optimal_policy.busy_s": busy["optimizer.optimal_policy"],
        "optimizer.solve_iterations": counts["optimizer.solve_iterations"],
        "simulator.run.busy_s": busy["simulator.run"],
        "simulator.slots": run_slots + check_slots,
        "simulator.cycles": counts["simulator.cycles"],
        "simulator.ns_per_slot": per_slot_ns("simulator.run", run_slots),
        "simulator.transition_check.busy_s":
            busy["simulator.transition_check"],
        "simulator.transition_check.ns_per_slot":
            per_slot_ns("simulator.transition_check", check_slots),
        "oracle.enumerate_frontier.busy_s": busy["oracle.enumerate_frontier"],
        "oracle.policies_evaluated": counts["oracle.policies_evaluated"],
        "oracle.frontier_vertices": counts["oracle.frontier_vertices"],
        "oracle.oracle_optimum.calls": calls["oracle.oracle_optimum"],
        "oracle.oracle_optimum.busy_s": busy["oracle.oracle_optimum"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    spanned = sum(layer_self.values())
    m["bench.self_s"] = wall_s - spanned
    m["trace.accounted_frac"] = spanned / wall_s if wall_s > 0 else 0.0
    m["trace.wall_s"] = wall_s
    return m
