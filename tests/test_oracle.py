import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogarq import (Policy, enumerate_frontier, enumerate_states,
                    greedy_policy_path, long_term_metrics, optimal_policy,
                    oracle_optimum)
from cogarq import oracle
from cogarq.mdp import state_space, transition_table
from cogarq.oracle import (_bitmask_metrics, frontier_csv_rows,
                           policy_from_bitmask, policy_to_bitmask)

from support import feasible_stats, make_random_stats, reference_frontier


def _check_frontier(stats, deadline, cap):
    """The frontier, after checking that its slopes fall by more than the
    tolerance, that each vertex carries the smallest mask at its exact
    (w, t), and that the greedy path lies on it."""
    frontier = enumerate_frontier(stats, deadline, cap)
    slopes = [(b.t_s_bar - a.t_s_bar) / (b.w_s_bar - a.w_s_bar)
              for a, b in zip(frontier, frontier[1:])]
    assert all(s > 0.0 for s in slopes)
    assert all(s1 < s0 - oracle.SLOPE_RTOL * s0
               for s0, s1 in zip(slopes, slopes[1:]))
    w, t = _bitmask_metrics(transition_table(stats, deadline, cap))
    space = state_space(deadline, cap)
    for p in frontier:
        tied = np.flatnonzero((w == p.w_s_bar) & (t == p.t_s_bar))
        assert policy_to_bitmask(p.policy, space) == tied[0]
    for e in greedy_policy_path(stats, deadline, cap).entries:
        m = e.metrics
        assert abs(oracle_optimum(m.w_s_bar, frontier, stats, deadline, cap)
                   - m.t_s_bar) <= 1e-12
    return frontier


class TestEnumerateFrontier:
    def test_single_slot(self, t1_stats):
        frontier = enumerate_frontier(t1_stats, 1, 0)
        assert len(frontier) == 2
        assert (frontier[0].w_s_bar, frontier[0].t_s_bar) == (0.0, 0.0)
        assert frontier[1].w_s_bar == pytest.approx(1.0)
        assert frontier[1].t_s_bar == pytest.approx(t1_stats.t_su)

    def test_slopes_strictly_decreasing(self, t1_stats):
        frontier = enumerate_frontier(t1_stats, 3, 2)
        slopes = []
        for a, b in zip(frontier, frontier[1:]):
            assert b.w_s_bar > a.w_s_bar
            assert b.t_s_bar > a.t_s_bar
            slopes.append((b.t_s_bar - a.t_s_bar) / (b.w_s_bar - a.w_s_bar))
        assert all(s1 < s0 for s0, s1 in zip(slopes, slopes[1:]))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(feasible_stats(), st.integers(1, 3), st.data())
    def test_greedy_path_metrics_are_frontier_vertices(self, stats, deadline,
                                                        data):
        cap = data.draw(st.integers(0, deadline - 1))
        _check_frontier(stats, deadline, cap)

    def test_frontier_properties_table1_desk_scale(self, t1_stats):
        # The known-message states activated one at a time trace one line,
        # whose interior corners turn only by rounding: none is a vertex.
        assert len(_check_frontier(t1_stats, 4, 3)) == 12

    def test_march_ignores_ulp_perturbations(self, t1_stats):
        # Jitter every distinct (w, t) pair by up to four ulps, tied pairs
        # alike so that exact ties stay ties: the vertex masks stay put.
        rng = np.random.default_rng(5)
        for deadline, cap in ((3, 2), (4, 3), (5, 2)):
            w, t = _bitmask_metrics(transition_table(t1_stats, deadline, cap))
            _, tie = np.unique(np.stack([w, t]), axis=1, return_inverse=True)
            tie = tie.ravel()
            masks = oracle._march(w, t)
            for _ in range(5):
                kw, kt = rng.integers(-4, 5, (2, tie.max() + 1))
                assert oracle._march(w * (1.0 + kw[tie] * 2.0 ** -52),
                                     t * (1.0 + kt[tie] * 2.0 ** -52)) == masks

    def test_no_policy_dominates_frontier(self, t1_stats):
        deadline, cap = 2, 1
        frontier = enumerate_frontier(t1_stats, deadline, cap)
        states = enumerate_states(deadline, cap)
        table = transition_table(t1_stats, deadline, cap)
        for mask in range(1 << len(states)):
            m = long_term_metrics(policy_from_bitmask(mask, states), table)
            best = oracle_optimum(m.w_s_bar, frontier, t1_stats, deadline, cap)
            assert m.t_s_bar <= best + 1e-9

    def test_invariant_to_enumeration_order(self, t1_stats):
        # recompute points in reversed mask order and re-hull them
        deadline, cap = 2, 1
        states = enumerate_states(deadline, cap)
        table = transition_table(t1_stats, deadline, cap)
        pts = []
        for mask in reversed(range(1 << len(states))):
            m = long_term_metrics(policy_from_bitmask(mask, states), table)
            pts.append((m.w_s_bar, m.t_s_bar))
        frontier = enumerate_frontier(t1_stats, deadline, cap)
        for p in frontier:
            assert any(abs(p.w_s_bar - w) < 1e-12 and abs(p.t_s_bar - t) < 1e-12
                       for w, t in pts)

    def test_size_cap(self, t1_stats, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the size check")

        # the refusal builds no per-state list, so a space far too large
        # to hold is refused as fast as a small one
        for name in ("enumerate_states", "state_space", "transition_table",
                     "_bitmask_metrics", "_backward"):
            monkeypatch.setattr(oracle, name, forbidden)
        for deadline, cap, n in ((5, 4, 19), (9, 0, 17),
                                 (10 ** 6, 10 ** 6 - 1, 500_001_499_999)):
            if deadline < 10:
                assert len(enumerate_states(deadline, cap)) == n
            with pytest.raises(ValueError, match=f"{n} > 16"):
                enumerate_frontier(t1_stats, deadline, cap)

    def test_size_cap_accepts_16_states(self, t1_stats):
        assert len(enumerate_states(5, 2)) == oracle.MAX_ENUM_STATES
        for p in enumerate_frontier(t1_stats, 5, 2):
            m = long_term_metrics(p.policy, transition_table(t1_stats, 5, 2))
            assert (m.w_s_bar, m.t_s_bar) == (p.w_s_bar, p.t_s_bar)

    def test_peak_memory_below_10_mb(self, t1_stats):
        # 2^16 policies; holding each as a Python (w, t, mask) triple
        # alone takes about 9.3 MiB.
        tracemalloc.start()
        try:
            enumerate_frontier(t1_stats, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


class TestFrontierMatchesReference:
    """The bitmask-triple enumeration against the `FrontierPoint` one."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(feasible_stats(), st.integers(1, 3), st.data())
    def test_random_stats(self, stats, deadline, data):
        cap = data.draw(st.integers(0, deadline - 1))
        assert enumerate_frontier(stats, deadline, cap) == \
            reference_frontier(stats, deadline, cap)

    def test_table1_desk_scale(self, t1_stats):
        assert enumerate_frontier(t1_stats, 4, 3) == \
            reference_frontier(t1_stats, 4, 3)

    def test_one_evaluation_per_policy(self, t1_stats, monkeypatch):
        # The batched pass evaluates every bitmask once, each exactly as
        # `long_term_metrics` does; only the vertices are evaluated again.
        calls = []

        def counting(policy, *args):
            calls.append(policy)
            return long_term_metrics(policy, *args)

        for deadline, cap in ((3, 2), (4, 3)):
            states = enumerate_states(deadline, cap)
            table = transition_table(t1_stats, deadline, cap)
            w, t = _bitmask_metrics(table)
            assert len(w) == len(t) == 1 << len(states)
            for mask, batched in enumerate(zip(w.tolist(), t.tolist())):
                m = long_term_metrics(policy_from_bitmask(mask, states),
                                      table)
                assert (m.w_s_bar, m.t_s_bar) == batched

            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "long_term_metrics", counting)
                frontier = enumerate_frontier(t1_stats, deadline, cap)
            space = state_space(deadline, cap)
            assert [policy_to_bitmask(p, space) for p in calls] == \
                [policy_to_bitmask(p.policy, space) for p in frontier]

    def test_vertex_mismatch_raises(self, t1_stats, monkeypatch):
        def shifted(policy, *args):
            m = long_term_metrics(policy, *args)
            return dataclasses.replace(m, t_s_bar=m.t_s_bar + 1e-15)

        monkeypatch.setattr(oracle, "long_term_metrics", shifted)
        with pytest.raises(RuntimeError, match="differs from its evaluation"):
            enumerate_frontier(t1_stats, 3, 2)


class TestOracleOptimum:
    def test_zero_budget(self, t1_stats):
        frontier = enumerate_frontier(t1_stats, 2, 1)
        assert oracle_optimum(0.0, frontier, t1_stats, 2, 1) == 0.0

    def test_slack_budget_returns_rightmost(self, t1_stats):
        frontier = enumerate_frontier(t1_stats, 2, 1)
        assert oracle_optimum(2.0, frontier, t1_stats, 2, 1) == \
            frontier[-1].t_s_bar

    def test_certifies_greedy_on_random_stats(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            stats = make_random_stats(rng)
            for deadline in (2, 3):
                for cap in (0, deadline - 1):
                    frontier = enumerate_frontier(stats, deadline, cap)
                    path = greedy_policy_path(stats, deadline, cap)
                    for eps_w in (0.1, 0.3, 0.5, 0.8):
                        _, m = optimal_policy(eps_w, path)
                        star = oracle_optimum(eps_w, frontier, stats,
                                              deadline, cap)
                        assert abs(m.t_s_bar - star) <= 1e-6


class TestBitmask:
    def test_round_trip(self, t1_stats):
        states = enumerate_states(3, 1)
        for mask in (0, 5, (1 << len(states)) - 1):
            pol = policy_from_bitmask(mask, states)
            assert policy_to_bitmask(pol, state_space(3, 1)) == mask

    def test_rejects_randomized(self, t1_stats):
        states = enumerate_states(2, 0)
        pol = Policy({s: 0.5 for s in states})
        with pytest.raises(ValueError):
            policy_to_bitmask(pol, state_space(2, 0))

    def test_csv_rows(self, t1_stats):
        frontier = enumerate_frontier(t1_stats, 2, 1)
        rows = frontier_csv_rows(frontier, 2, 1)
        assert all(set(r) == {"w_s_bar", "t_s_bar", "policy_bitmask"}
                   for r in rows)
