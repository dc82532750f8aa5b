import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cogarq import (CycleValues, NetState, Policy, access_rate_budget,
                    cycle_values, enumerate_frontier, enumerate_states,
                    greedy_policy_path, link_stats, long_term_metrics,
                    optimal_policy, oracle_optimum, transition_table)
from cogarq import mdp, optimizer, oracle
from cogarq.mdp import PHI_K, PHI_U

from support import (feasible_stats, idle_policy, k_active_policy,
                     make_random_policy, make_random_stats,
                     reference_efficiency, table1_params)

RANDOM_CASES = [(2, 0), (2, 1), (3, 0), (3, 2), (5, 4)]


class TestCycleDerivatives:
    def test_deadline_state(self, t1_stats):
        pol = k_active_policy(enumerate_states(5, 4))
        s = NetState(5, 2, PHI_U)
        table = transition_table(t1_stats, 5, 4)
        g_p, v_p, d_p, _ = reference_efficiency(table,
                                                cycle_values(pol, table), s)
        expected_g = (t1_stats.t_su
                      - (t1_stats.q_ps_active - t1_stats.q_ps_idle)
                      * 2 * t1_stats.rate_su)
        assert d_p == 0.0
        assert v_p == 1.0
        assert g_p == pytest.approx(expected_g, abs=1e-14)

    def test_degenerate_duration_derivative_vanishes(self):
        rng = np.random.default_rng(3)
        stats = make_random_stats(rng, degenerate=True)
        states = enumerate_states(4, 3)
        pol = make_random_policy(rng, states)
        table = transition_table(stats, 4, 3)
        cv = cycle_values(pol, table)
        for s in states:
            d_p = reference_efficiency(table, cv, s)[2]
            if s.phi == PHI_U:
                assert abs(d_p) <= 1e-14

    def test_finite_difference_oracle(self):
        delta = 1e-6
        rng = np.random.default_rng(11)
        for trial in range(10):
            deadline, cap = RANDOM_CASES[trial % len(RANDOM_CASES)]
            stats = make_random_stats(rng)
            states = enumerate_states(deadline, cap)
            pol = make_random_policy(rng, states, lo=0.05, hi=0.9)
            table = transition_table(stats, deadline, cap)
            cv = cycle_values(pol, table)
            for s in states:
                g_p, v_p, d_p, _ = reference_efficiency(table, cv, s)
                bumped = cycle_values(pol.with_prob(s, pol.probs[s] + delta),
                                      table)
                i = table.space.index(s)
                assert abs((bumped.g[i] - cv.g[i]) / delta - g_p) <= 1e-5
                assert abs((bumped.v[i] - cv.v[i]) / delta - v_p) <= 1e-5
                assert abs((bumped.dur[i] - cv.dur[i]) / delta - d_p) <= 1e-5


class TestEfficiency:
    def test_denominator_positive_on_random_policies(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            deadline, cap = RANDOM_CASES[trial % len(RANDOM_CASES)]
            stats = make_random_stats(rng)
            states = enumerate_states(deadline, cap)
            pol = make_random_policy(rng, states)
            table = transition_table(stats, deadline, cap)
            m = long_term_metrics(pol, table)
            cv = cycle_values(pol, table)
            for s in states:
                _, v_p, d_p, _ = reference_efficiency(table, cv, s)
                assert v_p - d_p * m.w_s_bar > 0.0

    def test_u_idle_policy_efficiencies(self, t1_stats):
        # With every unknown-message state idle, a known-message access is
        # worth exactly the clean-channel throughput; any unknown-message
        # access is worth strictly less.
        states = enumerate_states(5, 4)
        pol = k_active_policy(states)
        pol = pol.with_prob(NetState(3, 0, PHI_K), 0.0)  # partially active
        table = transition_table(t1_stats, 5, 4)
        cv = cycle_values(pol, table)
        for s in states:
            eta = reference_efficiency(table, cv, s)[3]
            if s.phi == PHI_K:
                assert eta == pytest.approx(t1_stats.t_sk, abs=1e-12)
            elif s.b == 0:
                assert eta < t1_stats.t_sk

    def test_perturbed_chain_limit(self, t1_stats):
        # The efficiency at a state the policy never reaches is the limit
        # of the efficiency under a slightly exploring policy.
        states = enumerate_states(5, 4)
        pol = k_active_policy(states)
        explore = Policy({s: 0.5 for s in states})
        s = NetState(3, 2, PHI_U)      # unreachable without U accesses
        table = transition_table(t1_stats, 5, 4)
        eta0 = reference_efficiency(table, cycle_values(pol, table), s)[3]
        errs = []
        for upsilon in (1e-2, 1e-3):
            blended = Policy({x: upsilon * explore.probs[x]
                              + (1.0 - upsilon) * pol.probs[x]
                              for x in states})
            cv = cycle_values(blended, table)
            errs.append(abs(reference_efficiency(table, cv, s)[3] - eta0))
        assert errs[1] <= 0.2 * errs[0] + 1e-9
        assert errs[0] <= 0.5

    def test_nonpositive_denominator_names_the_state(self, t1_stats):
        # Values no policy gives (an access rate of 1e9 per slot) drive the
        # access-rate derivative below zero at the root, since
        # transmitting there lengthens the cycle (q_pp_active > q_pp_idle).
        table = transition_table(t1_stats, 2, 1)
        n = len(table.space.layer)
        values = CycleValues(g=[0.0] * n, v=[1e9] + [0.0] * (n - 1),
                             dur=[1.0] * n)
        with pytest.raises(RuntimeError, match=r"<= 0 at NetState\(t=1, "
                           r"b=0, phi='U'\)"):
            optimizer.efficiency_report(table, values, [1, 0])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(feasible_stats(), st.integers(1, 6), st.data())
    def test_walk_scans_reference_eta_at_every_stage(self, stats, deadline,
                                                     data):
        # At every stage the walk's one scan equals the per-state
        # reference, bit for bit, at each idle state in canonical order,
        # and the walk activates the reference's first maximum, or stops
        # when no idle state has a positive efficiency.
        cap = data.draw(st.integers(0, deadline - 1))
        path = greedy_policy_path(stats, deadline, cap)
        states = enumerate_states(deadline, cap)
        for j in range(len(path.entries)):
            pol = path.policy(j)
            values = cycle_values(pol, path.table)
            idle = [i for i, s in enumerate(states) if pol.probs[s] == 0.0]
            ref = [reference_efficiency(path.table, values, states[i])[3]
                   for i in idle]
            assert optimizer.efficiency_report(path.table, values,
                                               idle) == ref
            if j + 1 < len(path.entries):
                best = ref.index(max(ref))
                assert ref[best] > 0.0
                assert (path.entries[j + 1].chosen_state
                        == states[idle[best]])
            else:
                assert not ref or max(ref) <= 0.0


class TestLowRegimePolicy:
    """`optimal_policy` at budgets up to `eps_th`, where the path's
    policies transmit only in known-message states."""

    def test_zero_budget_is_idle(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        pol, m = optimal_policy(0.0, path)
        assert pol.probs == idle_policy(enumerate_states(5, 4)).probs
        assert m.w_s_bar == 0.0 and m.t_s_bar == 0.0

    def test_full_threshold_is_k_active(self, t1_stats):
        for deadline in range(1, 6):
            states = enumerate_states(deadline, deadline - 1)
            path = greedy_policy_path(t1_stats, deadline, deadline - 1)
            pol, m = optimal_policy(path.eps_th, path)
            assert pol.probs == k_active_policy(states).probs
            assert m.w_s_bar == path.eps_th

    def test_exactness(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        for frac in (0.1, 0.33, 0.5, 0.77, 0.95):
            eps_w = frac * path.eps_th
            pol, m = optimal_policy(eps_w, path)
            assert abs(m.w_s_bar - eps_w) <= 1e-14
            assert abs(m.t_s_bar - t1_stats.t_sk * eps_w) <= 1e-14
            # only known-message states transmit, one of them randomized
            assert all(p == 0.0 for s, p in pol.probs.items()
                       if s.phi == PHI_U)
            fractional = [s for s, p in pol.probs.items()
                          if p not in (0.0, 1.0)]
            assert len(fractional) == 1 and fractional[0].phi == PHI_K

    def test_few_evaluations_per_budget(self, t1_stats, monkeypatch):
        # A solve reads the path's own per-cycle values: at most one
        # evaluation (of the blend) and no backward pass of its own.
        path = greedy_policy_path(t1_stats, 5, 4)
        paths = [greedy_policy_path(t1_stats, 4, 3), path]
        w_last = path.entries[-1].metrics.w_s_bar
        calls = []
        passes = []

        def counting(*args):
            calls.append(args)
            return long_term_metrics(*args)

        def counting_pass(*args):
            passes.append(args)
            return mdp._backward(*args)

        monkeypatch.setattr(optimizer, "long_term_metrics", counting)
        monkeypatch.setattr(optimizer, "_backward", counting_pass)
        for eps_w in (0.0, 0.3 * path.eps_th, path.eps_th,
                      0.5 * (path.eps_th + w_last), w_last, 2.0 * w_last):
            calls.clear()
            passes.clear()
            optimal_policy(eps_w, path)
            assert len(calls) <= 1
            assert len(passes) == 0
        # Every gap of the path: the blend is the lower entry with the
        # upper entry's activated state randomized, and nothing else.
        for p in paths:
            for j, (a, b) in enumerate(zip(p.entries, p.entries[1:])):
                eps_w = 0.5 * (a.metrics.w_s_bar + b.metrics.w_s_bar)
                assert a.metrics.w_s_bar < eps_w < b.metrics.w_s_bar
                calls.clear()
                passes.clear()
                pol, _ = optimal_policy(eps_w, p)
                assert len(calls) == 1
                assert len(passes) == 0
                a_pol = p.policy(j)
                diff = [s for s in pol.probs
                        if pol.probs[s] != a_pol.probs[s]]
                assert diff == [b.chosen_state]

    def test_unreachable_known_states(self):
        # With no primary outage while the secondary is idle, the cycle
        # ends after one slot and no known-message state is ever reached:
        # the walk's first entries, at unreachable states, all tie at zero
        # access rate.
        rng = np.random.default_rng(5)
        stats = dataclasses.replace(make_random_stats(rng), q_pp_idle=0.0)
        deadline, cap = 4, 3
        path = greedy_policy_path(stats, deadline, cap)
        unreached = path.entries[:deadline]
        assert path.eps_th == 0.0
        assert all(e.metrics.w_s_bar == 0.0 for e in unreached)
        pol, m = optimal_policy(0.0, path)
        assert pol.probs == idle_policy(enumerate_states(deadline, cap)).probs
        assert m.w_s_bar == 0.0
        # the walk may also activate unreachable states before a reachable one
        first = next(e for e in path.entries if e.metrics.w_s_bar > 0.0)
        eps_w = 0.5 * first.metrics.w_s_bar
        pol, m = optimal_policy(eps_w, path)
        assert abs(m.w_s_bar - eps_w) <= 1e-14
        fractional = [s for s, p in pol.probs.items() if p not in (0.0, 1.0)]
        assert fractional == [first.chosen_state]


class TestAccessRateBudget:
    def test_table1_example(self, t1_stats):
        eps = access_rate_budget(t1_stats, eps_pu=0.2, power_ratio=1.0)
        expected = ((1 - t1_stats.q_pp_idle) * 0.2
                    / (t1_stats.q_pp_active - t1_stats.q_pp_idle))
        assert eps == pytest.approx(expected, abs=1e-15)
        assert eps == pytest.approx(0.413, abs=0.02)

    def test_degenerate_leaves_only_power(self):
        rng = np.random.default_rng(2)
        stats = make_random_stats(rng, degenerate=True)
        assert access_rate_budget(stats, 0.2, 0.6) == 0.6

    def test_zero_budgets(self, t1_stats):
        assert access_rate_budget(t1_stats, 0.0, 0.0) == 0.0

    def test_capped_at_one(self):
        rng = np.random.default_rng(4)
        stats = make_random_stats(rng, degenerate=True)
        assert access_rate_budget(stats, 1.0, 1.0) == 1.0


class TestGreedyPolicyPath:
    def test_single_slot_deadline(self, t1_stats):
        path = greedy_policy_path(t1_stats, 1, 0)
        assert path.eps_th == 0.0
        # no known-message states; the one unknown-message state has
        # positive efficiency (it earns t_su per access) so it activates
        assert len(path.entries) == 2
        assert path.entries[-1].metrics.t_s_bar == pytest.approx(
            t1_stats.t_su, abs=1e-12)

    @pytest.mark.parametrize("deadline", [5, 20])
    def test_walk_converts_one_policy(self, t1_stats, monkeypatch,
                                      deadline):
        # The walk evaluates its access vectors by state index, eps_th's
        # known-message one included, so it converts no Policy at all.
        vector = mdp.StateSpace.vector
        calls = []

        def counting(space, policy):
            calls.append(policy)
            return vector(space, policy)

        monkeypatch.setattr(mdp.StateSpace, "vector", counting)
        path = greedy_policy_path(t1_stats, deadline, deadline - 1)
        assert len(path.entries) > deadline
        assert calls == []

    @pytest.mark.parametrize("deadline", [5, 20, 40])
    def test_eps_th_is_the_known_message_policy_rate(self, t1_stats,
                                                     deadline):
        # eps_th, from the walk's known-message index vector, is the
        # access rate of the known-message-only Policy, bit for bit
        for cap in (deadline - 1, 0):
            path = greedy_policy_path(t1_stats, deadline, cap)
            pol = k_active_policy(enumerate_states(deadline, cap))
            assert path.eps_th == long_term_metrics(pol, path.table).w_s_bar

    def test_metrics_strictly_increase(self, t1_stats):
        path = greedy_policy_path(t1_stats, 2, 1)
        pairs = list(zip(path.entries, path.entries[1:]))
        assert pairs
        for a, b in pairs:
            assert b.metrics.w_s_bar > a.metrics.w_s_bar
            assert b.metrics.t_s_bar > a.metrics.t_s_bar

    def test_consecutive_policies_differ_in_one_state(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        for j, b in enumerate(path.entries[1:], 1):
            a_pol, b_pol = path.policy(j - 1), path.policy(j)
            diff = [s for s in a_pol.probs
                    if a_pol.probs[s] != b_pol.probs[s]]
            assert diff == [b.chosen_state]

    def test_slopes_nonincreasing(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        slopes = []
        for a, b in zip(path.entries, path.entries[1:]):
            dw = b.metrics.w_s_bar - a.metrics.w_s_bar
            dt = b.metrics.t_s_bar - a.metrics.t_s_bar
            slopes.append(dt / dw)
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s1 <= s0 + 1e-9

    def test_idle_start_activates_known_states_first(self, t1_stats):
        # At the idle start every known-message state has efficiency t_sk
        # exactly, the maximum, and the tie breaks toward the earliest,
        # (2, 0, K). Later stages tie at t_sk up to rounding, so only the
        # set of the first D - 1 activations is pinned, not their order. A
        # chord's rise dt is a difference of two rates near 0.4, so at
        # D = 20, where a step's dw falls to 6e-7, its rounding is allowed
        # beside the relative 1e-12.
        for deadline in (3, 5, 7, 10, 20):
            states = enumerate_states(deadline, deadline - 1)
            path = greedy_policy_path(t1_stats, deadline, deadline - 1)
            k_states = [s for s in states if s.phi == PHI_K]
            idle = cycle_values(idle_policy(states), path.table)
            etas = {s: reference_efficiency(path.table, idle, s)[3]
                    for s in states}
            assert all(etas[s] == t1_stats.t_sk for s in k_states)
            assert max(etas.values()) == t1_stats.t_sk
            assert path.entries[1].chosen_state == NetState(2, 0, PHI_K)
            first = path.entries[:len(k_states) + 1]
            assert {e.chosen_state for e in first[1:]} == set(k_states)
            assert (path.policy(len(k_states)).probs
                    == k_active_policy(states).probs)
            assert path.eps_th == first[-1].metrics.w_s_bar
            for a, b in zip(first, first[1:]):
                dw = b.metrics.w_s_bar - a.metrics.w_s_bar
                dt = b.metrics.t_s_bar - a.metrics.t_s_bar
                assert dw > 0.0
                assert abs(dt - t1_stats.t_sk * dw) <= 1e-12 * dw + 1e-15

    def test_known_states_dominate_along_ladder(self, t1_stats):
        # Until every known-message state is active, each idle one is at
        # least as efficient as every idle unknown-message state, so the
        # walk activates the known-message states first.
        deadline, cap = 5, 4
        path = greedy_policy_path(t1_stats, deadline, cap)
        for j in range(deadline):
            pol = path.policy(j)
            cv = cycle_values(pol, path.table)
            eta = {phi: [reference_efficiency(path.table, cv, s)[3]
                         for s, p in pol.probs.items()
                         if s.phi == phi and p == 0.0]
                   for phi in (PHI_K, PHI_U)}
            if eta[PHI_K]:
                assert min(eta[PHI_K]) >= max(eta[PHI_U])


def _check_path_policies(path):
    # entry j's rebuilt policy activates exactly entries 1..j's states and
    # evaluates to the metrics the walk recorded, bit for bit
    space = path.table.space
    states = enumerate_states(space.deadline, space.buffer_size)
    active = set()
    for j, e in enumerate(path.entries):
        if j:
            active.add(e.chosen_state)
        pol = path.policy(j)
        assert list(pol.probs) == states
        assert {s for s, p in pol.probs.items() if p == 1.0} == active
        assert all(p == 0.0 for s, p in pol.probs.items() if s not in active)
        assert long_term_metrics(pol, path.table) == e.metrics
    for j in (-1, len(path.entries)):
        with pytest.raises(IndexError):
            path.policy(j)


class TestPathPolicies:
    """`PolicyPath.policy` rebuilds each entry's policy from the path's
    activation order."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(feasible_stats(), st.integers(1, 6), st.data())
    def test_rebuild_matches_walk(self, stats, deadline, data):
        cap = data.draw(st.integers(0, deadline - 1))
        _check_path_policies(greedy_policy_path(stats, deadline, cap))

    def test_rebuild_matches_walk_at_table1(self, t1_stats):
        path = greedy_policy_path(t1_stats, 20, 19)
        assert len(path.entries) > 200
        _check_path_policies(path)

    def test_walk_memory(self, t1_stats):
        # The path keeps one activated state per entry, not a policy per
        # entry: a D = 20 walk peaks near 0.2 MiB, and a policy per entry
        # would hold 2 MiB.
        tracemalloc.start()
        try:
            greedy_policy_path(t1_stats, 20, 19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2 ** 20


class TestOptimalPolicy:
    def test_budget_beyond_path_returns_last(self, t1_stats):
        path = greedy_policy_path(t1_stats, 3, 2)
        last = path.entries[-1]
        pol, m = optimal_policy(last.metrics.w_s_bar + 0.05, path)
        assert pol.probs == path.policy(len(path.entries) - 1).probs
        assert m == last.metrics

    def test_threshold_boundary_is_k_active(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        pol, m = optimal_policy(path.eps_th, path)
        assert pol.probs == k_active_policy(enumerate_states(5, 4)).probs
        assert m.t_s_bar == pytest.approx(t1_stats.t_sk * path.eps_th,
                                          abs=1e-9)

    def test_budget_at_a_path_rate_returns_that_policy(self):
        # No blend at a path policy's own rate: the policy comes back
        # exactly, the first of any entries that tie at that rate.
        rng = np.random.default_rng(43)
        for trial in range(40):
            deadline = (2, 3, 4, 5)[trial % 4]
            cap = int(rng.integers(0, deadline))
            stats = make_random_stats(rng)
            path = greedy_policy_path(stats, deadline, cap)
            for e in path.entries:
                w = e.metrics.w_s_bar
                j = next(i for i, f in enumerate(path.entries)
                         if f.metrics.w_s_bar == w)
                pol, m = optimal_policy(w, path)
                assert pol.probs == path.policy(j).probs
                assert m == path.entries[j].metrics

    def test_high_regime_meets_budget_exactly(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        for eps_w in (0.3, 0.5, 0.75, 0.9):
            pol, m = optimal_policy(eps_w, path)
            assert abs(m.w_s_bar - eps_w) <= 1e-10
            fractional = [s for s, p in pol.probs.items()
                          if p not in (0.0, 1.0)]
            assert len(fractional) <= 1

    def test_closed_form_blend_meets_budget_to_rounding(self):
        rng = np.random.default_rng(41)
        for trial in range(30):
            deadline = (2, 3, 4)[trial % 3]
            cap = int(rng.integers(0, deadline))
            stats = make_random_stats(rng)
            path = greedy_policy_path(stats, deadline, cap)
            ws = [e.metrics.w_s_bar for e in path.entries]
            for w_a, w_b in zip(ws, ws[1:]):
                eps_w = float(rng.uniform(w_a, w_b))
                if not w_a < eps_w < w_b:
                    continue
                pol, m = optimal_policy(eps_w, path)
                assert abs(m.w_s_bar - eps_w) <= 1e-14
                assert m == long_term_metrics(
                    pol, transition_table(stats, deadline, cap))

    def test_negative_budget_rejected(self, t1_stats):
        path = greedy_policy_path(t1_stats, 2, 1)
        with pytest.raises(ValueError):
            optimal_policy(-0.1, path)

    @pytest.mark.parametrize("eps_w", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_budget_rejected(self, t1_stats, eps_w):
        path = greedy_policy_path(t1_stats, 2, 1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            optimal_policy(eps_w, path)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(feasible_stats(), st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 2)]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_greedy_optimum_equals_oracle(stats, shape, budgets):
    deadline, cap = shape
    path = greedy_policy_path(stats, deadline, cap)
    frontier = enumerate_frontier(stats, deadline, cap)
    for eps_w in budgets:
        _, m = optimal_policy(eps_w, path)
        star = oracle_optimum(eps_w, frontier, stats, deadline, cap)
        assert abs(m.t_s_bar - star) <= 1e-9


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.2, 3.0), st.floats(0.05, 3.0),
       st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]),
       st.integers(0, 2 ** 16),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_greedy_optimum_equals_oracle_under_explicit_rates(
        rate_p, rate_su, rate_sk, shape, seed, budgets):
    # Explicit rates need not make a clean-channel access the best one,
    # so the walk must rank known-message states by efficiency too.
    deadline, cap = shape
    params = table1_params(rate_p=rate_p, rate_su=rate_su, rate_sk=rate_sk,
                           deadline_D=deadline, buffer_B=cap)
    stats = link_stats([params], mc_samples=10 ** 5, seed=seed)[0]
    try:
        stats.validate()
    except ValueError:
        assume(False)   # Monte-Carlo noise broke a physical ordering
    path = greedy_policy_path(stats, deadline, cap)
    frontier = enumerate_frontier(stats, deadline, cap)
    for eps_w in budgets:
        _, m = optimal_policy(eps_w, path)
        star = oracle_optimum(eps_w, frontier, stats, deadline, cap)
        assert abs(m.t_s_bar - star) <= 1e-9


@settings(max_examples=100, derandomize=True, deadline=None)
@given(feasible_stats(), st.integers(1, 6), st.data())
def test_optimal_policy_is_one_state_blend(stats, deadline, data):
    cap = data.draw(st.integers(0, deadline - 1))
    path = greedy_policy_path(stats, deadline, cap)
    w_last = path.entries[-1].metrics.w_s_bar
    eps_w = data.draw(st.floats(0.0, 1.1 * w_last))
    pol, m = optimal_policy(eps_w, path)
    fractional = [s for s, p in pol.probs.items() if p not in (0.0, 1.0)]
    assert len(fractional) <= 1
    assert abs(m.w_s_bar - min(eps_w, w_last)) <= 1e-12
    if eps_w < path.eps_th:
        assert all(p == 0.0 for s, p in pol.probs.items() if s.phi == PHI_U)
        assert abs(m.t_s_bar - stats.t_sk * m.w_s_bar) <= 1e-12


def test_one_transition_table_per_walk_and_frontier(t1_stats, monkeypatch):
    # A walk and a frontier each build their scenario's transition table
    # once and evaluate every policy on it; a solve reads the path's table
    # and builds none, and a refused frontier builds none either.
    real = mdp.transition_table
    built = []

    def counting(*args):
        built.append(args)
        return real(*args)

    for module in (mdp, optimizer, oracle):
        monkeypatch.setattr(module, "transition_table", counting)
    for deadline, cap in ((1, 0), (3, 2), (4, 3), (5, 2)):
        built.clear()
        path = greedy_policy_path(t1_stats, deadline, cap)
        assert built == [(t1_stats, deadline, cap)]
        assert path.table == real(t1_stats, deadline, cap)
        built.clear()
        w_last = path.entries[-1].metrics.w_s_bar
        for eps_w in (0.0, 0.5 * path.eps_th, path.eps_th,
                      0.5 * (path.eps_th + w_last), 2.0 * w_last):
            optimal_policy(eps_w, path)
        assert built == []
        enumerate_frontier(t1_stats, deadline, cap)
        assert built == [(t1_stats, deadline, cap)]
    built.clear()
    with pytest.raises(ValueError, match="19 > 16"):
        enumerate_frontier(t1_stats, 5, 4)
    assert built == []
