import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogarq import (NetState, Policy, PolicyMetrics, access_rate_budget,
                    blend_policies, cycle_derivatives, cycle_values,
                    efficiency, enumerate_frontier, enumerate_states,
                    greedy_policy_path, k_active_policy, long_term_metrics,
                    low_regime_policy, optimal_policy, oracle_optimum)
from cogarq import optimizer
from cogarq.mdp import PHI_K, PHI_U
from cogarq.optimizer import IDLE_START

from support import feasible_stats, make_random_policy, make_random_stats

RANDOM_CASES = [(2, 0), (2, 1), (3, 0), (3, 2), (5, 4)]


class TestCycleDerivatives:
    def test_deadline_state(self, t1_stats):
        pol = k_active_policy(enumerate_states(5, 4))
        s = NetState(5, 2, PHI_U)
        g_p, v_p, d_p = cycle_derivatives(pol, s, t1_stats, 5, 4)
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
        for s in states:
            _, _, d_p = cycle_derivatives(pol, s, stats, 4, 3)
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
            cv = cycle_values(pol, stats, deadline, cap)
            for s in states:
                g_p, v_p, d_p = cycle_derivatives(pol, s, stats, deadline,
                                                  cap, cv)
                bumped = cycle_values(pol.with_prob(s, pol.prob(s) + delta),
                                      stats, deadline, cap)
                assert abs((bumped.g[s] - cv.g[s]) / delta - g_p) <= 1e-5
                assert abs((bumped.v[s] - cv.v[s]) / delta - v_p) <= 1e-5
                assert abs((bumped.dur[s] - cv.dur[s]) / delta - d_p) <= 1e-5


class TestEfficiency:
    def test_denominator_positive_on_random_policies(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            deadline, cap = RANDOM_CASES[trial % len(RANDOM_CASES)]
            stats = make_random_stats(rng)
            states = enumerate_states(deadline, cap)
            pol = make_random_policy(rng, states)
            m = long_term_metrics(pol, stats, deadline, cap)
            cv = cycle_values(pol, stats, deadline, cap)
            for s in states:
                _, v_p, d_p = cycle_derivatives(pol, s, stats, deadline,
                                                cap, cv)
                assert v_p - d_p * m.w_s_bar > 0.0

    def test_u_idle_policy_efficiencies(self, t1_stats):
        # With every unknown-message state idle, a known-message access is
        # worth exactly the clean-channel throughput; any unknown-message
        # access is worth strictly less.
        states = enumerate_states(5, 4)
        pol = k_active_policy(states)
        pol = pol.with_prob(NetState(3, 0, PHI_K), 0.0)  # partially active
        for s in states:
            eta = efficiency(pol, s, t1_stats, 5, 4)
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
        eta0 = efficiency(pol, s, t1_stats, 5, 4)
        errs = []
        for upsilon in (1e-2, 1e-3):
            blended = blend_policies(explore, pol, upsilon)
            errs.append(abs(efficiency(blended, s, t1_stats, 5, 4) - eta0))
        assert errs[1] <= 0.2 * errs[0] + 1e-9
        assert errs[0] <= 0.5


class TestLowRegimePolicy:
    def test_zero_budget_is_idle(self, t1_stats):
        pol = low_regime_policy(0.0, 0.25, 5, 4, stats=t1_stats)
        assert all(p == 0.0 for p in pol.probs.values())

    def test_full_threshold_is_k_active(self, t1_stats):
        pol = low_regime_policy(0.25, 0.25, 5, 4, stats=t1_stats)
        assert pol.probs == k_active_policy(enumerate_states(5, 4)).probs

    def test_exactness(self, t1_stats):
        states = enumerate_states(5, 4)
        eps_th = long_term_metrics(k_active_policy(states), t1_stats, 5,
                                   4).w_s_bar
        for frac in (0.1, 0.33, 0.5, 0.77, 0.95):
            eps_w = frac * eps_th
            pol = low_regime_policy(eps_w, eps_th, 5, 4, stats=t1_stats)
            m = long_term_metrics(pol, t1_stats, 5, 4)
            assert abs(m.w_s_bar - eps_w) <= 1e-9
            assert abs(m.t_s_bar - t1_stats.t_sk * eps_w) <= 1e-9
            # only known-message states transmit, all with one probability
            probs_k = {pol.prob(s) for s in states if s.phi == PHI_K}
            assert len(probs_k) == 1
            assert all(pol.prob(s) == 0.0 for s in states if s.phi == PHI_U)

    def test_few_evaluations_per_budget(self, t1_stats, monkeypatch):
        states = enumerate_states(5, 4)
        eps_th = long_term_metrics(k_active_policy(states), t1_stats, 5,
                                   4).w_s_bar
        calls = []

        def counting(*args):
            calls.append(args)
            return long_term_metrics(*args)

        monkeypatch.setattr(optimizer, "long_term_metrics", counting)
        for frac in (0.1, 0.33, 0.5, 0.77, 0.95):
            eps_w = frac * eps_th
            calls.clear()
            pol = low_regime_policy(eps_w, eps_th, 5, 4, stats=t1_stats)
            assert len(calls) <= 15
            w = long_term_metrics(pol, t1_stats, 5, 4).w_s_bar
            assert abs(w - eps_w) <= optimizer.W_SOLVE_TOL

    def test_budget_above_threshold_rejected(self, t1_stats):
        with pytest.raises(ValueError):
            low_regime_policy(0.3, 0.25, 5, 4, stats=t1_stats)

    def test_non_convergence_raises(self, t1_stats, monkeypatch):
        # An evaluator whose access rate never reaches the budget must not
        # yield a policy.
        stuck = PolicyMetrics(t_s_bar=0.0, w_s_bar=0.0, t_p_bar=0.0,
                              p_s_ratio=0.0)
        monkeypatch.setattr(optimizer, "long_term_metrics",
                            lambda *args: stuck)
        with pytest.raises(RuntimeError, match="did not converge"):
            low_regime_policy(0.1, 0.25, 5, 4, stats=t1_stats)


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

    def test_metrics_strictly_increase(self, t1_stats):
        path = greedy_policy_path(t1_stats, 2, 1)
        pairs = list(zip(path.entries, path.entries[1:]))
        assert pairs
        for a, b in pairs:
            assert b.metrics.w_s_bar > a.metrics.w_s_bar
            assert b.metrics.t_s_bar > a.metrics.t_s_bar

    def test_consecutive_policies_differ_in_one_state(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        for a, b in zip(path.entries, path.entries[1:]):
            diff = [s for s in a.policy.probs
                    if a.policy.probs[s] != b.policy.probs[s]]
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
        path = greedy_policy_path(t1_stats, 5, 4, start=IDLE_START)
        k_states = [s for s in enumerate_states(5, 4) if s.phi == PHI_K]
        chosen = [e.chosen_state for e in path.entries[1:]]
        assert chosen[:len(k_states)] == k_states
        # after the known states are active the policy equals the standard
        # walk's start, so both walks reach the same final policy
        std = greedy_policy_path(t1_stats, 5, 4)
        assert path.entries[len(k_states)].policy.probs == \
            std.entries[0].policy.probs
        assert path.entries[-1].policy.probs == std.entries[-1].policy.probs

    def test_path_json(self, t1_stats):
        path = greedy_policy_path(t1_stats, 2, 1)
        obj = path.to_json_obj()
        assert obj["eps_th"] == path.eps_th
        assert obj["path"][0]["chosen_state"] is None
        assert all(set(e) == {"policy", "t_s_bar", "w_s_bar", "chosen_state"}
                   for e in obj["path"])


class TestOptimalPolicy:
    def test_budget_beyond_path_returns_last(self, t1_stats):
        path = greedy_policy_path(t1_stats, 3, 2)
        last = path.entries[-1]
        pol, m = optimal_policy(last.metrics.w_s_bar + 0.05, path, t1_stats,
                                3, 2)
        assert pol.probs == last.policy.probs
        assert m == last.metrics

    def test_threshold_boundary_is_k_active(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        pol, m = optimal_policy(path.eps_th, path, t1_stats, 5, 4)
        assert pol.probs == k_active_policy(enumerate_states(5, 4)).probs
        assert m.t_s_bar == pytest.approx(t1_stats.t_sk * path.eps_th,
                                          abs=1e-9)

    def test_high_regime_meets_budget_exactly(self, t1_stats):
        path = greedy_policy_path(t1_stats, 5, 4)
        for eps_w in (0.3, 0.5, 0.75, 0.9):
            pol, m = optimal_policy(eps_w, path, t1_stats, 5, 4)
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
                pol, m = optimal_policy(eps_w, path, stats, deadline, cap)
                assert abs(m.w_s_bar - eps_w) <= 1e-14
                assert m == long_term_metrics(pol, stats, deadline, cap)

    def test_negative_budget_rejected(self, t1_stats):
        path = greedy_policy_path(t1_stats, 2, 1)
        with pytest.raises(ValueError):
            optimal_policy(-0.1, path, t1_stats, 2, 1)

    @pytest.mark.parametrize("eps_w", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_budget_rejected(self, t1_stats, eps_w):
        path = greedy_policy_path(t1_stats, 2, 1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            optimal_policy(eps_w, path, t1_stats, 2, 1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(feasible_stats(), st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 2)]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_greedy_optimum_equals_oracle(stats, shape, budgets):
    deadline, cap = shape
    path = greedy_policy_path(stats, deadline, cap)
    frontier = enumerate_frontier(stats, deadline, cap)
    for eps_w in budgets:
        _, m = optimal_policy(eps_w, path, stats, deadline, cap)
        star = oracle_optimum(eps_w, frontier, stats, deadline, cap)
        assert abs(m.t_s_bar - star) <= 1e-9
