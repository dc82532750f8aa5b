import math

import numpy as np
import pytest

from cogarq import (LinkStats, NetState, cycle_values, enumerate_states,
                    greedy_policy_path, link_stats, long_term_metrics,
                    transition_table)
from cogarq.mdp import PHI_K, PHI_U
from cogarq.oracle import policy_from_bitmask

from support import (a0_a1, b_max, cycle_value_closed, delta_s,
                     first_idle_thresholds, g_prime_closed, hp_bound,
                     hp_condition, is_threshold_policy, make_random_stats,
                     max_accessed_levels, reference_efficiency,
                     table1_params, unconstrained_optimal, v_prime_closed)


class TestA0A1:
    def test_past_deadline_is_zero(self):
        assert a0_a1(6, 0.4, 0.6, 5) == (0.0, 0.0)

    def test_at_deadline_single_term(self):
        assert a0_a1(5, 0.4, 0.6, 5) == (1.0, 1.0)

    def test_reliable_primary(self):
        for tau in range(1, 6):
            assert a0_a1(tau, 0.0, 0.6, 5) == (1.0, 1.0)

    def test_geometric_sums(self):
        q_pp, q_ps = 0.38, 0.61
        a0, a1 = a0_a1(2, q_pp, q_ps, 5)
        x = q_pp * q_ps
        assert a0 == pytest.approx((1 - x ** 4) / (1 - x), abs=1e-14)
        assert a1 == pytest.approx((1 - q_pp ** 4) / (1 - q_pp), abs=1e-14)

    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            a0_a1(0, 0.5, 0.5, 5)
        with pytest.raises(ValueError):
            a0_a1(7, 0.5, 0.5, 5)


def _degenerate_stats(seed=3, ensure_hp=True):
    rng = np.random.default_rng(seed)
    return make_random_stats(rng, degenerate=True, ensure_hp=ensure_hp)


class TestHpCondition:
    def test_equal_rates_make_delta_zero(self):
        # with the same rate in both knowledge states, an access in an
        # unknown-message state plus its buffered top-up is worth exactly
        # a clean access, so the margin is zero and the condition holds
        params = table1_params(rate_su=1.91, mean_snr_sp=0.0)
        st = link_stats([params], mc_samples=10 ** 6, seed=5)[0]
        d = delta_s(st)
        se = 1.91 * st.stderr_p_buf / st.rate_su
        assert abs(d) <= 3 * se + 1e-6
        assert hp_condition(st) or d >= 0.0

    def test_table1_arithmetic(self):
        st = LinkStats(q_pp_idle=0.38, q_pp_active=0.68, q_ps_idle=0.61,
                       q_ps_active=0.74, p_buf=0.26, t_su=0.59, t_sk=1.10,
                       t_p_idle=1.56, t_p_active=0.81, rate_p=2.52,
                       rate_su=1.12, rate_sk=1.91)
        assert delta_s(st) == pytest.approx(0.195, abs=0.005)
        assert hp_bound(st) == pytest.approx(0.52, abs=0.005)
        assert hp_condition(st)

    def test_saturating_active_outage_fails_condition(self):
        st = LinkStats(q_pp_idle=0.4, q_pp_active=0.4, q_ps_idle=0.5,
                       q_ps_active=0.999, p_buf=0.2, t_su=0.5, t_sk=1.4,
                       t_p_idle=1.2, t_p_active=1.2, rate_p=2.0,
                       rate_su=1.0, rate_sk=1.5)
        assert delta_s(st) > 0
        assert not hp_condition(st)


class TestBMax:
    def test_requires_degenerate(self, t1_stats):
        with pytest.raises(ValueError):
            b_max(1, t1_stats, 5)

    def test_deadline_attempt_formula(self):
        st = _degenerate_stats()
        dq = st.q_ps_active - st.q_ps_idle
        expected = math.ceil(st.t_su / st.rate_su / dq) - 1
        assert b_max(5, st, 5) == expected

    def test_nonincreasing_in_attempt_index(self):
        for seed in range(6):
            st = _degenerate_stats(seed)
            vals = [b_max(t, st, 5) for t in range(1, 6)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_marginal_reward_changes_sign_at_threshold(self):
        # b_max is the last buffer level with positive marginal reward
        st = _degenerate_stats(9)
        for t in range(1, 6):
            bm = b_max(t, st, 5)
            assert g_prime_closed(t, bm, st, 5) > 0.0
            assert g_prime_closed(t, bm + 1, st, 5) <= 0.0


class TestThresholdStructure:
    def test_path_policies_are_threshold_policies(self):
        for seed in range(5):
            st = _degenerate_stats(seed)
            deadline, cap = 5, 4
            # the path from the entry where every known-message state is
            # active; earlier entries leave some of them idle
            path = greedy_policy_path(st, deadline, cap)
            prev = None
            for j in range(deadline - 1, len(path.entries)):
                pol = path.policy(j)
                assert is_threshold_policy(pol, deadline)
                th = first_idle_thresholds(pol, deadline)
                finite = [th[t] for t in range(1, deadline + 1)]
                assert all(a >= b for a, b in zip(finite, finite[1:])), \
                    "thresholds must be nonincreasing in the attempt index"
                if prev is not None:
                    assert all(th[t] >= prev[t] for t in th), \
                        "thresholds must be nondecreasing along the walk"
                prev = th

    def test_final_thresholds_match_closed_form(self):
        for seed in range(5):
            st = _degenerate_stats(seed)
            deadline, cap = 5, 4
            path = greedy_policy_path(st, deadline, cap)
            final = max_accessed_levels(path.policy(len(path.entries) - 1),
                                        deadline)
            for t in range(1, deadline + 1):
                clamped = min(b_max(t, st, deadline), min(t - 1, cap))
                assert final[t] == clamped

    def test_unconstrained_matches_greedy_endpoint(self):
        for seed in range(5):
            st = _degenerate_stats(seed)
            path = greedy_policy_path(st, 5, 4)
            pol = unconstrained_optimal(st, 5, 4)
            assert pol.probs == path.policy(len(path.entries) - 1).probs

    def test_unconstrained_beats_all_deterministic_policies(self):
        st = _degenerate_stats(7)
        deadline, cap = 3, 2
        table = transition_table(st, deadline, cap)
        best = long_term_metrics(unconstrained_optimal(st, deadline, cap),
                                 table).t_s_bar
        states = enumerate_states(deadline, cap)
        for mask in range(1 << len(states)):
            pol = policy_from_bitmask(mask, states)
            m = long_term_metrics(pol, table)
            assert m.t_s_bar <= best + 1e-9

    def test_efficiency_ordering_on_idle_states(self):
        st = _degenerate_stats(13)
        deadline, cap = 5, 4
        path = greedy_policy_path(st, deadline, cap)
        walk = [path.policy(j)
                for j in range(deadline - 1, len(path.entries))]
        for pol in walk[:4]:
            cv = cycle_values(pol, path.table)
            idle = {(s.t, s.b) for s, p in pol.probs.items()
                    if s.phi == PHI_U and p == 0.0}
            eta = {tb: reference_efficiency(path.table, cv,
                                            NetState(tb[0], tb[1], PHI_U))[3]
                   for tb in idle}
            for (t, b) in idle:
                if (t, b + 1) in idle:
                    assert eta[(t, b)] > eta[(t, b + 1)]
                if (t + 1, b) in idle:
                    assert eta[(t, b)] > eta[(t + 1, b)]


class TestClosedForms:
    def test_cycle_values_on_threshold_policies(self):
        st = _degenerate_stats(21)
        deadline, cap = 5, 4
        path = greedy_policy_path(st, deadline, cap)
        walk = [path.policy(j)
                for j in range(deadline - 1, len(path.entries))]
        for pol in (walk[0], walk[len(walk) // 2], walk[-1]):
            cv = cycle_values(pol, path.table)
            for s in pol.probs:
                if s.phi == PHI_K or pol.probs[s] == 0.0:
                    v, g = cycle_value_closed(s, st, deadline)
                    i = path.table.space.index(s)
                    assert abs(v - cv.v[i]) <= 1e-9
                    assert abs(g - cv.g[i]) <= 1e-9

    def test_derivatives_on_threshold_policies(self):
        st = _degenerate_stats(22)
        deadline, cap = 5, 4
        path = greedy_policy_path(st, deadline, cap)
        walk = [path.policy(j)
                for j in range(deadline - 1, len(path.entries))]
        for pol in (walk[0], walk[2], walk[-1]):
            cv = cycle_values(pol, path.table)
            for s in pol.probs:
                if s.phi == PHI_U and pol.probs[s] == 0.0:
                    g_p, v_p, d_p, _ = reference_efficiency(path.table, cv,
                                                            s)
                    assert abs(g_p - g_prime_closed(s.t, s.b, st, deadline)) \
                        <= 1e-9
                    assert abs(v_p - v_prime_closed(s.t, st, deadline)) <= 1e-9
                    assert abs(d_p) <= 1e-12
