import numpy as np
import pytest

from cogarq import (Policy, RegionClassifier, SimConfig, enumerate_states,
                    empirical_transition_check, idle_policy, k_active_policy,
                    long_term_metrics, region_membership, run)
from cogarq.mdp import PHI_U
from cogarq.simulator import _simulate

from support import make_random_policy, table1_params


def _config(params, policy, slots, seed):
    return SimConfig(params=params, policy=policy, num_slots=slots, seed=seed)


class TestRun:
    def test_deterministic(self, t1_params):
        states = enumerate_states(5, 4)
        pol = k_active_policy(states)
        a = run(_config(t1_params, pol, 20_000, 7))
        b = run(_config(t1_params, pol, 20_000, 7))
        assert a == b

    def test_idle_policy(self, t1_params, t1_stats):
        states = enumerate_states(5, 4)
        r = run(_config(t1_params, idle_policy(states), 200_000, 3))
        assert r.w_s_emp == 0.0
        assert r.t_s_emp == 0.0
        assert abs(r.t_p_emp - t1_stats.t_p_idle) <= 3 * r.stderr_t_p

    def test_single_slot_deadline_always_active(self, t1_stats):
        params = table1_params(deadline_D=1, buffer_B=0)
        pol = Policy({s: 1.0 for s in enumerate_states(1, 0)})
        r = run(_config(params, pol, 300_000, 11))
        assert r.w_s_emp == 1.0
        assert abs(r.t_s_emp - t1_stats.t_su) <= 3 * r.stderr_t_s
        assert r.bic_bits == 0.0
        assert r.fic_bits == 0.0

    def test_random_policies_match_analytic(self, t1_params, t1_stats):
        rng = np.random.default_rng(31)
        states = enumerate_states(5, 4)
        for seed in (101, 202):
            pol = make_random_policy(rng, states)
            m = long_term_metrics(pol, t1_stats, 5, 4)
            r = run(_config(t1_params, pol, 400_000, seed))
            assert abs(r.t_s_emp - m.t_s_bar) <= 3 * r.stderr_t_s + 1e-12
            assert abs(r.w_s_emp - m.w_s_bar) <= 3 * r.stderr_w_s + 1e-12
            assert abs(r.t_p_emp - m.t_p_bar) <= 3 * r.stderr_t_p + 1e-12

    def test_throughput_decomposition(self, t1_params, t1_stats):
        # total bits split into plain accesses at the interfered
        # throughput, the clean-channel top-up, and buffered recoveries
        rng = np.random.default_rng(5)
        pol = make_random_policy(rng, enumerate_states(5, 4))
        r = run(_config(t1_params, pol, 400_000, 77))
        n = r.num_slots
        recon = (t1_stats.t_su * r.w_s_emp
                 + (t1_stats.t_sk - t1_stats.t_su) * r.k_access_slots / n
                 + r.bic_bits / n)
        assert abs(r.t_s_emp - recon) <= 3 * r.stderr_t_s + 1e-3

    def test_cycles_bounded_by_deadline(self, t1_params):
        states = enumerate_states(5, 4)
        pol = Policy({s: 1.0 for s in states})
        r = run(_config(t1_params, pol, 100_000, 13))
        assert r.cycles_completed >= r.num_slots / t1_params.deadline_D - 1

    def test_result_json(self, t1_params):
        import json
        states = enumerate_states(5, 4)
        r = run(_config(t1_params, idle_policy(states), 1_000, 1))
        obj = json.loads(r.to_json())
        assert obj["num_slots"] == 1_000
        assert "stderr_t_s" in obj


class TestDecodeConsistency:
    def test_inline_predicates_match_region_membership(self, t1_params):
        # the simulator decodes with `masks`; a scalar restatement of the
        # region predicates, `label` and `region_membership` must agree
        # with it on every draw
        cls = RegionClassifier(t1_params.rate_su, t1_params.rate_p)
        rng = np.random.default_rng(17)
        gs = rng.exponential(5.0, 100_000)
        gps = rng.exponential(5.0, 100_000)
        in_gp, in_gs, buf = cls.masks(gs, gps)
        thr_su, thr_p = cls.thr_su, cls.thr_p
        thr_sum = cls.thr_sum
        for i in range(0, 100_000, 97):
            a, b = float(gs[i]), float(gps[i])
            in_mac = a >= thr_su and b >= thr_p and a + b >= thr_sum
            sim_gp = in_mac or (a < thr_su and b >= thr_p * (1.0 + a))
            sim_gs = in_mac or (b < thr_p and a >= thr_su * (1.0 + b))
            sim_buf = not sim_gp and not sim_gs and a >= thr_su
            assert sim_gp == bool(in_gp[i])
            assert sim_gs == bool(in_gs[i])
            assert sim_buf == bool(buf[i])
            assert region_membership(a, b, t1_params.rate_su,
                                     t1_params.rate_p) == cls.label(a, b)


class TestEmpiricalTransitionCheck:
    def test_idle_rows_match_pattern(self, t1_params, t1_stats):
        states = enumerate_states(5, 4)
        cfg = _config(t1_params, idle_policy(states), 300_000, 19)
        err = empirical_transition_check(cfg, stats=t1_stats)
        assert err <= 0.02

    def test_single_slot_deadline_only_restarts(self, t1_stats):
        params = table1_params(deadline_D=1, buffer_B=0)
        pol = Policy({s: 1.0 for s in enumerate_states(1, 0)})
        _, trans = _simulate(params, pol, 10_000, 3, collect_transitions=True)
        for (_, _), row in trans.items():
            assert set(row) == {(1, 0, PHI_U)}

    def test_always_active_moderate_slots(self, t1_params, t1_stats):
        states = enumerate_states(5, 4)
        pol = Policy({s: 1.0 for s in states})
        cfg = _config(t1_params, pol, 500_000, 2026)
        err = empirical_transition_check(cfg, stats=t1_stats)
        assert err <= 0.03


class TestConfigValidation:
    def test_bad_slots(self, t1_params):
        states = enumerate_states(5, 4)
        with pytest.raises(ValueError):
            SimConfig(params=t1_params, policy=idle_policy(states),
                      num_slots=0, seed=1)

    def test_policy_must_cover_state_space(self, t1_params):
        with pytest.raises(ValueError):
            SimConfig(params=t1_params,
                      policy=Policy({enumerate_states(5, 4)[0]: 1.0}),
                      num_slots=10, seed=1)
