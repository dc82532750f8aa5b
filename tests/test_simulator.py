import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cogarq import (Policy, RegionClassifier, SimConfig, SimResult,
                    enumerate_states, empirical_transition_check,
                    long_term_metrics, run)
from cogarq.mdp import PHI_K, state_space, transition_table
from cogarq.simulator import (ACK, ACTIVE, P_OK, SK_OK, _CHUNK, _CODES,
                              _Chain, _moves)

from support import (TABLE1_SNRS, idle_policy, k_active_policy,
                     make_random_policy, reference_matrix,
                     reference_simulation, sized_policies, table1_params)


def _config(params, policy, slots, seed):
    return SimConfig(params=params, policy=policy, num_slots=slots, seed=seed)


def _dense(moves, n):
    """A Counter of moves as dense (n, 2, n) transition counts."""
    dense = np.zeros(2 * n * n, dtype=np.int64)
    dense[list(moves)] = list(moves.values())
    return dense.reshape(n, 2, n)


def _counts(params, policy, slots, seed):
    """The run's transition counts as a dense (n, 2, n) array."""
    moves = _moves(_config(params, policy, slots, seed))
    return _dense(moves, len(state_space(params.deadline_D,
                                         params.buffer_B).layer))


def _dense_gap(counts, table):
    """The transition gap over dense counts and stacked analytic rows."""
    n = len(table.space.layer)
    analytic = np.stack([reference_matrix(table, [0.0] * n),
                         reference_matrix(table, [1.0] * n)], axis=1)
    totals = counts.sum(axis=2)
    visited = totals > 0
    empirical = counts[visited] / totals[visited][:, None]
    return float(np.abs(empirical - analytic[visited]).max())


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
        table = transition_table(t1_stats, 5, 4)
        for seed in (101, 202):
            pol = make_random_policy(rng, states)
            m = long_term_metrics(pol, table)
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


# D = 30, B = 12 (341 states) on a faint primary link: nearly every cycle
# NACKs to the deadline, so a path that ends inside a chunk cuts a cycle
# at every attempt layer
_LONG = (30, 12, make_random_policy(np.random.default_rng(30),
                                    enumerate_states(30, 12)))


class TestBookkeeping:
    # a single slot, small odd counts, runs longer than one chunk of
    # cycles, and a path cut across every layer of long cycles
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(sized=sized_policies(),
           slots=st.sampled_from([1, 2, 7, 19, 2 ** 13 + 3, _CHUNK + 1,
                                  3 * _CHUNK + 5]),
           seed=st.integers(0, 2 ** 32),
           mean_snr_p=st.just(TABLE1_SNRS["mean_snr_p"]))
    @example(sized=_LONG, slots=10 ** 5 + 3, seed=5, mean_snr_p=0.5)
    def test_counts_match_result(self, sized, slots, seed, mean_snr_p):
        # exact identities between the transition counts and the result
        # of the same sample path pin the cut at num_slots and the
        # per-layer sums
        deadline, cap, policy = sized
        params = table1_params(deadline_D=deadline, buffer_B=cap,
                               mean_snr_p=mean_snr_p)
        r = run(_config(params, policy, slots, seed))
        counts = _counts(params, policy, slots, seed)
        known = [i for i, s in enumerate(enumerate_states(deadline, cap))
                 if s.phi == PHI_K]
        # one path from the root: every state but the last is left as
        # often as it is entered, the root counted as entered once more
        net = counts.sum(axis=(1, 2)) - counts.sum(axis=(0, 1))
        net[0] -= 1
        assert net[net != 0].tolist() == [-1]
        assert counts.sum() == slots == r.num_slots
        assert counts[:, 1, :].sum() == round(r.w_s_emp * slots)
        assert counts[known, 1, :].sum() == r.k_access_slots
        assert counts[:, :, 0].sum() == r.cycles_completed
        bits = r.u_bits + r.fic_bits + r.bic_bits
        assert math.isclose(bits, r.t_s_emp * slots, rel_tol=1e-9,
                            abs_tol=1e-12)

    def test_one_more_slot_adds_one_transition(self, t1_params):
        # runs of at least _CHUNK slots draw the same first chunk of
        # cycles, so the shorter run's path is a prefix of the longer's;
        # a run as long as that chunk ends at its last cycle's end
        pol = make_random_policy(np.random.default_rng(6),
                                 enumerate_states(5, 4))
        _, row = _Chain(t1_params, pol).cycles(np.random.default_rng(6),
                                               _CHUNK)
        for slots in (_CHUNK, _CHUNK + 1234, len(row) - 1):
            short = _counts(t1_params, pol, slots, 6)
            longer = _counts(t1_params, pol, slots + 1, 6)
            assert (short <= longer).all()
            assert (longer - short).sum() == 1


class TestAgainstReference:
    # the vectorized step against a reference that moves each cycle by the
    # state definition; the paths end after one slot, inside the first
    # chunk, or (at D = 1, one slot per cycle) two chunks later
    @pytest.mark.parametrize("deadline,cap", [(1, 0), (2, 1), (3, 0),
                                              (4, 3), (5, 2), (6, 5)])
    def test_matches_reference(self, deadline, cap):
        params = table1_params(deadline_D=deadline, buffer_B=cap)
        rng = np.random.default_rng(10 * deadline + cap)
        states = enumerate_states(deadline, cap)
        for policy in [make_random_policy(rng, states) for _ in range(2)]:
            for seed in (1, 7):
                for slots in (1, 777, 2 * _CHUNK + 5):
                    r = run(_config(params, policy, slots, seed))
                    _assert_matches_reference(r, params, policy, slots,
                                              seed)

    @pytest.mark.parametrize("policy_kind", ["idle", "random"])
    def test_overflowing_cross_link(self, policy_kind):
        # About 17 % of the gamma_sp draws of mean 1e308 overflow to inf:
        # an active slot's ACK threshold is then inf, an idle slot's stays
        # thr_p (inf * 0 would be NaN and NACK every idle slot), and
        # nothing warns.
        params = table1_params(deadline_D=3, buffer_B=2, mean_snr_sp=1e308)
        states = enumerate_states(3, 2)
        policy = (idle_policy(states) if policy_kind == "idle"
                  else make_random_policy(np.random.default_rng(3), states))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(_config(params, policy, 10 ** 5, 1))
        _assert_matches_reference(r, params, policy, 10 ** 5, 1)


def _assert_matches_reference(r, params, policy, slots, seed):
    """``r``, the run of (params, policy, slots, seed), and its transition
    counts equal those of `reference_simulation`."""
    counts = _counts(params, policy, slots, seed)
    ref, ref_counts = reference_simulation(params, policy, slots, seed)
    assert counts.tolist() == ref_counts.tolist()
    for f in fields(SimResult):
        got, want = getattr(r, f.name), getattr(ref, f.name)
        if isinstance(want, int):
            assert got == want, f.name
        else:
            assert math.isclose(got, want, rel_tol=1e-12), (f.name, got,
                                                            want)


class TestOnePass:
    @pytest.mark.parametrize("check", [False, True])
    def test_every_chunk_is_drawn_once(self, monkeypatch, t1_stats, check):
        # a path that ends inside a chunk draws that chunk once: no call
        # of the sampler starts from a generator state seen before
        params = table1_params(deadline_D=4, buffer_B=3)
        pol = make_random_policy(np.random.default_rng(4),
                                 enumerate_states(4, 3))
        states, drawn = [], []
        cycles = _Chain.cycles

        def recorded(chain, rng, n):
            states.append(repr(rng.bit_generator.state))
            cycle, row = cycles(chain, rng, n)
            drawn.append(len(row))
            return cycle, row

        monkeypatch.setattr(_Chain, "cycles", recorded)
        config = _config(params, pol, 10 ** 6, 3)
        if check:
            empirical_transition_check(config, stats=t1_stats)
        else:
            run(config)
        assert sum(drawn) > 10 ** 6 > sum(drawn[:-1])
        assert len(set(states)) == len(states)


def test_chain_holds_per_class_tables():
    # at D = 200 (20 299 states) only the next-state table has a row per
    # state and code (10 MiB); what a slot adds to each output has a row
    # per slot-law class, 201 of them
    params = table1_params(deadline_D=200, buffer_B=199)
    pol = idle_policy(enumerate_states(200, 199))
    tracemalloc.start()
    try:
        chain = _Chain(params, pol)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffers = (chain.draws.nbytes + chain.bits.nbytes + chain.code.nbytes
               + chain.slots.nbytes)
    assert held - buffers < 16 * 2 ** 20


def test_run_slot_buffer_follows_the_path():
    # the D = 200, B = 199 run of the known-message-only policy, 20 000
    # slots, as `test_cli` simulates it: its one chunk draws about 31 000
    # slots, so the slot buffer holds 2^15 slots (256 KiB), where
    # 2^14 * 200, what a chunk could draw, takes 25 MiB; the peak is
    # 17.4 MiB
    params = table1_params(deadline_D=200, buffer_B=199)
    pol = k_active_policy(enumerate_states(200, 199))
    tracemalloc.start()
    try:
        result = run(_config(params, pol, 20_000, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.num_slots == 20_000 and result.k_access_slots > 0
    assert peak < 20 * 2 ** 20


class TestRegenerativeErrors:
    def test_stderr_matches_spread_across_seeds(self, t1_params):
        pol = make_random_policy(np.random.default_rng(8),
                                 enumerate_states(5, 4))
        runs = [run(_config(t1_params, pol, 20_000, seed))
                for seed in range(100)]
        spread = np.std([r.t_s_emp for r in runs], ddof=1)
        mean_se = np.mean([r.stderr_t_s for r in runs])
        assert 0.7 <= spread / mean_se <= 1.4

    def test_fewer_than_two_cycles_give_inf(self, t1_params):
        pol = make_random_policy(np.random.default_rng(9),
                                 enumerate_states(5, 4))
        one_slot = table1_params(deadline_D=1, buffer_B=0)
        cases = [(t1_params, pol), (one_slot, Policy(
            {s: 1.0 for s in enumerate_states(1, 0)}))]
        for params, policy in cases:
            r = run(_config(params, policy, 1, 4))
            assert r.cycles_completed <= 1
            assert r.stderr_t_s == r.stderr_w_s == r.stderr_t_p == math.inf
        assert r.cycles_completed == 1

    def test_two_single_slot_cycles_give_finite_errors(self):
        params = table1_params(deadline_D=1, buffer_B=0)
        pol = Policy({s: 1.0 for s in enumerate_states(1, 0)})
        r = run(_config(params, pol, 2, 4))
        assert r.cycles_completed == 2
        assert r.stderr_w_s == 0.0
        assert math.isfinite(r.stderr_t_s) and math.isfinite(r.stderr_t_p)


class TestDecodeConsistency:
    def test_inline_predicates_match_region_membership(self, t1_params):
        # the simulator decodes with `masks`, one draw or many; the scalar
        # predicates below are the independent reference it must match
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
            one = cls.masks(np.asarray(a), np.asarray(b))
            assert tuple(bool(m) for m in one) == (sim_gp, sim_gs, sim_buf)


class TestEmpiricalTransitionCheck:
    def test_idle_rows_match_pattern(self, t1_params, t1_stats):
        states = enumerate_states(5, 4)
        cfg = _config(t1_params, idle_policy(states), 300_000, 19)
        err = empirical_transition_check(cfg, stats=t1_stats)
        assert err <= 0.02

    def test_single_slot_deadline_only_restarts(self, t1_stats):
        params = table1_params(deadline_D=1, buffer_B=0)
        pol = Policy({s: 1.0 for s in enumerate_states(1, 0)})
        counts = _counts(params, pol, 10_000, 3)
        # the root is the only state: every active slot restarts the cycle
        assert counts.tolist() == [[[0], [10_000]]]

    @pytest.mark.parametrize("deadline,cap", [(1, 0), (3, 0), (6, 0),
                                              (6, 5)])
    def test_counts_only_on_layout_successors(self, deadline, cap):
        # every simulated move goes to a successor of the layout or, at an
        # ACK or the deadline, to the root
        params = table1_params(deadline_D=deadline, buffer_B=cap)
        space = state_space(deadline, cap)
        pol = make_random_policy(np.random.default_rng(deadline + cap),
                                 enumerate_states(deadline, cap))
        counts = _counts(params, pol, 200_000, 5)
        for i, a, j in zip(*np.nonzero(counts)):
            assert j == 0 or j in space.succ[3 * i:3 * i + 3], (i, a, j)
            # an idle slot buffers nothing, so it never grows
            assert a == 1 or j == 0 or j != space.succ[3 * i + 1], (i, j)
        # and every outcome the layout allows at the root happens
        assert all(counts[0, :, j].sum() > 0 for j in space.succ[:3] if j)

    @pytest.mark.parametrize("deadline,cap,seed", [
        (4, 3, 1), (4, 3, 2), (4, 3, 3), (4, 3, 4), (4, 3, 5), (1, 0, 1),
        (6, 5, 2), (6, 0, 3)])
    def test_equals_dense_reference(self, t1_stats, deadline, cap, seed):
        # only visited rows, on their seen and analytic successors, give
        # the dense comparison's gap to the last bit
        params = table1_params(deadline_D=deadline, buffer_B=cap)
        pol = make_random_policy(np.random.default_rng(seed),
                                 enumerate_states(deadline, cap))
        gap = empirical_transition_check(_config(params, pol, 100_000, seed),
                                         stats=t1_stats)
        dense = _counts(params, pol, 100_000, seed)
        assert gap == _dense_gap(dense, transition_table(t1_stats, deadline,
                                                         cap))

    def test_move_to_a_wrong_state_is_a_gap(self, monkeypatch, t1_stats):
        # a move the table does not allow, here from the idle root straight
        # to the last known-message state on every NACKed slot that would
        # otherwise stay and whose gamma_s >= thr_sk, counts as a gap
        params = table1_params(deadline_D=4, buffer_B=3)
        pol = make_random_policy(np.random.default_rng(8),
                                 enumerate_states(4, 3))
        n = len(state_space(4, 3).layer)
        code = np.arange(_CODES)
        wrong = ((code & (ACTIVE | ACK | P_OK)) == 0) & ((code & SK_OK) > 0)
        init = _Chain.__init__

        def corrupted(chain, *args):
            init(chain, *args)
            chain.next[:_CODES][wrong] = n - 1     # the root's rows

        monkeypatch.setattr(_Chain, "__init__", corrupted)
        gap = empirical_transition_check(_config(params, pol, 100_000, 8),
                                         stats=t1_stats)
        counts = _counts(params, pol, 100_000, 8)
        assert counts[0, 0, n - 1] > 0
        assert gap >= counts[0, 0, n - 1] / counts[0, 0].sum()
        assert gap == _dense_gap(counts, transition_table(t1_stats, 4, 3))

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

    @pytest.mark.parametrize("slots, seed", [
        (2.5, 1), (True, 1), (np.float64(10.0), 1),
        (10, 1.5), (10, True), (10, -1)])
    def test_bool_fractional_or_negative(self, t1_params, slots, seed):
        states = enumerate_states(5, 4)
        with pytest.raises(ValueError):
            SimConfig(params=t1_params, policy=idle_policy(states),
                      num_slots=slots, seed=seed)

    def test_numpy_integers_accepted(self, t1_params):
        states = enumerate_states(5, 4)
        cfg = SimConfig(params=t1_params, policy=idle_policy(states),
                        num_slots=np.int64(10), seed=np.int32(3))
        assert run(cfg).num_slots == 10

    def test_policy_must_cover_state_space(self, t1_params):
        with pytest.raises(ValueError):
            SimConfig(params=t1_params,
                      policy=Policy({enumerate_states(5, 4)[0]: 1.0}),
                      num_slots=10, seed=1)
