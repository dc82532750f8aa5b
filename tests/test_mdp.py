import numpy as np
import pytest
from hypothesis import given, settings

from cogarq import (NetState, Policy, cycle_values, enumerate_states,
                    idle_policy, k_active_policy, long_term_metrics,
                    policy_from_json_obj, policy_to_json_obj,
                    stationary_distribution)
from cogarq.mdp import (MAX_STATES, PHI_K, PHI_U, _visits,
                        occupancy_metrics, state_count, state_space,
                        transition_table)

from support import (ROOT, feasible_stats, make_random_policy,
                     make_random_stats, reference_cycle_values,
                     reference_transition_row, sized_policies, table_row)

RANDOM_CASES = [(2, 0), (2, 1), (3, 0), (3, 2), (5, 4), (5, 2)]


class TestEnumerateStates:
    def test_single_slot(self):
        assert enumerate_states(1, 0) == [NetState(1, 0, PHI_U)]

    def test_full_buffer_count(self):
        states = enumerate_states(5, 4)
        assert len(states) == 19
        assert sum(1 for s in states if s.phi == PHI_U) == 15
        assert sum(1 for s in states if s.phi == PHI_K) == 4

    def test_no_buffer_count(self):
        states = enumerate_states(3, 0)
        assert len(states) == 5
        assert all(s.b == 0 for s in states)

    def test_ordering_is_canonical(self):
        states = enumerate_states(4, 3)
        u_part = [s for s in states if s.phi == PHI_U]
        k_part = states[len(u_part):]
        assert all(s.phi == PHI_K for s in k_part)
        assert u_part == sorted(u_part, key=lambda s: (s.t, s.b))
        assert k_part == sorted(k_part, key=lambda s: s.t)

    def test_invalid_rejected(self):
        for deadline, cap in ((0, 0), (3, 3), (3, -1)):
            with pytest.raises(ValueError):
                enumerate_states(deadline, cap)
            with pytest.raises(ValueError):
                state_count(deadline, cap)

    def test_state_cap(self):
        # (8193, 2) holds exactly MAX_STATES states, one more attempt is
        # refused, and so is a space far too large to build
        assert state_count(8193, 2) == MAX_STATES == 32768
        assert len(state_space(8193, 2).layer) == MAX_STATES
        for deadline, cap in ((8194, 2), (10 ** 12, 10 ** 12 - 1)):
            n = state_count(deadline, cap)
            with pytest.raises(ValueError, match=rf"state space too large "
                               rf"\({n} > 32768 states\)"):
                state_space(deadline, cap)


@pytest.mark.parametrize("deadline,cap",
                         [(d, b) for d in range(1, 10) for b in range(d)])
def test_state_space(deadline, cap):
    space = state_space(deadline, cap)
    n = len(space.layer)
    assert state_count(deadline, cap) == n
    states = [space.state(i) for i in range(n)]
    assert [space.index(s) for s in states] == list(range(n))
    assert states == enumerate_states(deadline, cap)
    # the layout written out on its own, in the order of NetState.key
    expected = [NetState(t, b, PHI_U) for t in range(1, deadline + 1)
                for b in range(min(t - 1, cap) + 1)]
    expected += [NetState(t, 0, PHI_K) for t in range(2, deadline + 1)]
    assert states == sorted(expected, key=NetState.key)
    assert n == len(expected)

    rng = np.random.default_rng(10 * deadline + cap)
    probs = {s: float(rng.random()) for s in states}
    vector = [probs[s] for s in states]
    items = list(probs.items())
    for order in (items, items[::-1], [items[i] for i in rng.permutation(n)]):
        assert space.vector(Policy(dict(order))) == vector

    with pytest.raises(ValueError):         # a missing state
        space.vector(Policy(dict(items[:-1])))
    outside = [NetState(deadline + 1, 0, PHI_U),
               NetState(deadline, cap + 1, PHI_U),          # b > B
               NetState(1, 0, PHI_K),                       # K needs t >= 2
               NetState(1, 0, "X")]
    outside += [NetState(t, t, PHI_U)                       # b <= t - 1
                for t in range(1, deadline + 1)]
    for bad in outside:
        with pytest.raises(ValueError):
            space.index(bad)
        with pytest.raises(ValueError):
            space.vector(Policy(dict(items[:-1] + [(bad, 0.5)])))
    for p in (float("nan"), -0.1, 1.1):
        with pytest.raises(ValueError):
            space.vector(Policy({**probs, states[-1]: p}))


@pytest.mark.parametrize("deadline,cap",
                         [(d, b) for d in range(1, 9) for b in range(d)])
def test_layout_matches_reference_rows(t1_stats, deadline, cap):
    # the successors with positive mass in the reference rows, under either
    # action, are exactly the layout's nonzero successors, slot by slot
    space = state_space(deadline, cap)
    assert len(space.succ) == 3 * len(space.layer)
    for i, s in enumerate(enumerate_states(deadline, cap)):
        assert space.level[i] == s.b
        reached = set()
        for active in (True, False):
            row = reference_transition_row(s, active, t1_stats, deadline, cap)
            reached |= {n for n, p in row.items() if p > 0.0 and n != ROOT}
        stay, grow, learn = (space.state(j) if j else None
                             for j in space.succ[3 * i:3 * i + 3])
        assert {n for n in (stay, grow, learn) if n} == reached
        # stay keeps the level and the flag, grow adds a level, learn
        # makes an unknown message known
        assert stay in (None, NetState(s.t + 1, s.b, s.phi))
        assert grow in (None, NetState(s.t + 1, s.b + 1, PHI_U))
        assert learn in (None, NetState(s.t + 1, 0, PHI_K))
        assert learn is None or s.phi == PHI_U


class TestTransitionRow:
    """Rows of the transition table at access probability 1 (active) and
    0 (idle), keyed by state."""

    def test_deadline_rows_restart(self, t1_stats):
        table = transition_table(t1_stats, 5, 4)
        for state in (NetState(5, 2, PHI_U), NetState(5, 0, PHI_K)):
            for access_prob in (1.0, 0.0):
                assert table_row(table, state, access_prob) == {ROOT: 1.0}

    def test_known_message_idle_row(self, t1_stats):
        row = table_row(transition_table(t1_stats, 5, 4),
                        NetState(3, 0, PHI_K), 0.0)
        assert row[ROOT] == pytest.approx(1 - t1_stats.q_pp_idle)
        assert row[NetState(4, 0, PHI_K)] == pytest.approx(t1_stats.q_pp_idle)

    def test_buffer_growth_mass(self, t1_stats):
        row = table_row(transition_table(t1_stats, 5, 4),
                        NetState(2, 1, PHI_U), 1.0)
        # Table-I numbers: roughly 0.68 * 0.26
        assert row[NetState(3, 2, PHI_U)] == pytest.approx(0.177, abs=0.01)
        assert row[NetState(3, 2, PHI_U)] == pytest.approx(
            t1_stats.q_pp_active * t1_stats.p_buf, abs=1e-15)

    def test_buffer_clamp_reroutes_mass(self, t1_stats):
        # with buffer size 1, the growth mass folds into the stay entry
        row = table_row(transition_table(t1_stats, 5, 1),
                        NetState(2, 1, PHI_U), 1.0)
        assert NetState(3, 2, PHI_U) not in row
        stay = t1_stats.q_pp_active * (t1_stats.q_ps_active - t1_stats.p_buf)
        grow = t1_stats.q_pp_active * t1_stats.p_buf
        assert row[NetState(3, 1, PHI_U)] == pytest.approx(stay + grow)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for deadline, cap in RANDOM_CASES:
            stats = make_random_stats(rng)
            table = transition_table(stats, deadline, cap)
            for state in enumerate_states(deadline, cap):
                for access_prob in (1.0, 0.0):
                    row = table_row(table, state, access_prob)
                    assert abs(sum(row.values()) - 1.0) <= 1e-12
                    assert all(p >= 0.0 for p in row.values())

    def test_mixed_row_interpolates(self, t1_stats):
        s = NetState(2, 0, PHI_U)
        table = transition_table(t1_stats, 5, 4)
        row_a = table_row(table, s, 1.0)
        row_i = table_row(table, s, 0.0)
        mixed = table_row(table, s, 0.3)
        assert set(mixed) == set(row_a) | set(row_i)
        for nxt in mixed:
            expected = 0.3 * row_a.get(nxt, 0.0) + 0.7 * row_i.get(nxt, 0.0)
            assert mixed[nxt] == pytest.approx(expected, abs=1e-15)


class TestStateReward:
    """The one-slot reward the table carries: throughput at access
    probability 1 (`r_active`) and 0 (`r_idle`), one access per
    transmission and one slot per step."""

    def test_known_state_full_access(self, t1_stats):
        table = transition_table(t1_stats, 5, 4)
        r = table.r_active[table.space.index(NetState(3, 0, PHI_K))]
        assert r == pytest.approx(1.10, abs=0.01)

    def test_idle_empty_buffer_zero(self, t1_stats):
        table = transition_table(t1_stats, 5, 4)
        assert table.r_idle[table.space.index(NetState(2, 0, PHI_U))] == 0.0

    def test_idle_buffered_recovery(self, t1_stats):
        table = transition_table(t1_stats, 5, 4)
        r = table.r_idle[table.space.index(NetState(3, 2, PHI_U))]
        # (1 - 0.61) * 2 * 1.12 at Table-I numbers
        assert r == pytest.approx(0.874, abs=0.02)
        assert r == pytest.approx(
            (1 - t1_stats.q_ps_idle) * 2 * t1_stats.rate_su, abs=1e-15)

    def test_access_and_duration(self, t1_stats):
        # (2, 1, U) is a deadline state at D = 2: its cycle values are its
        # one-slot accesses and slots alone.
        s = NetState(2, 1, PHI_U)
        pol = idle_policy(enumerate_states(2, 1)).with_prob(s, 0.37)
        cv = cycle_values(pol, transition_table(t1_stats, 2, 1))
        i = cv.table.space.index(s)
        assert cv.v[i] == 0.37
        assert cv.dur[i] == 1.0

    def test_bad_inputs(self, t1_stats):
        states = enumerate_states(2, 1)
        with pytest.raises(ValueError):
            cycle_values(idle_policy(states).with_prob(NetState(1, 0, PHI_U),
                                                       1.2),
                         transition_table(t1_stats, 2, 1))


class TestCycleValues:
    def test_single_slot_cycle(self, t1_stats):
        states = enumerate_states(1, 0)
        pol = Policy({states[0]: 0.4})
        cv = cycle_values(pol, transition_table(t1_stats, 1, 0))
        assert cv.table.space.index(ROOT) == 0
        assert cv.g[0] == pytest.approx(0.4 * t1_stats.t_su)
        assert cv.v[0] == pytest.approx(0.4)
        assert cv.dur[0] == 1.0

    def test_idle_duration_geometric(self, t1_stats):
        # idle chain: survival probability q_pp_idle per attempt
        for deadline in (2, 3, 5):
            states = enumerate_states(deadline, deadline - 1)
            cv = cycle_values(idle_policy(states),
                              transition_table(t1_stats, deadline,
                                               deadline - 1))
            expected = sum(t1_stats.q_pp_idle ** k for k in range(deadline))
            assert cv.dur[0] == pytest.approx(expected, abs=1e-12)
            assert cv.v[0] == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(42)
        for deadline, cap in RANDOM_CASES:
            stats = make_random_stats(rng)
            states = enumerate_states(deadline, cap)
            pol = make_random_policy(rng, states)
            cv = cycle_values(pol, transition_table(stats, deadline, cap))
            for s in states:
                i = cv.table.space.index(s)
                assert 0.0 <= cv.v[i] <= cv.dur[i]
                assert cv.dur[i] >= 1.0
                assert cv.dur[i] <= deadline - s.t + 1 + 1e-12
                assert cv.g[i] >= 0.0


class TestLongTermMetrics:
    def test_idle_policy(self, t1_stats):
        states = enumerate_states(5, 4)
        m = long_term_metrics(idle_policy(states),
                              transition_table(t1_stats, 5, 4))
        assert m.t_s_bar == 0.0
        assert m.w_s_bar == 0.0
        assert m.p_s_ratio == 0.0
        assert m.t_p_bar == pytest.approx(t1_stats.t_p_idle)

    def test_always_active_policy(self, t1_stats):
        states = enumerate_states(5, 4)
        m = long_term_metrics(Policy({s: 1.0 for s in states}),
                              transition_table(t1_stats, 5, 4))
        assert m.w_s_bar == pytest.approx(1.0, abs=1e-12)
        assert m.t_p_bar == pytest.approx(t1_stats.t_p_active, abs=1e-12)

    def test_k_active_earns_clean_rate_per_access(self, t1_stats):
        # with accesses only in known-message states, throughput per unit
        # access is exactly the clean-channel throughput
        states = enumerate_states(5, 4)
        m = long_term_metrics(k_active_policy(states),
                              transition_table(t1_stats, 5, 4))
        assert m.t_s_bar == pytest.approx(t1_stats.t_sk * m.w_s_bar, abs=1e-12)

    def test_metrics_json(self, t1_stats):
        import json
        from dataclasses import asdict
        states = enumerate_states(2, 1)
        m = long_term_metrics(k_active_policy(states),
                              transition_table(t1_stats, 2, 1))
        obj = json.loads(json.dumps(asdict(m)))
        assert set(obj) == {"t_s_bar", "w_s_bar", "t_p_bar", "p_s_ratio"}


class TestStationaryDistribution:
    def test_idle_policy_never_buffers(self, t1_stats):
        states = enumerate_states(5, 4)
        pi = stationary_distribution(idle_policy(states), t1_stats, 5, 4)
        assert abs(sum(pi.values()) - 1.0) <= 1e-12
        for s in states:
            if s.phi == PHI_U and s.b > 0:
                assert pi[s] == 0.0

    def test_mass_exactly_on_reachable_states(self, t1_stats):
        # At D = 40 many reachable states hold less than 1e-15 of the mass
        # (a deep buffer level), and every unreachable one must hold none.
        deadline, cap = 40, 39
        states = enumerate_states(deadline, cap)
        table = transition_table(t1_stats, deadline, cap)
        succ = table.space.succ
        for policy in (Policy({s: 1.0 for s in states}), idle_policy(states),
                       k_active_policy(states)):
            mu = table.space.vector(policy)
            reachable = {0}
            for i in range(len(states)):        # successors come later
                if i not in reachable:
                    continue
                m = mu[i]
                for k in range(3 * i, 3 * i + 3):
                    p = m * table.p_active[k] + (1.0 - m) * table.p_idle[k]
                    if succ[k] and p > 0.0:
                        reachable.add(succ[k])
            pi = stationary_distribution(policy, t1_stats, deadline, cap)
            for i, s in enumerate(states):
                assert (pi[s] > 0.0) if i in reachable else (pi[s] == 0.0), s

    def test_matches_renewal_reward_on_random_policies(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            deadline, cap = RANDOM_CASES[trial % len(RANDOM_CASES)]
            stats = make_random_stats(rng)
            states = enumerate_states(deadline, cap)
            pol = make_random_policy(rng, states)
            m = long_term_metrics(pol, transition_table(stats, deadline, cap))
            t_s, w_s = occupancy_metrics(pol, stats, deadline, cap)
            assert abs(w_s - m.w_s_bar) <= 1e-9
            assert abs(t_s - m.t_s_bar) <= 1e-9

    def test_access_rate_is_monotone_in_every_coordinate(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            deadline, cap = RANDOM_CASES[trial % len(RANDOM_CASES)]
            stats = make_random_stats(rng)
            states = enumerate_states(deadline, cap)
            pol = make_random_policy(rng, states, lo=0.05, hi=0.9)
            table = transition_table(stats, deadline, cap)
            base = long_term_metrics(pol, table).w_s_bar
            pi = stationary_distribution(pol, stats, deadline, cap)
            for s in states:
                bumped = long_term_metrics(pol.with_prob(s, pol.probs[s] + 1e-4),
                                           table).w_s_bar
                assert bumped >= base - 1e-14
                if pi[s] > 1e-12:
                    assert bumped > base


def _assert_matches_reference(policy, stats, deadline, cap):
    """Table core against the dict recursion at every state, and the
    stationary distribution against a solve of the matrix assembled from
    the table's rows, its visits per cycle summing to the root's
    duration."""
    states = enumerate_states(deadline, cap)
    cv = cycle_values(policy, transition_table(stats, deadline, cap))
    ref = reference_cycle_values(policy, stats, deadline, cap)
    for s in states:
        i = cv.table.space.index(s)
        assert abs(cv.g[i] - ref.g[s]) <= 1e-12
        assert abs(cv.v[i] - ref.v[s]) <= 1e-12
        assert abs(cv.dur[i] - ref.dur[s]) <= 1e-12
        for active in (True, False):
            row = table_row(cv.table, s, 1.0 if active else 0.0)
            ref_row = reference_transition_row(s, active, stats, deadline,
                                               cap)
            for nxt in set(row) | set(ref_row):
                assert abs(row.get(nxt, 0.0) - ref_row.get(nxt, 0.0)) <= 1e-15

    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    pmat = np.zeros((n, n))
    for s in states:
        mu = policy.probs[s]
        for access_prob, weight in ((1.0, mu), (0.0, 1.0 - mu)):
            for nxt, p in table_row(cv.table, s, access_prob).items():
                pmat[idx[s], idx[nxt]] += weight * p
    a = np.vstack([(pmat.T - np.eye(n))[:-1], np.ones(n)])
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    expected = np.linalg.solve(a, rhs)
    pi = stationary_distribution(policy, stats, deadline, cap)
    assert list(pi) == states
    for s in states:
        assert abs(pi[s] - expected[idx[s]]) <= 1e-12
    # renewal-reward: the visits per cycle sum to the cycle's duration
    visits = _visits(cv.table, cv.table.space.vector(policy))
    assert abs(sum(visits) - cv.dur[0]) <= 1e-12 * cv.dur[0]


class TestTableMatchesReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(feasible_stats(), sized_policies())
    def test_random_scenarios(self, stats, sized):
        deadline, cap, policy = sized
        _assert_matches_reference(policy, stats, deadline, cap)

    def test_table1_deadline_20(self, t1_stats):
        states = enumerate_states(20, 19)
        policy = make_random_policy(np.random.default_rng(20), states)
        _assert_matches_reference(policy, t1_stats, 20, 19)


class TestStatsValidation:
    def test_impossible_stats_rejected(self, t1_stats):
        import dataclasses
        states = enumerate_states(2, 1)
        pol = idle_policy(states)
        bad_cases = [
            {"q_pp_active": t1_stats.q_pp_idle - 0.1},      # ordering broken
            {"q_ps_idle": t1_stats.q_ps_active + 0.1},
            {"p_buf": t1_stats.q_ps_active + 0.05},         # not a sub-event
            {"q_ps_active": 1.3},
            {"t_su": -0.2},
        ]
        for change in bad_cases:
            bad = dataclasses.replace(t1_stats, **change)
            with pytest.raises(ValueError):
                cycle_values(pol, transition_table(bad, 2, 1))
            with pytest.raises(ValueError):
                stationary_distribution(pol, bad, 2, 1)


class TestPolicySerialization:
    def test_round_trip(self):
        states = enumerate_states(3, 2)
        rng = np.random.default_rng(1)
        pol = make_random_policy(rng, states)
        obj = policy_to_json_obj(pol)
        assert [tuple(sorted(r)) for r in obj] == [
            ("b", "phi", "prob", "t")] * len(states)
        back = policy_from_json_obj(obj)
        assert back.probs == pol.probs

    @pytest.mark.parametrize("obj", [
        {"t": 1, "b": 0, "phi": "U", "prob": 0.5},
        "policy", 3, None])
    def test_non_list_rejected(self, obj):
        with pytest.raises(ValueError, match="list of rows"):
            policy_from_json_obj(obj)

    @pytest.mark.parametrize("row", [[1, 0, "U", 0.5], "t", 0.5, None])
    def test_non_object_row_rejected(self, row):
        rows = policy_to_json_obj(idle_policy(enumerate_states(2, 1)))
        with pytest.raises(ValueError, match="policy row 2 is not an object"):
            policy_from_json_obj(rows[:2] + [row] + rows[2:])

    @pytest.mark.parametrize("key", ["t", "b", "phi", "prob"])
    def test_row_missing_key_rejected(self, key):
        rows = policy_to_json_obj(idle_policy(enumerate_states(2, 1)))
        rows[1] = {k: v for k, v in rows[1].items() if k != key}
        with pytest.raises(ValueError, match=f"policy row 1 lacks {key}"):
            policy_from_json_obj(rows)
