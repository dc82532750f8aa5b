"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.

Expensive shared inputs (derived rates, high-precision link statistics)
are prepared once in a module cache; each criterion times only its own
work against its stated budget.
"""

import time

import numpy as np

from cogarq import (DEADLINE, EXPLICIT, FIC_BIC, FIC_ONLY, GPS_RATIO, NO_IC,
                    PM_KNOWN, PU_IDLE_THROUGHPUT, Policy, RSU_STAR,
                    SU_CLEAN_THROUGHPUT, SU_INTERFERED_THROUGHPUT,
                    SimConfig, SystemParams, TS_VS_TP, cycle_values,
                    empirical_transition_check, enumerate_frontier,
                    enumerate_states, greedy_policy_path, link_stats,
                    long_term_metrics, optimal_policy, optimize_rate,
                    oracle_optimum, run, sweep, transition_table)
from cogarq.mdp import PHI_K, PHI_U, occupancy_metrics
from cogarq.optimizer import efficiency_report

from support import (b_max, cycle_value_closed, first_idle_thresholds,
                     g_prime_closed, hp_condition, is_threshold_policy,
                     make_random_policy, make_random_stats,
                     max_accessed_levels, reference_matrix, table1_params,
                     v_prime_closed)

_CACHE = {}


def _derived_params() -> SystemParams:
    if "params" not in _CACHE:
        base = table1_params()
        rate_p = optimize_rate(PU_IDLE_THROUGHPUT, base)
        rate_sk = optimize_rate(SU_CLEAN_THROUGHPUT, base)
        rate_su = optimize_rate(SU_INTERFERED_THROUGHPUT,
                                base.replace(rate_p=rate_p))
        _CACHE["params"] = base.replace(rate_p=rate_p, rate_su=rate_su,
                                        rate_sk=rate_sk)
    return _CACHE["params"]


def _stats_hi():
    if "stats" not in _CACHE:
        _CACHE["stats"] = link_stats([_derived_params()], 10 ** 7, seed=7)[0]
    return _CACHE["stats"]


def _report(number: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"\n[PASS] criterion {number} ({elapsed:.1f} s, budget {budget:.0f} s): "
          f"{detail}")
    assert elapsed < budget


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    params = _derived_params()
    assert abs(params.rate_p - 2.52) <= 0.02
    assert abs(params.rate_sk - 1.91) <= 0.02
    assert abs(params.rate_su - 1.12) <= 0.02
    stats = _stats_hi()
    expected = {"q_pp_idle": 0.38, "q_pp_active": 0.68, "q_ps_idle": 0.61,
                "q_ps_active": 0.74, "p_buf": 0.26, "t_su": 0.59,
                "t_sk": 1.10}
    for name, value in expected.items():
        assert abs(getattr(stats, name) - value) <= 0.01, (name, value)
    stats2 = link_stats([params.replace(rate_su=params.rate_sk)], 10 ** 7,
                        seed=7)[0]
    assert abs(stats2.q_ps_active - 0.88) <= 0.01
    assert abs(stats2.p_buf - 0.37) <= 0.01
    assert abs(stats2.t_su - 0.40) <= 0.01
    _report(1, time.monotonic() - t0, 30,
            f"rates ({params.rate_p:.3f}, {params.rate_su:.3f}, "
            f"{params.rate_sk:.3f}) and both parameter rows within tolerance")


def test_criterion_2_low_regime_exactness():
    stats = _stats_hi()
    deadline, cap = 5, 4
    t0 = time.monotonic()
    path = greedy_policy_path(stats, deadline, cap)
    eps_th = path.eps_th
    worst = 0.0
    for k in range(1, 21):
        eps_w = eps_th * k / 20
        _, m = optimal_policy(eps_w, path)
        worst = max(worst, abs(m.w_s_bar - eps_w),
                    abs(m.t_s_bar - stats.t_sk * eps_w))
        assert abs(m.w_s_bar - eps_w) <= 1e-9
        assert abs(m.t_s_bar - stats.t_sk * eps_w) <= 1e-9
    _report(2, time.monotonic() - t0, 1,
            f"20 budgets in (0, {eps_th:.4f}] exact to {worst:.1e}")


def test_criterion_3_desk_scale_optimality():
    rng = np.random.default_rng(2023)
    stats_list = [make_random_stats(rng) for _ in range(10)]
    t0 = time.monotonic()
    worst = 0.0
    checks = 0
    for stats in stats_list:
        for deadline in (2, 3):
            for cap in (0, deadline - 1):
                frontier = enumerate_frontier(stats, deadline, cap)
                path = greedy_policy_path(stats, deadline, cap)
                for eps_w in (0.1, 0.3, 0.5, 0.8):
                    _, m = optimal_policy(eps_w, path)
                    star = oracle_optimum(eps_w, frontier, stats, deadline,
                                          cap)
                    gap = abs(m.t_s_bar - star)
                    worst = max(worst, gap)
                    checks += 1
                    assert gap <= 1e-6
    _report(3, time.monotonic() - t0, 60,
            f"{checks} budget points match brute force, worst gap {worst:.1e}")


def _degenerate_scenarios(n: int = 10):
    if "degenerate" in _CACHE:
        return _CACHE["degenerate"]
    rng = np.random.default_rng(404)
    found = []
    while len(found) < n:
        snr_s = float(rng.uniform(2.0, 10.0))
        snr_p = float(rng.uniform(4.0, 15.0))
        snr_ps = float(rng.uniform(1.0, 10.0))
        base = SystemParams(mean_snr_s=snr_s, mean_snr_p=snr_p,
                            mean_snr_sp=0.0, mean_snr_ps=snr_ps,
                            rate_p=1.0, rate_su=1.0, rate_sk=1.0,
                            deadline_D=5, buffer_B=4, eps_pu=0.2,
                            power_ratio=1.0)
        rate_p = optimize_rate(PU_IDLE_THROUGHPUT, base)
        rate_sk = optimize_rate(SU_CLEAN_THROUGHPUT, base)
        rate_su = rate_sk * float(rng.uniform(0.7, 1.0))
        params = base.replace(rate_p=rate_p, rate_sk=rate_sk, rate_su=rate_su)
        stats = link_stats([params], mc_samples=2 * 10 ** 5,
                           seed=int(rng.integers(1 << 30)))[0]
        if stats.q_ps_active > stats.q_ps_idle and hp_condition(stats):
            found.append(stats)
    _CACHE["degenerate"] = found
    return found


def test_criterion_4_degenerate_structure():
    scenarios = _degenerate_scenarios()
    t0 = time.monotonic()
    deadline, cap = 5, 4
    for stats in scenarios:
        # the path from the entry where every known-message state is
        # active; earlier entries leave some of them idle, so their
        # policies are not threshold ones
        path = greedy_policy_path(stats, deadline, cap)
        walk = [path.policy(j)
                for j in range(deadline - 1, len(path.entries))]
        prev = None
        for pol in walk:
            assert is_threshold_policy(pol, deadline)
            th = first_idle_thresholds(pol, deadline)
            seq = [th[t] for t in range(1, deadline + 1)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            if prev is not None:
                assert all(th[t] >= prev[t] for t in th)
            prev = th
        final = max_accessed_levels(walk[-1], deadline)
        for t in range(1, deadline + 1):
            assert final[t] == min(b_max(t, stats, deadline), min(t - 1, cap))
        for pol in (walk[0], walk[len(walk) // 2], walk[-1]):
            cv = cycle_values(pol, path.table)
            for s in pol.probs:
                idle_u = s.phi == PHI_U and pol.probs[s] == 0.0
                if s.phi == PHI_K or idle_u:
                    v, g = cycle_value_closed(s, stats, deadline)
                    i = cv.table.space.index(s)
                    assert abs(v - cv.v[i]) <= 1e-9
                    assert abs(g - cv.g[i]) <= 1e-9
                if idle_u:
                    r = efficiency_report(cv, s)
                    g_p, v_p = r.g_prime, r.v_prime
                    assert abs(g_p - g_prime_closed(s.t, s.b, stats,
                                                    deadline)) <= 1e-9
                    assert abs(v_p - v_prime_closed(s.t, stats,
                                                    deadline)) <= 1e-9
    _report(4, time.monotonic() - t0, 60,
            f"{len(scenarios)} no-harm scenarios: threshold structure, "
            "closed-form thresholds and cycle values all confirmed")


def test_criterion_5_simulator_agreement():
    params = _derived_params()
    stats = _stats_hi()
    deadline, cap = 5, 4
    states = enumerate_states(deadline, cap)
    table = transition_table(stats, deadline, cap)
    rng = np.random.default_rng(31415)
    t0 = time.monotonic()
    for i in range(10):
        pol = make_random_policy(rng, states)
        m = long_term_metrics(pol, table)
        r = run(SimConfig(params=params, policy=pol, num_slots=10 ** 6,
                          seed=1000 + i))
        assert abs(r.t_s_emp - m.t_s_bar) <= 3 * r.stderr_t_s + 1e-12
        assert abs(r.w_s_emp - m.w_s_bar) <= 3 * r.stderr_w_s + 1e-12
        assert abs(r.t_p_emp - m.t_p_bar) <= 3 * r.stderr_t_p + 1e-12
    always = SimConfig(params=params,
                       policy=Policy({s: 1.0 for s in states}),
                       num_slots=10 ** 8, seed=2026)
    err = empirical_transition_check(always, stats=stats)
    assert err <= 0.005
    _report(5, time.monotonic() - t0, 300,
            f"10 policies within 3 sigma; transition frequencies off by "
            f"at most {err:.4f}")


def test_criterion_6_figure_shapes():
    params = _derived_params()
    t0 = time.monotonic()

    rows = sweep(TS_VS_TP, params, EXPLICIT, [i / 20 for i in range(21)],
                 mc_samples=10 ** 6, seed=7)
    assert all(r["error"] == "" for r in rows)
    by_x = {}
    for r in rows:
        by_x.setdefault(r["x"], {})[r["scheme"]] = r["t_s_bar"]
    eps_th = greedy_policy_path(link_stats([params], 10 ** 6, seed=7)[0],
                                params.deadline_D,
                                params.deadline_D - 1).eps_th
    for x, vals in by_x.items():
        assert vals[FIC_BIC] >= vals[FIC_ONLY] - 1e-9
        assert vals[FIC_ONLY] >= vals[NO_IC] - 1e-9
        if x <= eps_th:
            assert abs(vals[FIC_BIC] - vals[FIC_ONLY]) <= 1e-9
        else:
            assert vals[FIC_BIC] > vals[FIC_ONLY] + 1e-9

    rows = sweep(DEADLINE, params, EXPLICIT, [1, 2, 3, 4, 5],
                 mc_samples=10 ** 6, seed=7)
    dvals = {}
    for r in rows:
        assert r["error"] == ""
        dvals.setdefault(r["x"], {})[r["scheme"]] = r["t_s_bar"]
    one = dvals[1]
    assert abs(one[FIC_BIC] - one[NO_IC]) <= 1e-9
    assert abs(one[FIC_ONLY] - one[NO_IC]) <= 1e-9
    assert one[PM_KNOWN] >= one[FIC_BIC] - 1e-12
    fic_curve = [dvals[d][FIC_BIC] for d in (1, 2, 3, 4, 5)]
    assert all(b >= a - 1e-9 for a, b in zip(fic_curve, fic_curve[1:]))

    grid = [i / 4 for i in range(17)]
    rows = sweep(GPS_RATIO, table1_params(), RSU_STAR, grid,
                 mc_samples=10 ** 6, seed=7)
    gvals = {}
    for r in rows:
        assert r["error"] == ""
        gvals.setdefault(r["x"], {})[r["scheme"]] = r["t_s_bar"]
    gap = {x: gvals[x][PM_KNOWN] - gvals[x][FIC_BIC] for x in grid}
    rel = {x: gap[x] / gvals[x][PM_KNOWN] for x in grid}
    assert abs(rel[0.0]) <= 0.01
    argmin = min(grid, key=lambda x: gvals[x][FIC_BIC])
    assert 0.25 <= argmin <= 0.75
    assert rel[4.0] <= 0.5 * max(rel.values())
    assert gvals[4.0][FIC_BIC] > gvals[argmin][FIC_BIC]
    _report(6, time.monotonic() - t0, 600,
            f"scheme ordering, low-regime equality, deadline-1 collapse, "
            f"near-bound at ratio 0 and 4 (worst point at ratio {argmin})")


def test_criterion_7_invariant_suites():
    rng = np.random.default_rng(271828)
    cases = [(2, 0), (2, 1), (3, 0), (3, 2), (5, 4)]
    t0 = time.monotonic()
    delta = 1e-6
    for trial in range(100):
        deadline, cap = cases[trial % len(cases)]
        stats = make_random_stats(rng)
        states = enumerate_states(deadline, cap)
        pol = make_random_policy(rng, states, lo=0.02, hi=0.95)
        table = transition_table(stats, deadline, cap)
        cv = cycle_values(pol, table)
        for access_prob in (1.0, 0.0):
            rows = reference_matrix(cv.table, [access_prob] * len(states))
            assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
        m = long_term_metrics(pol, table)
        t_s_pi, w_s_pi = occupancy_metrics(pol, stats, deadline, cap)
        assert abs(t_s_pi - m.t_s_bar) <= 1e-9
        assert abs(w_s_pi - m.w_s_bar) <= 1e-9
        for s in states:
            r = efficiency_report(cv, s)
            g_p, v_p, d_p = r.g_prime, r.v_prime, r.d_prime
            assert v_p - d_p * m.w_s_bar > 0.0
            bumped = cycle_values(pol.with_prob(s, pol.probs[s] + delta),
                                  table)
            i = cv.table.space.index(s)
            assert abs((bumped.g[i] - cv.g[i]) / delta - g_p) <= 1e-5
            assert abs((bumped.v[i] - cv.v[i]) / delta - v_p) <= 1e-5
            assert abs((bumped.dur[i] - cv.dur[i]) / delta - d_p) <= 1e-5
    _report(7, time.monotonic() - t0, 600,
            "100 randomized cases: stochastic rows, occupancy vs renewal, "
            "derivative checks and positivity all green")
