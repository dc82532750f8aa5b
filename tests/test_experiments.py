import pytest
from hypothesis import given, settings, strategies as st

from cogarq import (DEADLINE, EXPLICIT, FIC_BIC, FIC_ONLY, GPS_RATIO,
                    GSP_RATIO, NO_IC, PM_KNOWN, RSU_EQ_RSK, RSU_RATIO,
                    RSU_STAR, SCHEMES, TS_VS_TP, access_rate_budget,
                    derive_rates, evaluate_scheme, greedy_policy_path,
                    link_stats, sweep)
from cogarq import experiments
from cogarq.experiments import DEFAULT_GRIDS, rows_to_csv

from support import feasible_stats, table1_params


@pytest.fixture(scope="module")
def t1_paths(t1_stats):
    return {
        FIC_BIC: greedy_policy_path(t1_stats, 5, 4),
        FIC_ONLY: greedy_policy_path(t1_stats, 5, 0),
    }


class TestEvaluateScheme:
    def test_pm_known_upper_bound_value(self, t1_stats):
        m = evaluate_scheme(PM_KNOWN, 1.0, stats=t1_stats)
        assert m.t_s_bar == pytest.approx(1.10, abs=0.01)
        assert m.w_s_bar == 1.0

    def test_no_ic_constant_access(self, t1_stats):
        m = evaluate_scheme(NO_IC, 0.37, stats=t1_stats)
        assert m.t_s_bar == pytest.approx(0.37 * t1_stats.t_su, abs=1e-12)
        assert m.w_s_bar == 0.37
        assert m.t_p_bar == pytest.approx(
            t1_stats.t_p_idle
            - (t1_stats.t_p_idle - t1_stats.t_p_active) * 0.37, abs=1e-12)

    def test_budget_capped_at_one(self, t1_stats):
        m = evaluate_scheme(NO_IC, 3.0, stats=t1_stats)
        assert m.w_s_bar == 1.0

    def test_dominance_order(self, t1_stats, t1_paths):
        for eps_w in (0.15, 0.4, 0.8):
            vals = {
                scheme: evaluate_scheme(scheme, eps_w,
                                        stats=t1_stats,
                                        path=t1_paths.get(scheme)).t_s_bar
                for scheme in SCHEMES
            }
            assert vals[PM_KNOWN] >= vals[FIC_BIC] - 1e-9
            assert vals[FIC_BIC] >= vals[FIC_ONLY] - 1e-9
            assert vals[FIC_ONLY] >= vals[NO_IC] - 1e-9

    def test_low_regime_needs_no_buffering(self, t1_stats, t1_paths):
        eps_th = t1_paths[FIC_BIC].eps_th
        for eps_w in (0.3 * eps_th, eps_th):
            full = evaluate_scheme(FIC_BIC, eps_w, stats=t1_stats,
                                   path=t1_paths[FIC_BIC])
            nobuf = evaluate_scheme(FIC_ONLY, eps_w,
                                    stats=t1_stats, path=t1_paths[FIC_ONLY])
            assert abs(full.t_s_bar - nobuf.t_s_bar) <= 1e-9
        above = eps_th * 1.5
        full = evaluate_scheme(FIC_BIC, above, stats=t1_stats,
                               path=t1_paths[FIC_BIC])
        nobuf = evaluate_scheme(FIC_ONLY, above, stats=t1_stats,
                                path=t1_paths[FIC_ONLY])
        assert full.t_s_bar > nobuf.t_s_bar + 1e-6


@settings(max_examples=100, derandomize=True, deadline=None)
@given(feasible_stats(), st.integers(1, 6))
def test_buffering_never_loses_to_no_buffer(stats, deadline):
    # FIC_BIC may leave its buffer unused, which is FIC_ONLY's policy set,
    # so at every budget it earns at least as much
    fic_bic = greedy_policy_path(stats, deadline, deadline - 1)
    fic_only = greedy_policy_path(stats, deadline, 0)
    for eps_w in [i / 40 for i in range(41)]:
        full = evaluate_scheme(FIC_BIC, eps_w, stats, fic_bic).t_s_bar
        nobuf = evaluate_scheme(FIC_ONLY, eps_w, stats, fic_only).t_s_bar
        assert full >= nobuf, (eps_w, full, nobuf)


class TestDeriveRates:
    def test_rsu_star(self):
        p = derive_rates(table1_params(), RSU_STAR)
        assert p.rate_p == pytest.approx(2.52, abs=0.02)
        assert p.rate_sk == pytest.approx(1.91, abs=0.02)
        assert p.rate_su == pytest.approx(1.12, abs=0.02)

    def test_rsu_eq_rsk(self):
        p = derive_rates(table1_params(), RSU_EQ_RSK)
        assert p.rate_su == p.rate_sk

    def test_explicit_untouched(self):
        base = table1_params(rate_su=0.7)
        assert derive_rates(base, EXPLICIT) == base


class TestSweep:
    def test_ts_vs_tp_spans_tp_range(self, t1_stats):
        rows = sweep(TS_VS_TP, table1_params(), EXPLICIT, [0.0, 0.5, 1.0],
                     mc_samples=200_000)
        assert all(r["error"] == "" for r in rows)
        fic = [r for r in rows if r["scheme"] == FIC_BIC]
        assert fic[0]["t_p_bar"] == pytest.approx(t1_stats.t_p_idle, abs=0.01)
        assert fic[-1]["t_p_bar"] == pytest.approx(t1_stats.t_p_active,
                                                   abs=0.01)

    def test_deadline_one_collapses_ic_schemes(self):
        rows = sweep(DEADLINE, table1_params(), EXPLICIT, [1],
                     mc_samples=200_000)
        by_scheme = {r["scheme"]: r["t_s_bar"] for r in rows}
        assert by_scheme[FIC_BIC] == pytest.approx(by_scheme[NO_IC], abs=1e-9)
        assert by_scheme[FIC_ONLY] == pytest.approx(by_scheme[NO_IC], abs=1e-9)
        assert by_scheme[PM_KNOWN] >= by_scheme[FIC_BIC]

    def test_grid_validation(self):
        base = table1_params()
        with pytest.raises(ValueError):
            sweep(TS_VS_TP, base, RSU_STAR, [])
        with pytest.raises(ValueError):
            sweep(TS_VS_TP, base, RSU_STAR, [0.5, 0.1])
        with pytest.raises(ValueError):
            sweep("NOPE", base, RSU_STAR, [0.1])

    def test_sample_floor_rejected_before_first_point(self):
        # a count below the floor fails the sweep, not every row
        for kind, grid in ((TS_VS_TP, [0.3]), (GSP_RATIO, [0.0, 0.5])):
            with pytest.raises(ValueError, match="mc_samples"):
                sweep(kind, table1_params(), EXPLICIT, grid,
                      mc_samples=99_999)

    def test_per_point_errors_recorded(self):
        # a fractional deadline cannot be realized; its rows carry the
        # error and the remaining points still evaluate
        rows = sweep(DEADLINE, table1_params(), EXPLICIT, [1.5, 2],
                     mc_samples=200_000)
        bad = [r for r in rows if r["x"] == 1.5]
        good = [r for r in rows if r["x"] == 2]
        assert all(r["error"] != "" for r in bad)
        assert all(r["error"] == "" for r in good)

    def test_gsp_ratio_budget_tightens(self):
        # more interference toward the primary receiver shrinks the
        # access budget, seen as a growing primary throughput at the
        # constrained optimum
        rows = sweep(GSP_RATIO, table1_params(), EXPLICIT, [0.0, 0.2, 0.8],
                     mc_samples=200_000)
        fic = [r for r in rows if r["scheme"] == FIC_BIC]
        assert all(r["error"] == "" for r in fic)
        assert fic[0]["w_s_bar"] == pytest.approx(1.0)   # no-harm point
        assert fic[2]["w_s_bar"] < fic[1]["w_s_bar"]

    def test_rsu_ratio_uses_explicit_rate(self):
        rows = sweep(RSU_RATIO, table1_params(), RSU_STAR, [0.4, 1.0],
                     mc_samples=200_000)
        assert all(r["error"] == "" for r in rows)
        no_ic = [r for r in rows if r["scheme"] == NO_IC]
        assert len(no_ic) == 2
        assert all(r["t_s_bar"] > 0 for r in no_ic)

    def test_csv_shape(self):
        rows = sweep(TS_VS_TP, table1_params(), EXPLICIT, [0.3],
                     mc_samples=200_000)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "x,scheme,t_s_bar,w_s_bar,t_p_bar,error"
        assert len(lines) == 1 + len(SCHEMES)


# Per sweep kind, the scenario parameters at grid point x.
POINT_PARAMS = {
    TS_VS_TP: lambda p, x: p,
    DEADLINE: lambda p, x: p.replace(deadline_D=int(x), buffer_B=int(x) - 1),
    GSP_RATIO: lambda p, x: p.replace(mean_snr_sp=x * p.mean_snr_p),
    GPS_RATIO: lambda p, x: p.replace(mean_snr_ps=x * p.mean_snr_s),
}


def _fresh_rows(kind, base, rate_policy, grid, mc_samples, seed):
    """Reference sweep: every point derives its rates, link statistics and
    greedy paths afresh."""
    rows = []
    for x in grid:
        params = derive_rates(POINT_PARAMS[kind](base, x), rate_policy)
        stats = link_stats([params], mc_samples, seed)[0]
        eps_w = (float(x) if kind == TS_VS_TP else
                 access_rate_budget(stats, params.eps_pu, params.power_ratio))
        deadline = params.deadline_D
        paths = {FIC_BIC: greedy_policy_path(stats, deadline, deadline - 1),
                 FIC_ONLY: greedy_policy_path(stats, deadline, 0)}
        for scheme in SCHEMES:
            m = evaluate_scheme(scheme, eps_w, stats, paths.get(scheme))
            rows.append({"x": x, "scheme": scheme, "t_s_bar": m.t_s_bar,
                         "w_s_bar": m.w_s_bar, "t_p_bar": m.t_p_bar,
                         "error": ""})
    return rows


class TestSweepEquivalence:
    @pytest.mark.parametrize("kind,rate_policy,grid", [
        (TS_VS_TP, EXPLICIT, [0.1, 0.5, 0.9]),
        (TS_VS_TP, RSU_STAR, [0.0, 0.6]),
        (DEADLINE, RSU_STAR, [1, 2, 3]),
        (GSP_RATIO, EXPLICIT, [0.0, 0.25, 1.0]),
    ])
    def test_rows_equal_per_point_evaluation(self, kind, rate_policy, grid):
        base = table1_params()
        rows = sweep(kind, base, rate_policy, grid, mc_samples=200_000,
                     seed=9)
        assert rows == _fresh_rows(kind, base, rate_policy, grid, 200_000, 9)

    def test_gsp_ratio_primary_throughput_follows_x(self):
        # GSP_RATIO changes the secondary-to-primary gain, so each point
        # needs its own statistics: with none, the primary keeps its idle
        # throughput; with some, the constrained optimum gives up eps_pu
        # of it. A sweep reusing the x = 0 channel would repeat row 0.
        rows = sweep(GSP_RATIO, table1_params(), EXPLICIT, [0.0, 0.5],
                     mc_samples=200_000)
        t_p = {(r["x"], r["scheme"]): r["t_p_bar"] for r in rows}
        idle = link_stats([table1_params()], 200_000)[0].t_p_idle
        for scheme in SCHEMES:
            assert t_p[0.0, scheme] == pytest.approx(idle, abs=1e-9)
            assert t_p[0.5, scheme] == pytest.approx(0.8 * idle, abs=1e-9)


class TestBatchedSweep:
    """All points' statistics come from one `link_stats` call; a point's
    rows do not depend on the other points of the sweep."""

    @pytest.mark.parametrize("kind,grid", [
        (TS_VS_TP, [0.1, 0.5, 0.9]), (GSP_RATIO, [0.0, 0.5, 1.0]),
        (GPS_RATIO, [0.5, 1.0, 2.0]), (RSU_RATIO, [0.5, 0.8, 1.0]),
        (DEADLINE, [2, 3, 4])])
    def test_each_row_equals_a_one_point_sweep(self, kind, grid):
        assert set(DEFAULT_GRIDS) == {TS_VS_TP, GSP_RATIO, GPS_RATIO,
                                      RSU_RATIO, DEADLINE}
        rows = sweep(kind, table1_params(), RSU_STAR, grid,
                     mc_samples=10 ** 5, seed=3)
        single = [row for x in grid
                  for row in sweep(kind, table1_params(), RSU_STAR, [x],
                                   mc_samples=10 ** 5, seed=3)]
        assert rows == single
        assert all(r["error"] == "" for r in rows)

    @pytest.mark.parametrize("kind,grid,calls", [
        (GPS_RATIO, [0.5, 1.0, 2.0], [3]), (GPS_RATIO, [1.0, 1.0], [1]),
        (DEADLINE, [1, 2, 3], [1]), (TS_VS_TP, [0.1, 0.9], [1]),
        (DEADLINE, [1.5, 2.5], [])])
    def test_one_link_stats_call(self, monkeypatch, kind, grid, calls):
        # one call with the distinct channels, and none without any
        made = []

        def counted(channels, mc_samples, seed):
            made.append(len(channels))
            return link_stats(channels, mc_samples, seed)
        monkeypatch.setattr(experiments, "link_stats", counted)
        sweep(kind, table1_params(), RSU_STAR, grid, mc_samples=10 ** 5)
        assert made == calls

    def test_failed_first_deadline_point(self):
        # the first point fails before it has a channel; the later points
        # still get the statistics of the one shared channel
        base = table1_params()
        rows = sweep(DEADLINE, base, RSU_STAR, [1.5, 2, 3],
                     mc_samples=200_000, seed=9)
        error = "ValueError: DEADLINE grid values must be integers, got 1.5"
        assert rows[:4] == [{"x": 1.5, "scheme": scheme, "t_s_bar": "",
                             "w_s_bar": "", "t_p_bar": "", "error": error}
                            for scheme in SCHEMES]
        assert rows[4:] == _fresh_rows(DEADLINE, base, RSU_STAR, [2, 3],
                                       200_000, 9)

    def test_failed_rate_derivation_isolated(self, monkeypatch):
        # one GPS_RATIO point's rates cannot be derived: only its four
        # rows carry the error, and the others keep their statistics
        base = table1_params()
        derive = experiments.derive_rates

        def failing(params, rate_policy):
            if params.mean_snr_ps == base.mean_snr_s:      # x = 1
                raise ValueError("no rates here")
            return derive(params, rate_policy)
        monkeypatch.setattr(experiments, "derive_rates", failing)
        rows = sweep(GPS_RATIO, base, RSU_STAR, [0.5, 1.0, 2.0],
                     mc_samples=200_000, seed=9)
        monkeypatch.undo()
        assert [r["error"] for r in rows] == (
            [""] * 4 + ["ValueError: no rates here"] * 4 + [""] * 4)
        assert all(r[k] == "" for r in rows[4:8]
                   for k in ("t_s_bar", "w_s_bar", "t_p_bar"))
        assert rows[:4] + rows[8:] == _fresh_rows(GPS_RATIO, base, RSU_STAR,
                                                  [0.5, 2.0], 200_000, 9)


class TestScenarioValidation:
    def test_bad_scheme(self, t1_stats):
        with pytest.raises(ValueError, match="MAGIC"):
            evaluate_scheme("MAGIC", 0.3, t1_stats)

    @pytest.mark.parametrize("scheme", [FIC_BIC, FIC_ONLY])
    def test_optimized_scheme_needs_path(self, t1_stats, scheme):
        with pytest.raises(ValueError, match="path"):
            evaluate_scheme(scheme, 0.3, t1_stats)

    def test_bad_rate_policy(self):
        # raised before the first point, not recorded in the point's rows
        with pytest.raises(ValueError, match="MAGIC"):
            sweep(TS_VS_TP, table1_params(), "MAGIC", [0.3])
