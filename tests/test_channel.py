import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogarq import (PU_IDLE_THROUGHPUT, RSU_STAR, SU_CLEAN_THROUGHPUT,
                    SU_INTERFERED_THROUGHPUT, LinkStats, RegionClassifier,
                    SystemParams, derive_rates, link_stats, optimize_rate,
                    outage_pp)
from cogarq.channel import RATE_BRACKET, _decode_probability, _mc_region_probs
from cogarq.experiments import DEFAULT_GRIDS, GPS_RATIO

from support import (lambert_w0, reference_masks, reference_region_probs,
                     reference_su_throughput, table1_params)


class TestOutagePP:
    def test_table1_values(self, t1_params):
        assert outage_pp(t1_params, su_active=False) == pytest.approx(0.38, abs=0.01)
        assert outage_pp(t1_params, su_active=True) == pytest.approx(0.68, abs=0.01)

    def test_closed_form(self, t1_params):
        thr = 2.0 ** 2.52 - 1.0
        idle = 1.0 - math.exp(-thr / 10.0)
        active = 1.0 - math.exp(-thr / 10.0) / (1.0 + thr * 2.0 / 10.0)
        assert outage_pp(t1_params, False) == pytest.approx(idle, abs=1e-14)
        assert outage_pp(t1_params, True) == pytest.approx(active, abs=1e-14)

    def test_zero_interference_link_equalizes(self):
        p = table1_params(mean_snr_sp=0.0)
        assert outage_pp(p, True) == outage_pp(p, False)

    def test_absent_primary_link_always_out(self):
        p = table1_params(mean_snr_p=0.0)
        assert outage_pp(p, su_active=False) == 1.0
        assert outage_pp(p, su_active=True) == 1.0

    def test_monotone_in_rate_and_snr(self):
        rates = np.linspace(0.1, 8.0, 40)
        vals = [outage_pp(table1_params(rate_p=r), True) for r in rates]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        snrs = np.linspace(0.5, 30.0, 40)
        vals = [outage_pp(table1_params(mean_snr_p=g), False) for g in snrs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def _membership(snr_s, snr_ps, rate_su=1.12, rate_p=2.52):
    """(pu_decodable, su_decodable, buffered) of one draw, by `masks`."""
    cls = RegionClassifier(rate_su, rate_p)
    return tuple(bool(m) for m in cls.masks(np.asarray(snr_s),
                                            np.asarray(snr_ps)))


class TestRegionMembership:
    def test_huge_snrs_decode_both(self):
        assert _membership(1e9, 1e9) == (True, True, False)

    def test_su_channel_dead_pu_only(self):
        # secondary rate exceeds zero capacity; primary decodable alone
        thr_p = 2.0 ** 2.52 - 1.0
        assert _membership(0.0, thr_p) == (True, False, False)
        assert _membership(0.0, thr_p * 2) == (True, False, False)

    def test_su_alone_with_dead_pu_channel(self):
        # gamma_ps = 0: the primary signal never reaches the secondary
        # receiver, so the slot reduces to an interference-free secondary
        # link. Just above the clean threshold the secondary message
        # decodes alone; just below, nothing decodes and nothing can be
        # buffered (the clean-channel condition fails too).
        a = 2.0 ** 1.12 - 1.0
        assert _membership(a + 1e-9, 0.0) == (False, True, False)
        assert _membership(a - 1e-9, 0.0) == (False, False, False)

    def test_buffered_example(self):
        # Clean channel fine for the secondary rate, primary strong enough
        # to ruin joint decoding but too weak to decode first.
        assert _membership(2.0 ** 1.12 - 1.0 + 0.01, 1.0) == (False, False,
                                                             True)

    def test_partition_and_union_identities(self):
        rng = np.random.default_rng(5)
        cls = RegionClassifier(1.12, 2.52)
        gs = rng.exponential(5.0, 20_000)
        gps = rng.exponential(5.0, 20_000)
        in_gp, in_gs, buf = cls.masks(gs, gps)
        # a buffered draw decodes nothing, exactly the clean-channel
        # successes that decode no secondary message are buffered, and
        # every decoding outcome occurs
        assert not (buf & (in_gp | in_gs)).any()
        assert np.array_equal(buf, (gs >= cls.thr_su) & ~in_gs)
        lost = ~in_gp & ~in_gs & ~buf
        for outcome in (in_gp & in_gs, in_gp & ~in_gs, ~in_gp & in_gs, buf,
                        lost):
            assert outcome.any()

    def test_threshold_products_beyond_double_range(self):
        # thr (1 + snr) overflows to inf, which no finite SNR reaches; the
        # masks stay exact and raise no overflow warning
        cls = RegionClassifier(1000.0, 20.0)      # thr_su about 1.07e301
        gs, gps = np.array([1e300, 1e305]), np.array([1e307, 1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pu_dec, su_dec, buf = cls.masks(gs, gps)
        # the primary decodes alone at gamma_s < thr_su; at gamma_s >=
        # thr_su the sum falls short of thr_sum (about 1.12e307), so the
        # slot is buffered
        assert pu_dec.tolist() == [True, False]
        assert su_dec.tolist() == [False, False]
        assert buf.tolist() == [False, True]

    @pytest.mark.parametrize("rates", [(math.nan, 1.0), (1.0, math.nan),
                                       (math.inf, 2.52), (1.12, -math.inf)])
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="finite"):
            RegionClassifier(*rates)


class TestMasksMatchReference:
    """`masks` shares its comparisons; the written-out regions pin it."""

    RATE_PAIRS = [(1.12, 2.52), (1.91, 2.52), (0.3, 0.05), (4.0, 6.0)]

    @staticmethod
    def assert_same(cls, snr_s, snr_ps):
        for got, want in zip(cls.masks(snr_s, snr_ps),
                             reference_masks(cls, snr_s, snr_ps)):
            assert got.dtype == want.dtype == bool
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate_su,rate_p", RATE_PAIRS)
    def test_random_draws(self, rate_su, rate_p):
        rng = np.random.default_rng(31)
        cls = RegionClassifier(rate_su, rate_p)
        self.assert_same(cls, rng.exponential(5.0, 50_000),
                         rng.exponential(5.0, 50_000))

    @pytest.mark.parametrize("rate_su,rate_p", RATE_PAIRS)
    def test_points_on_every_boundary(self, rate_su, rate_p):
        rng = np.random.default_rng(32)
        cls = RegionClassifier(rate_su, rate_p)
        x = rng.exponential(5.0, 2_000)
        a, b = np.full_like(x, cls.thr_su), np.full_like(x, cls.thr_p)
        pairs = [(a, x), (x, b), (a, b), (x, cls.thr_sum - x),
                 (cls.thr_sum - x, x), (x, cls.thr_p * (1.0 + x)),
                 (cls.thr_su * (1.0 + x), x), (np.nextafter(a, 0.0), x),
                 (x, np.nextafter(b, 0.0)), (np.zeros_like(x), x),
                 (x, np.zeros_like(x))]
        for snr_s, snr_ps in pairs:
            self.assert_same(cls, snr_s, snr_ps)

    def test_nan_and_inf_inputs(self):
        cls = RegionClassifier(1.12, 2.52)
        values = np.array([np.nan, np.inf, 0.0, cls.thr_su, cls.thr_p,
                           cls.thr_sum, 0.5, 50.0])
        snr_s, snr_ps = (g.ravel() for g in np.meshgrid(values, values))
        self.assert_same(cls, snr_s, snr_ps)

    def test_zero_dimensional_inputs(self):
        cls = RegionClassifier(1.12, 2.52)
        for snr_s, snr_ps in ((0.0, 10.0), (2.0, 1.0), (1.2, 0.0),
                              (np.nan, 1.0)):
            self.assert_same(cls, np.asarray(snr_s), np.asarray(snr_ps))


@st.composite
def decode_scenarios(draw):
    """(mean_snr_s, mean_snr_ps, rate_p): the cross link dead, as strong as
    the direct link (the sum-rate term's removable singularity), or random."""
    snr_s = draw(st.floats(0.05, 50.0))
    snr_ps = draw(st.one_of(st.just(0.0), st.just(snr_s),
                            st.floats(0.05, 50.0)))
    rate_p = draw(st.floats(0.05, 6.0))
    return snr_s, snr_ps, rate_p


# The whole bracket, with extra weight below 4 bits/s/Hz where the decode
# probability is neither 0 nor 1 for most scenarios.
RATES = st.one_of(st.floats(*RATE_BRACKET), st.floats(RATE_BRACKET[0], 4.0))


# log10 of the mean SNRs whose clean-link maximizer W0(snr) / ln 2 lies
# strictly inside RATE_BRACKET, where r ln 2 2^r = snr.
CLEAN_OPTIMA_LOG10_SNR = tuple(
    math.log10(r * math.log(2.0) * 2.0 ** r)
    for r in (RATE_BRACKET[0] * (1 + 1e-6), RATE_BRACKET[1] * (1 - 1e-6)))


# Mean SNRs log-uniform over 1e-3..1e4, an absent link included.
SNRS = st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e))


class TestSuDecodeProbability:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(decode_scenarios(), RATES, RATES)
    def test_finite_bounded_and_nonincreasing_in_rate(self, scenario, r1,
                                                      r2):
        snr_s, snr_ps, rate_p = scenario
        lo, hi = sorted((r1, r2))
        p_lo = RegionClassifier(lo, rate_p).su_decode_probability(snr_s,
                                                                  snr_ps)
        p_hi = RegionClassifier(hi, rate_p).su_decode_probability(snr_s,
                                                                  snr_ps)
        for p in (p_lo, p_hi):
            assert math.isfinite(p) and 0.0 <= p <= 1.0
        assert p_hi <= p_lo

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(decode_scenarios(), RATES)
    def test_matches_monte_carlo(self, scenario, rate_su):
        snr_s, snr_ps, rate_p = scenario
        n = 10 ** 6
        params = table1_params(mean_snr_s=snr_s, mean_snr_ps=snr_ps,
                               rate_p=rate_p)
        _, mc, _ = reference_region_probs(params, rate_su, n, seed=21)
        exact = RegionClassifier(rate_su, rate_p).su_decode_probability(
            snr_s, snr_ps)
        assert abs(exact - mc) <= 4 * math.sqrt(exact * (1 - exact) / n)

    def test_dead_cross_link_is_clean_channel(self):
        cls = RegionClassifier(1.12, 2.52)
        assert cls.su_decode_probability(5.0, 0.0) == math.exp(
            -(2.0 ** 1.12 - 1.0) / 5.0)

    def test_absent_direct_link_decodes_nothing(self):
        cls = RegionClassifier(1.12, 2.52)
        assert cls.su_decode_probability(0.0, 5.0) == 0.0
        for snrs in ((-1e-9, 5.0), (5.0, -1e-9)):
            with pytest.raises(ValueError):
                cls.su_decode_probability(*snrs)


REAL_FIELDS = ["mean_snr_s", "mean_snr_p", "mean_snr_sp", "mean_snr_ps",
               "rate_p", "rate_su", "rate_sk", "eps_pu", "power_ratio"]


class TestSystemParamsValidation:
    @pytest.mark.parametrize("field", ["mean_snr_s", "mean_snr_p",
                                       "mean_snr_sp", "mean_snr_ps",
                                       "rate_p", "rate_su", "rate_sk"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            table1_params(**{field: value})

    @pytest.mark.parametrize("field,value", [("deadline_D", 5.5),
                                             ("deadline_D", 5.0),
                                             ("buffer_B", 1.5),
                                             ("buffer_B", True)])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            table1_params(**{field: value})

    def test_numpy_integers_accepted(self):
        p = table1_params(deadline_D=np.int64(3), buffer_B=np.int64(2))
        assert isinstance(p, SystemParams)

    @pytest.mark.parametrize("field", REAL_FIELDS)
    @pytest.mark.parametrize("value", [True, False, "5.0", None, [5.0],
                                       1 + 0j])
    def test_non_real_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            table1_params(**{field: value})

    @pytest.mark.parametrize("field", REAL_FIELDS)
    @pytest.mark.parametrize("value", [1, np.float64(0.5), np.float32(0.5),
                                       np.int64(1)])
    def test_ints_and_numpy_reals_accepted(self, field, value):
        assert getattr(table1_params(**{field: value}), field) == value

    @pytest.mark.parametrize("field", ["mean_snr_s", "mean_snr_p",
                                       "mean_snr_sp", "mean_snr_ps"])
    def test_snr_without_finite_reciprocal_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            table1_params(**{field: 5e-324})
        # the smallest normal double still has one
        assert getattr(table1_params(**{field: 1e-308}), field) == 1e-308

    @pytest.mark.parametrize("change,field", [
        ({"rate_p": 1024.0}, "rate_p"),
        ({"rate_su": 2000.0}, "rate_su"),
        ({"rate_sk": 1e300}, "rate_sk"),
        ({"rate_su": 600.0, "rate_p": 600.0}, "rate_su + rate_p"),
    ])
    def test_threshold_beyond_double_range_rejected(self, change, field):
        with pytest.raises(ValueError, match=field.replace("+", r"\+")):
            table1_params(**change)

    def test_largest_thresholds_accepted(self):
        p = table1_params(rate_su=1000.0, rate_p=23.0, rate_sk=1023.0)
        assert math.isfinite(2.0 ** (p.rate_su + p.rate_p) - 1.0)


class TestLinkStats:
    def test_table1_row1(self, t1_stats):
        assert t1_stats.q_ps_idle == pytest.approx(0.61, abs=0.01)
        assert t1_stats.q_ps_active == pytest.approx(0.74, abs=0.01)
        assert t1_stats.p_buf == pytest.approx(0.26, abs=0.01)
        assert t1_stats.t_su == pytest.approx(0.59, abs=0.01)
        assert t1_stats.t_sk == pytest.approx(1.10, abs=0.01)

    def test_table1_row2_equal_rates(self):
        [st] = link_stats([table1_params(rate_su=1.91)], mc_samples=10 ** 6,
                          seed=7)
        assert st.q_ps_active == pytest.approx(0.88, abs=0.01)
        assert st.p_buf == pytest.approx(0.37, abs=0.01)
        assert st.t_su == pytest.approx(0.40, abs=0.01)

    def test_active_outage_dominates(self, t1_stats):
        assert t1_stats.q_pp_active >= t1_stats.q_pp_idle
        assert t1_stats.q_ps_active > t1_stats.q_ps_idle

    def test_clean_rate_dominates_interfered_plus_buffered(self, t1_stats):
        # an interfered access plus its possible buffered recovery can
        # never beat a clean-channel access at the optimized clean rate
        slack = 1.12 * t1_stats.stderr_p_buf
        assert (t1_stats.t_sk
                >= t1_stats.t_su + t1_stats.p_buf * t1_stats.rate_su
                - 3 * slack)

    def test_buffering_identity(self, t1_params):
        # Pr(buffer) equals the clean-channel success probability minus
        # the exact interfered success probability, up to Monte Carlo error.
        st = link_stats([t1_params], mc_samples=10 ** 6, seed=11)[0]
        clean = math.exp(-(2.0 ** 1.12 - 1.0) / 5.0)
        pr_gs = st.t_su / st.rate_su
        se = st.stderr_p_buf
        assert abs(st.p_buf - (clean - pr_gs)) <= 3 * se

    def test_q_ps_idle_closed_form_matches_mc(self, t1_params):
        n = 10 ** 6
        st = link_stats([t1_params], mc_samples=n, seed=13)[0]
        cls = RegionClassifier(0.0, t1_params.rate_p)
        rng = np.random.default_rng(17)
        gps = rng.exponential(5.0, n)
        mc = float((gps < cls.thr_p).mean())
        se = math.sqrt(mc * (1 - mc) / n)
        assert abs(st.q_ps_idle - mc) <= 3 * se

    def test_deterministic_given_seed(self, t1_params):
        a = link_stats([t1_params], mc_samples=10 ** 5, seed=5)[0]
        b = link_stats([t1_params], mc_samples=10 ** 5, seed=5)[0]
        assert a == b
        c = link_stats([t1_params], mc_samples=10 ** 5, seed=6)[0]
        assert c != a

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(SNRS, SNRS, RATES, RATES)
    def test_t_su_exact_and_seed_free(self, snr_s, snr_ps, rate_su, rate_p):
        params = table1_params(mean_snr_s=snr_s, mean_snr_ps=snr_ps,
                               rate_su=rate_su, rate_p=rate_p)
        st = link_stats([params], mc_samples=10 ** 5, seed=1)[0]
        exact = RegionClassifier(rate_su, rate_p).su_decode_probability(
            snr_s, snr_ps)
        assert st.t_su == rate_su * exact
        [other_seed] = link_stats([params], mc_samples=10 ** 5, seed=2)
        assert other_seed.t_su == st.t_su
        assert link_stats([params], mc_samples=10 ** 5, seed=1)[0] == st

    def test_dead_cross_link(self):
        p = table1_params(mean_snr_ps=0.0)
        st = link_stats([p], mc_samples=10 ** 5, seed=3)[0]
        assert st.q_ps_idle == 1.0
        assert st.q_ps_active == 1.0
        assert st.p_buf == 0.0
        expected = 1.12 * math.exp(-(2.0 ** 1.12 - 1.0) / 5.0)
        assert st.t_su == pytest.approx(expected, abs=5e-3)

    def test_absent_secondary_link_no_clean_throughput(self):
        st = link_stats([table1_params(mean_snr_s=0.0)], mc_samples=10 ** 5,
                        seed=3)[0]
        assert st.t_sk == 0.0

    def test_sample_floor_enforced(self, t1_params):
        with pytest.raises(ValueError):
            link_stats([t1_params], mc_samples=10 ** 4, seed=1)

    @pytest.mark.parametrize("field", ["t_su", "t_p_active", "rate_sk",
                                       "stderr_p_buf"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_validate_rejects_non_finite(self, t1_stats, field, value):
        bad = LinkStats(**dict(asdict(t1_stats), **{field: value}))
        with pytest.raises(ValueError, match=field):
            bad.validate()

    def test_json_round_trip(self, t1_stats):
        import json
        from dataclasses import asdict
        obj = json.loads(json.dumps(asdict(t1_stats)))
        for key in ("q_pp_idle", "q_pp_active", "q_ps_idle", "q_ps_active",
                    "p_buf", "t_su", "t_sk", "t_p_idle", "t_p_active"):
            assert key in obj
        assert LinkStats.from_json_obj(obj) == t1_stats

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="Monte-Carlo q_ps_active; ROADMAP item 2")
    def test_low_snr_scenario_valid_at_every_seed(self):
        # q_ps_active - q_ps_idle is about 3e-4 here, below one Monte-Carlo
        # standard error at 10**6 draws, so some seeds invert the ordering
        # that `validate` enforces
        params = derive_rates(table1_params(mean_snr_s=0.002), RSU_STAR)
        for seed in range(1, 21):
            link_stats([params], 10 ** 6, seed)[0].validate()


class TestOptimizeRate:
    def test_pu_idle_rate(self, t1_params):
        assert optimize_rate(PU_IDLE_THROUGHPUT, t1_params) == pytest.approx(
            2.52, abs=0.02)

    def test_su_clean_rate(self, t1_params):
        assert optimize_rate(SU_CLEAN_THROUGHPUT, t1_params) == pytest.approx(
            1.91, abs=0.02)

    def test_su_interfered_rate(self, t1_params):
        r = optimize_rate(SU_INTERFERED_THROUGHPUT, t1_params)
        assert r == pytest.approx(1.12, abs=0.02)

    def test_su_interfered_rate_exact(self, t1_params):
        # with the derived primary rate, as derive_rates does
        rate_p = optimize_rate(PU_IDLE_THROUGHPUT, t1_params)
        r = optimize_rate(SU_INTERFERED_THROUGHPUT,
                          t1_params.replace(rate_p=rate_p))
        assert r == pytest.approx(1.1205, abs=1e-3)

    def test_unknown_objective(self, t1_params):
        with pytest.raises(ValueError):
            optimize_rate("NOPE", t1_params)

    @pytest.mark.parametrize("objective", [
        PU_IDLE_THROUGHPUT, SU_CLEAN_THROUGHPUT, SU_INTERFERED_THROUGHPUT])
    @pytest.mark.parametrize("snr", [1e8, 1e-4])
    def test_bracket_edge_rejected(self, t1_params, objective, snr):
        # the clean-link optimum W0(snr) / ln 2 is 22.6 at 1e8 and 1.4e-4
        # at 1e-4, both outside RATE_BRACKET; its edge is no optimum
        params = t1_params.replace(mean_snr_s=snr, mean_snr_p=snr)
        lo, hi = RATE_BRACKET
        with pytest.raises(ValueError, match=rf"{objective} .* \[{lo}, {hi}\]"):
            optimize_rate(objective, params)

    def test_low_snr_rates_stay_inside_bracket(self, t1_params):
        # near the lower bracket edge the maximizers are exact too
        params = t1_params.replace(mean_snr_s=0.002)
        assert optimize_rate(SU_CLEAN_THROUGHPUT, params) == pytest.approx(
            lambert_w0(0.002) / math.log(2.0), rel=1e-12)
        r = optimize_rate(SU_INTERFERED_THROUGHPUT, params)
        assert r == pytest.approx(0.00212153887658, rel=1e-9)
        assert interfered_slope(r * (1.0 - 1e-9), params) > 0.0
        assert interfered_slope(r * (1.0 + 1e-9), params) < 0.0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(*CLEAN_OPTIMA_LOG10_SNR).map(lambda e: 10.0 ** e))
    def test_clean_rates_are_lambert_w(self, snr):
        # r ln 2 2^r = snr at the peak of r exp(-(2^r - 1) / snr)
        params = table1_params(mean_snr_s=snr, mean_snr_p=snr)
        exact = lambert_w0(snr) / math.log(2.0)
        for objective in (PU_IDLE_THROUGHPUT, SU_CLEAN_THROUGHPUT):
            assert optimize_rate(objective, params) == pytest.approx(
                exact, rel=1e-12)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(-2.0, 4.0), st.floats(-2.0, 4.0), st.floats(0.05, 8.0))
    def test_interfered_rate_is_the_global_peak(self, e_s, e_ps, rate_p):
        # the 65-point bracket must not settle on a lesser local peak
        params = table1_params(mean_snr_s=10.0 ** e_s,
                               mean_snr_ps=10.0 ** e_ps, rate_p=rate_p)
        fine = reference_su_throughput(np.linspace(*RATE_BRACKET, 20_001),
                                       rate_p, params.mean_snr_s,
                                       params.mean_snr_ps)
        r = optimize_rate(SU_INTERFERED_THROUGHPUT, params)
        at_r = reference_su_throughput([r], rate_p, params.mean_snr_s,
                                       params.mean_snr_ps)[0]
        assert at_r >= fine.max() * (1.0 - 1e-12)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(decode_scenarios(), RATES)
    def test_slope_matches_finite_difference(self, scenario, rate):
        snr_s, snr_ps, rate_p = scenario
        a, b = 2.0 ** rate - 1.0, 2.0 ** rate_p - 1.0
        p, dp_da = _decode_probability(a, b, snr_s, snr_ps, slope=True)
        assert p == _decode_probability(a, b, snr_s, snr_ps)
        h = 1e-6 * a
        diff = (_decode_probability(a + h, b, snr_s, snr_ps)
                - _decode_probability(a - h, b, snr_s, snr_ps)) / (2 * h)
        assert dp_da <= 0.0
        assert dp_da == pytest.approx(diff, rel=1e-5, abs=1e-12)


    @pytest.mark.parametrize("snr_ps", [1e-300, 1e-308])
    def test_slope_at_vanishing_cross_link_is_clean_channel(self, snr_ps):
        # kappa^2 and kappa b overflow here; the primary signal is
        # undecodable, so the secondary decodes as on a clean channel
        a, b = 2.0 ** 1.91 - 1.0, 2.0 ** 2.52 - 1.0
        p, dp_da = _decode_probability(a, b, 5.0, snr_ps, slope=True)
        clean = math.exp(-a / 5.0)
        assert p == pytest.approx(clean, rel=1e-12)
        assert dp_da == pytest.approx(-clean / 5.0, rel=1e-12)

    def test_underflowed_clean_channel_decodes_nothing(self):
        # e^(-a u) underflows, and with thr_p = 0 the cross-link exponent
        # kappa b would be inf * 0
        a, b = 1e10, 0.0
        assert _decode_probability(a, b, 1e-300, 1e-300, slope=True) == (
            0.0, 0.0)


def interfered_slope(rate: float, params: SystemParams) -> float:
    """d/dr of r Pr(su_decodable) at the cross link of ``params``."""
    p, dp_da = _decode_probability(2.0 ** rate - 1.0,
                                   2.0 ** params.rate_p - 1.0,
                                   params.mean_snr_s, params.mean_snr_ps,
                                   slope=True)
    return p + rate * math.log(2.0) * 2.0 ** rate * dp_da


# Scenarios that differ in both mean SNRs the draws are scaled by (a dead
# cross link included), in the cross-link gain and in the secondary rate.
BATCH = [table1_params(),
         table1_params(mean_snr_s=0.5, mean_snr_ps=20.0),
         table1_params(mean_snr_ps=0.0, rate_su=0.4),
         table1_params(mean_snr_sp=0.1, rate_su=3.0),
         table1_params(mean_snr_s=50.0, mean_snr_ps=1e-3, mean_snr_sp=8.0)]


class TestStreamedEstimator:
    """The batched, block-streamed estimator against the one-shot reference
    and against one-scenario calls: one partial block, several blocks and
    a partial last block."""

    @pytest.mark.parametrize("samples,seed", [(10 ** 5, 7), (10 ** 6, 1),
                                              (3 * 10 ** 6 + 17, 3),
                                              (10 ** 7, 1234)])
    def test_matches_one_shot_reference(self, t1_params, samples, seed):
        [probs] = _mc_region_probs([t1_params], samples, seed)
        ref = reference_region_probs(t1_params, t1_params.rate_su, samples,
                                     seed)
        assert probs == (ref[0], ref[2])
        assert all(type(p) is float for p in probs)

    @pytest.mark.parametrize("link", ["mean_snr_s", "mean_snr_ps"])
    def test_dead_link_consumes_the_same_draws(self, link):
        params = table1_params(**{link: 0.0})
        n = (1 << 20) + 12_345
        ref = reference_region_probs(params, params.rate_su, n, 9)
        assert _mc_region_probs([params], n, 9) == [(ref[0], ref[2])]

    @pytest.mark.parametrize("samples", [10 ** 5, 10 ** 6, (1 << 20) + 12_345])
    def test_batch_equals_one_scenario_calls(self, samples):
        batch = link_stats(BATCH, samples, seed=4)
        assert len(batch) == len(BATCH)
        for params, stats in zip(BATCH, batch):
            assert stats == link_stats([params], samples, seed=4)[0]

    def test_batch_matches_one_shot_reference(self):
        n = (1 << 20) + 12_345
        for params, probs in zip(BATCH, _mc_region_probs(BATCH, n, 5)):
            ref = reference_region_probs(params, params.rate_su, n, 5)
            assert probs == (ref[0], ref[2])

    def test_empty_batch(self):
        assert link_stats([], 10 ** 5, seed=1) == []

    @pytest.mark.parametrize("samples", [10 ** 6, 3 * 10 ** 6 + 17])
    def test_peak_memory_below_2_mb(self, t1_params, samples):
        tracemalloc.start()
        try:
            link_stats([t1_params], samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_batch_peak_memory_below_2_mb(self):
        # the 17 points of the default GPS_RATIO grid: two scratch blocks
        # serve them all, so memory does not grow with the scenario count
        scenarios = [table1_params(mean_snr_ps=x * 5.0)
                     for x in DEFAULT_GRIDS[GPS_RATIO]]
        tracemalloc.start()
        try:
            batch = link_stats(scenarios, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batch) == 17
        assert peak < 2 * 2 ** 20
