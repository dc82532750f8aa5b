"""Link-level statistics for a spectrum-sharing pair under Rayleigh fading.

All four links (secondary direct, primary direct, and the two cross links)
fade independently with exponentially distributed instantaneous SNR. This
module computes:

- primary outage probabilities with the secondary idle or transmitting
  (closed form),
- the joint-decoding regions of a secondary slot at the secondary receiver
  (`RegionClassifier.masks`, the one classifier of the (gamma_s, gamma_ps)
  plane),
- the exact probability that the secondary receiver decodes the secondary
  message (closed form over the same decode region),
- the fading-averaged probabilities and per-slot expected throughputs that
  drive the access-policy optimization (`LinkStats`): every one exact
  except Pr(decode PU) (so ``q_ps_active``) and Pr(buffer) (``p_buf``),
  which are seeded Monte Carlo over shared draws,
- exact rate optimization, by bisection on the sign of each closed-form
  throughput's slope, so derived rates depend on no seed.

`link_stats` takes a sequence of scenarios and returns one `LinkStats`
per scenario, from one pass over the Monte Carlo draws. The draws come
from one `numpy` PCG64 stream in a fixed order: per block of at most 2^15
samples, all of the block's standard exponential gamma_s first, then its
gamma_ps, each gamma_ps paired with the gamma_s at the same position.
Every scenario scales the same standard draws by its own mean SNRs
(common random numbers), so its statistics are a deterministic function
of (params, mc_samples, seed), equal to those of a one-scenario call,
and ``t_su`` a function of params alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np

# Rate-optimization objectives.
PU_IDLE_THROUGHPUT = "PU_IDLE_THROUGHPUT"
SU_CLEAN_THROUGHPUT = "SU_CLEAN_THROUGHPUT"
SU_INTERFERED_THROUGHPUT = "SU_INTERFERED_THROUGHPUT"

RATE_BRACKET = (1e-3, 20.0)   # bits/s/Hz; throughput vanishes at both ends

_MC_BLOCK = 1 << 15           # samples drawn and classified at once
MIN_MC_SAMPLES = 10 ** 5      # fewest Monte-Carlo draws `link_stats` takes
BRIEF_CHARS = 32              # longest `brief` text of a refused value


def check_mc_samples(mc_samples: int) -> None:
    """Reject a Monte-Carlo sample count below `MIN_MC_SAMPLES`."""
    if mc_samples < MIN_MC_SAMPLES:
        raise ValueError("mc_samples must be at least 1e5")


def brief(value, form=repr) -> str:
    """``form(value)`` in at most `BRIEF_CHARS` ASCII characters, non-ASCII
    ones escaped, and an integer of more than 30 digits as its order of
    magnitude, so that a refusal naming an outside value or key is one
    short line whatever it holds."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and abs(value) >= 10 ** 30):
        sign = "-" if value < 0 else ""
        return f"about {sign}10^{math.log10(abs(value)):.0f}"
    text = form(value).encode("ascii", "backslashreplace").decode()
    return text if len(text) <= BRIEF_CHARS else text[:BRIEF_CHARS - 3] + "..."


def check_integer(name: str, value) -> None:
    """Reject a bool or a non-integer ``value`` for the integer ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {brief(value)}")


def _success(rate: float, mean_snr: float) -> float:
    """Pr(rate <= log2(1 + snr)), snr exponential of mean ``mean_snr``;
    zero for an absent link (mean 0)."""
    if mean_snr == 0.0:
        return 0.0
    return math.exp(-(2.0 ** rate - 1.0) / mean_snr)


@dataclass(frozen=True)
class SystemParams:
    """Exogenous scalars describing one primary/secondary scenario.

    SNRs are linear-scale means of the exponential fading distributions;
    rates are in bits/s/Hz. ``power_ratio`` is the secondary power budget
    expressed as a fraction of the per-slot transmit power.
    """

    mean_snr_s: float
    mean_snr_p: float
    mean_snr_sp: float
    mean_snr_ps: float
    rate_p: float
    rate_su: float
    rate_sk: float
    deadline_D: int
    buffer_B: int
    eps_pu: float
    power_ratio: float

    def __post_init__(self):
        for name in ("deadline_D", "buffer_B"):
            check_integer(name, getattr(self, name))
        for name in ("mean_snr_s", "mean_snr_p", "mean_snr_sp", "mean_snr_ps",
                     "rate_p", "rate_su", "rate_sk", "eps_pu", "power_ratio"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got "
                                 f"{brief(value)}")
            try:
                finite = math.isfinite(value)
            except OverflowError:   # an integer past the double range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {brief(value)}")
        for name in ("mean_snr_s", "mean_snr_p", "mean_snr_sp", "mean_snr_ps"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError("mean SNRs must be nonnegative")
            if value > 0 and not math.isfinite(1.0 / value):
                raise ValueError(f"{name}={brief(value)} has no finite "
                                 "reciprocal")
        if min(self.rate_p, self.rate_su, self.rate_sk) <= 0:
            raise ValueError("rates must be positive")
        # 2^r - 1 must be a double; thr_sum also bounds thr_su * thr_p.
        for name, rate in (("rate_p", self.rate_p), ("rate_su", self.rate_su),
                           ("rate_sk", self.rate_sk),
                           ("rate_su + rate_p", self.rate_su + self.rate_p)):
            try:
                2.0 ** rate
            except OverflowError:
                raise ValueError(f"{name}={brief(rate)} has a decode "
                                 "threshold 2^r - 1 beyond the double "
                                 "range") from None
        if self.deadline_D < 1:
            raise ValueError("deadline_D must be >= 1")
        if not 0 <= self.buffer_B <= self.deadline_D - 1:
            raise ValueError("buffer_B must lie in [0, deadline_D - 1]")
        if not 0.0 <= self.eps_pu <= 1.0:
            raise ValueError("eps_pu must lie in [0, 1]")
        if not 0.0 <= self.power_ratio <= 1.0:
            raise ValueError("power_ratio must lie in [0, 1]")

    def replace(self, **changes) -> "SystemParams":
        fields = asdict(self)
        fields.update(changes)
        return SystemParams(**fields)

    @staticmethod
    def from_json_obj(obj: dict) -> "SystemParams":
        return SystemParams(**{k: obj[k] for k in (
            "mean_snr_s", "mean_snr_p", "mean_snr_sp", "mean_snr_ps",
            "rate_p", "rate_su", "rate_sk", "deadline_D", "buffer_B",
            "eps_pu", "power_ratio")})


@dataclass(frozen=True)
class LinkStats:
    """Fading-averaged probabilities and per-slot expected throughputs.

    ``q_pp_*`` are primary outage probabilities at the primary receiver,
    ``q_ps_*`` are primary outage probabilities at the secondary receiver,
    ``p_buf`` is the probability that an interfered secondary transmission
    is undecodable now but clean enough to buffer for later recovery.
    Throughputs ``t_*`` are expected bits/s/Hz per relevant slot. The rates
    are carried along because the buffered-recovery reward needs
    ``rate_su``, and so that reported statistics name the rates they were
    computed for. From `link_stats`, every field is exact except
    ``q_ps_active`` and ``p_buf``, which are Monte Carlo; ``stderr_*``
    report their standard errors (zero for analytically constructed stats).
    """

    q_pp_idle: float
    q_pp_active: float
    q_ps_idle: float
    q_ps_active: float
    p_buf: float
    t_su: float
    t_sk: float
    t_p_idle: float
    t_p_active: float
    rate_p: float
    rate_su: float
    rate_sk: float
    stderr_q_ps_active: float = 0.0
    stderr_p_buf: float = 0.0

    def validate(self) -> None:
        """Reject statistics that no physical scenario can produce.

        Guards the chain evaluators against silently wrong arithmetic:
        probabilities in range, secondary interference can only worsen the
        primary outage, primary interference can only worsen the decode of
        the primary message at the secondary receiver, and buffering is a
        sub-event of that decode failing.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name}={value} is not finite")
        for name in ("q_pp_idle", "q_pp_active", "q_ps_idle", "q_ps_active",
                     "p_buf"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.q_pp_active < self.q_pp_idle:
            raise ValueError("q_pp_active must dominate q_pp_idle")
        if self.q_ps_active < self.q_ps_idle:
            raise ValueError("q_ps_active must dominate q_ps_idle")
        if self.p_buf > self.q_ps_active:
            raise ValueError("p_buf cannot exceed q_ps_active")
        if min(self.t_su, self.t_sk, self.rate_su) < 0:
            raise ValueError("throughputs and rates must be nonnegative")

    @staticmethod
    def from_json_obj(obj: dict) -> "LinkStats":
        return LinkStats(**obj)


class RegionClassifier:
    """Joint-decoding outcome of one secondary-active slot at SUrx.

    Both messages decode when the rate pair sits inside the two-user
    multiple-access region (individual constraints plus the sum-rate
    constraint). Outside it, one message may still decode alone by treating
    the other as noise. A slot whose secondary message fails only because
    of primary interference (the clean-channel constraint still holds) is
    buffered for later interference-cancellation recovery.

    `masks` is the one definition of the regions, and the exact decode
    probability integrates the same thresholds, so every consumer
    classifies identically. Boundary ties follow the non-strict
    inequalities of the defining regions; under continuous fading they
    have measure zero.
    """

    def __init__(self, rate_su: float, rate_p: float):
        if not (math.isfinite(rate_su) and math.isfinite(rate_p)
                and rate_su >= 0 and rate_p >= 0):
            raise ValueError("rates must be finite and nonnegative")
        self.thr_su = 2.0 ** rate_su - 1.0          # rate_su <= C(x) iff x >= thr_su
        self.thr_p = 2.0 ** rate_p - 1.0
        self.thr_sum = 2.0 ** (rate_su + rate_p) - 1.0

    def masks(self, snr_s: np.ndarray, snr_ps: np.ndarray):
        """Vectorized membership masks (pu_decodable, su_decodable, buffered)."""
        s_ok = snr_s >= self.thr_su
        p_ok = snr_ps >= self.thr_p
        # A sum or product beyond the double range is inf: still exact. A
        # product 0 * inf is NaN only where the other SNR is inf, so its
        # own mask already rules the alone-region out.
        with np.errstate(over="ignore", invalid="ignore"):
            mac = s_ok & p_ok & (snr_s + snr_ps >= self.thr_sum)
            # On NaN the negated comparison holds, but the alone-region's
            # own comparison fails, so NaN lands in neither alone-region.
            pu_alone = ~s_ok & (snr_ps >= self.thr_p * (1.0 + snr_s))
            su_alone = ~p_ok & (snr_s >= self.thr_su * (1.0 + snr_ps))
        pu_dec = mac | pu_alone
        su_dec = mac | su_alone
        buffered = s_ok & ~(pu_dec | su_dec)
        return pu_dec, su_dec, buffered

    def su_decode_probability(self, mean_snr_s: float,
                              mean_snr_ps: float) -> float:
        """Exact Pr(su_decodable) under Rayleigh fading on both links
        (`_decode_probability`); zero for an absent secondary link."""
        if mean_snr_s < 0 or mean_snr_ps < 0:
            raise ValueError("mean SNRs must be nonnegative")
        if mean_snr_s == 0.0:
            return 0.0
        return _decode_probability(self.thr_su, self.thr_p, mean_snr_s,
                                   mean_snr_ps)


def _decode_probability(a: float, b: float, mean_snr_s: float,
                        mean_snr_ps: float, slope: bool = False):
    """Exact P = Pr(su_decodable) at thr_su = a, thr_p = b under Rayleigh
    fading, mean_snr_s > 0, or (P, dP/da) if ``slope``. With
    u = 1 / mean_snr_s, the region of `RegionClassifier.masks` splits
    along snr_ps into three exponential integrals:

    - secondary alone, snr_ps < b and snr_s >= a (1 + snr_ps);
    - both, sum-rate constraint binding, b <= snr_ps < b (1 + a) and
      snr_s >= thr_sum - snr_ps;
    - both, sum-rate constraint slack, snr_ps >= b (1 + a) and
      snr_s >= a.

    Differentiating under the integrals, the boundary terms at
    snr_ps = b (1 + a) cancel and dP/da = -u [alone + int_0^b snr_ps
    (alone integrand) + (1 + b) binding + slack]. Every exponent is kept
    nonpositive, and every term stays finite for any params that
    `SystemParams` accepts.
    """
    u = 1.0 / mean_snr_s
    clean = math.exp(-a * u)
    # The region lies in snr_s >= a, so P <= clean underflows with it.
    if mean_snr_ps == 0.0 or clean == 0.0:
        return (clean, -u * clean) if slope else clean
    v = 1.0 / mean_snr_ps
    kappa = v + a * u
    x = kappa * b
    below = -math.expm1(-x)
    alone = clean * below * v / kappa
    # v (e^e_near - e^e_far) / m: the two exponents differ by m a b,
    # and the quotient tends to v a b e^e_near as m -> 0.
    m = v - u
    e_near = -b * v - a * (1.0 + b) * u
    e_far = -b * (1.0 + a) * v - a * u
    gap = abs(m) * a * b
    ratio = -math.expm1(-gap) / abs(m) if gap > 0.0 else a * b
    binding = math.exp(max(e_near, e_far)) * ratio * v
    slack = math.exp(e_far)
    p = alone + binding + slack
    if not slope:
        return p
    # int_0^b y v e^(-kappa y) dy = v (1 - e^-x (1 + x)) / kappa^2 -> 0
    # as x or kappa^2 overflows
    tail = x * math.exp(-x) if x < math.inf else 0.0
    moment = clean * (below - tail) * v / (kappa * kappa)
    return p, -u * (alone + moment + (1.0 + b) * binding + slack)


def outage_pp(params: SystemParams, su_active: bool) -> float:
    """Primary-link outage probability, with or without secondary interference.

    Idle secondary: 1 - exp(-thr/mean_snr_p) with thr = 2**rate_p - 1.
    Active secondary: the interference term integrates out to the factor
    1 / (1 + thr * mean_snr_sp / mean_snr_p).
    """
    clear = _success(params.rate_p, params.mean_snr_p)
    if su_active and params.mean_snr_p > 0.0:
        thr = 2.0 ** params.rate_p - 1.0
        clear /= 1.0 + thr * params.mean_snr_sp / params.mean_snr_p
    return 1.0 - clear


def _mc_region_probs(scenarios: Sequence[SystemParams], mc_samples: int,
                     seed: int) -> List[Tuple[float, float]]:
    """Monte Carlo estimates (Pr decode PU, Pr buffer) of each scenario,
    in order, all from one pass of shared draws.

    A buffered draw decodes neither message, so on shared draws the
    estimates always satisfy Pr(buffer) <= 1 - Pr(decode PU), the
    p_buf <= q_ps_active that `LinkStats.validate` enforces. Pr(decode SU)
    is exact (`RegionClassifier.su_decode_probability`) and is not
    estimated here.

    Blocks of at most `_MC_BLOCK` samples are drawn sequentially from one
    seeded generator, which fixes how the draws pair up: per block, its
    standard exponential gamma_s first, then its standard gamma_ps, paired
    by position. Each scenario scales the block pair by its own means and
    classifies it with its `RegionClassifier.masks` while the block is
    cache-resident: the last one in place, the earlier ones into two
    scratch blocks, so one scenario allocates no scratch at all and no
    buffer outgrows a block. These are common random numbers: the product
    of a standard draw and a mean is the draw ``rng.exponential`` makes at
    that mean, so each scenario's estimates equal those of a one-scenario
    call at the same seed, bit for bit.
    """
    if not scenarios:
        return []
    classifiers = [RegionClassifier(p.rate_su, p.rate_p) for p in scenarios]
    n_gp = [0] * len(scenarios)
    n_buf = [0] * len(scenarios)
    last = len(scenarios) - 1
    rng = np.random.default_rng(seed)
    draws = np.empty((2, min(_MC_BLOCK, mc_samples)))
    scratch = np.empty_like(draws) if last else None
    for start in range(0, mc_samples, _MC_BLOCK):
        m = min(_MC_BLOCK, mc_samples - start)
        gs_block = rng.standard_exponential(out=draws[0, :m])
        gps_block = rng.standard_exponential(out=draws[1, :m])
        for i, (params, cls) in enumerate(zip(scenarios, classifiers)):
            if i == last:
                snr_s, snr_ps = gs_block, gps_block
            else:
                snr_s, snr_ps = scratch[0, :m], scratch[1, :m]
            # a product beyond the double range is inf, as
            # rng.exponential gives it
            with np.errstate(over="ignore"):
                np.multiply(gs_block, params.mean_snr_s, out=snr_s)
                np.multiply(gps_block, params.mean_snr_ps, out=snr_ps)
            pu_dec, _, buf = cls.masks(snr_s, snr_ps)
            n_gp[i] += int(np.count_nonzero(pu_dec))
            n_buf[i] += int(np.count_nonzero(buf))
    n = float(mc_samples)
    return [(gp / n, b / n) for gp, b in zip(n_gp, n_buf)]


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def link_stats(scenarios: Sequence[SystemParams],
               mc_samples: int,
               seed: int = 1234) -> List[LinkStats]:
    """Compute all fading-averaged link statistics of each scenario.

    Returns one `LinkStats` per scenario, in order. Single-variable
    exponential outages and the secondary decode probability behind
    ``t_su`` are exact; Pr(decode PU) and Pr(buffer) at the secondary
    receiver (``q_ps_active`` and ``p_buf``) use Monte Carlo with the
    given sample count and seed, over one pass of draws that every
    scenario shares (`_mc_region_probs`). A scenario's statistics are a
    deterministic function of (its params, mc_samples, seed), the same in
    any batch; ``t_su`` depends on params alone.
    """
    check_mc_samples(mc_samples)
    out = []
    for params, (pr_gp, p_buf) in zip(
            scenarios, _mc_region_probs(scenarios, mc_samples, seed)):
        q_pp_i = outage_pp(params, su_active=False)
        q_pp_a = outage_pp(params, su_active=True)
        q_ps_a = 1.0 - pr_gp
        cls = RegionClassifier(params.rate_su, params.rate_p)
        t_su = params.rate_su * cls.su_decode_probability(params.mean_snr_s,
                                                          params.mean_snr_ps)
        out.append(LinkStats(
            q_pp_idle=q_pp_i,
            q_pp_active=q_pp_a,
            q_ps_idle=1.0 - _success(params.rate_p, params.mean_snr_ps),
            q_ps_active=q_ps_a,
            p_buf=p_buf,
            t_su=t_su,
            t_sk=params.rate_sk * _success(params.rate_sk, params.mean_snr_s),
            t_p_idle=params.rate_p * (1.0 - q_pp_i),
            t_p_active=params.rate_p * (1.0 - q_pp_a),
            rate_p=params.rate_p,
            rate_su=params.rate_su,
            rate_sk=params.rate_sk,
            stderr_q_ps_active=_binomial_se(q_ps_a, mc_samples),
            stderr_p_buf=_binomial_se(p_buf, mc_samples),
        ))
    return out


def optimize_rate(objective: str, params: SystemParams) -> float:
    """Find the rate maximizing one of the three per-slot throughputs.

    Each is r P(r), P the `_decode_probability` at thr_su = 2^r - 1 of a
    link with no cross link (primary, clean secondary) or, for
    ``SU_INTERFERED_THROUGHPUT``, with the real one. The best of 65 points
    over ``RATE_BRACKET`` brackets the peak (unimodality is not proven);
    bisection on the sign of the exact slope P + r ln 2 2^r dP/da shrinks
    it to two adjacent doubles and returns the lower. Raises ValueError
    when the slope at a bracket end the grid picked points out of it.
    """
    links = {PU_IDLE_THROUGHPUT: ("mean_snr_p", 0.0),
             SU_CLEAN_THROUGHPUT: ("mean_snr_s", 0.0),
             SU_INTERFERED_THROUGHPUT: ("mean_snr_s", params.mean_snr_ps)}
    if objective not in links:
        raise ValueError(f"unknown objective {objective!r}")
    name, mean_snr_ps = links[objective]
    mean_snr = getattr(params, name)
    if mean_snr <= 0:
        raise ValueError(f"{name} must be positive")
    thr_p = 2.0 ** params.rate_p - 1.0
    ln2 = math.log(2.0)

    def rising(r: float) -> bool:
        two_r = 2.0 ** r
        p, dp_da = _decode_probability(two_r - 1.0, thr_p, mean_snr,
                                       mean_snr_ps, slope=True)
        return p + r * ln2 * two_r * dp_da > 0.0

    lo, hi = RATE_BRACKET
    step = (hi - lo) / 64
    grid = [lo + i * step for i in range(64)] + [hi]
    values = [r * _decode_probability(2.0 ** r - 1.0, thr_p, mean_snr,
                                      mean_snr_ps) for r in grid]
    i = values.index(max(values))
    if (i == 0 and not rising(lo)) or (i == len(grid) - 1 and rising(hi)):
        raise ValueError(f"{objective} maximizer lies outside the rate "
                         f"bracket [{lo}, {hi}]")
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    mid = 0.5 * (a + b)
    while a < mid < b:
        a, b = (mid, b) if rising(mid) else (a, mid)
        mid = 0.5 * (a + b)
    return a
