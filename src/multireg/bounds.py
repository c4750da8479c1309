"""Finite-sample error bounds and their Monte-Carlo validation benches.

The closed-form evaluators transcribe the high-probability guarantees for
the single-model solver (rotation / translation error as a function of the
sample count m, noise level sigma, point bound B, failure probability delta,
and the conditioning lambda_min), the deviation interval of the noise-std
estimate under uniform noise, a Hoeffding deviation bound with the k-set
union form, and the minimum-initial-cluster-size thresholds under which the
EM loop provably recovers the ground truth. The cluster-size threshold comes
in two variants with different constant factors ("a" and "b"); both are
implemented, plus an optional absolute floor term for the max. The benches
check the bounds empirically as sufficient conditions (violation rates),
never as tight estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MAX_ROWS, CorrespondenceSet, move, random_point_in_ball, random_rotation
from .horn import estimate_noise_std, horn_register

MIN_CLUSTER_SIZE_VARIANTS = ("a", "b")
# a bench spawns one SeedSequence child per m and trial; spawn counts in ssize_t
_MAX_SEEDS = int(np.iinfo(np.intp).max)


def _check_common(m, sigma, bound_b, delta):
    if m < 1:
        raise ValueError("m must be positive")
    if not (sigma >= 0 and math.copysign(1.0, sigma) > 0):  # NaN and -0.0 fail
        raise ValueError("sigma must be nonnegative")
    if not bound_b > 0:
        raise ValueError("bound_b must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def rotation_error_bound(m, sigma, bound_b, delta, lambda_min) -> float:
    """High-probability bound on the squared Frobenius rotation error.

    (18 B sigma / lambda_min) * sqrt((2/m) log(18/delta)); +inf when
    lambda_min is zero (degenerate geometry carries no guarantee).
    """
    _check_common(m, sigma, bound_b, delta)
    if lambda_min < 0:
        raise ValueError("lambda_min must be nonnegative")
    if lambda_min == 0:
        return float("inf")
    return (18.0 * bound_b * sigma / lambda_min) * math.sqrt((2.0 / m) * math.log(18.0 / delta))


def translation_error_bound(m, sigma, bound_b, delta) -> float:
    """High-probability bound on the squared translation error:
    36 B sigma sqrt((2/m) log(18/delta)) + (12/m) sigma^2 log(6/delta)."""
    _check_common(m, sigma, bound_b, delta)
    return (36.0 * bound_b * sigma * math.sqrt((2.0 / m) * math.log(18.0 / delta))
            + (12.0 / m) * sigma ** 2 * math.log(6.0 / delta))


def hoeffding_bound(n, a, delta, k: int = 1) -> float:
    """Deviation bound a*k*sqrt((2/n) log(2k/delta)) for k sets of n bounded
    i.i.d. variables (k=1 is the plain single-set bound)."""
    if n < 1 or a <= 0 or k < 1:
        raise ValueError("n, a and k must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return a * k * math.sqrt((2.0 / n) * math.log(2.0 * k / delta))


def noise_ratio_interval(m, delta) -> tuple[float, float]:
    """Two-sided interval for (estimated std / sigma) under uniform noise.

    The estimate concentrates at 1/sqrt(3); the half-width is
    2 * ((2/(3m)) log(2/delta))^(1/4). Valid for m above
    ``noise_ratio_sample_floor``.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    half_width = 2.0 * ((2.0 / (3.0 * m)) * math.log(2.0 / delta)) ** 0.25
    center = 1.0 / math.sqrt(3.0)
    return center - half_width, center + half_width


def noise_ratio_sample_floor(delta) -> float:
    """Smallest m for which the noise-ratio interval is valid: 2e3 log(2/delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 2.0e3 * math.log(2.0 / delta)


def dominance_ratio_threshold(c: float) -> float:
    """Smallest dominant-cluster size ratio guaranteeing absorption, as a
    function of the relative estimation error c: 8 exp(2 (sqrt(3) + c)^2)."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    return 8.0 * math.exp(2.0 * (math.sqrt(3.0) + c) ** 2)


def dominance_margin(alpha: float) -> float:
    """Inverse of ``dominance_ratio_threshold``: sqrt(0.5 log(alpha/8)) - sqrt(3).

    Nonnegative exactly when alpha >= 8 e^6; requires alpha > 8 for the
    square root to be real.
    """
    if alpha <= 8.0:
        raise ValueError("alpha must exceed 8")
    return math.sqrt(0.5 * math.log(alpha / 8.0)) - math.sqrt(3.0)


def min_cluster_size_threshold(alpha, delta, bound_b, lambda_min, sigma,
                               variant: str = "b",
                               include_absolute_floor: bool = False) -> float:
    """Minimum initial cluster size for the EM recovery guarantee.

    variant "a": 2.5e4 * log(18/delta) * max{B^4/lambda^2, B^2, sigma}
                 * (0.5 log(alpha/8))^(-1/2); requires alpha > 8 e^6 so the
                 corresponding error margin is nonnegative.
    variant "b": 2.5e8 * ((alpha+1)/(alpha-1))^2 * log(18/delta)
                 * max{B^4/lambda^2, B^2, sigma}; requires alpha > 1.
    ``include_absolute_floor`` adds a 0.1 term inside the max (a variant-"b"
    option).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if bound_b <= 0:
        raise ValueError("bound_b must be positive")
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    terms = [bound_b ** 4 / lambda_min ** 2, bound_b ** 2, sigma]
    if include_absolute_floor:
        terms.append(0.1)
    scale = math.log(18.0 / delta) * max(terms)
    if variant == "a":
        if not alpha > 8.0 * math.exp(6.0):
            raise ValueError("variant 'a' requires alpha > 8 e^6 "
                             "(the dominance margin must be nonnegative)")
        return 2.5e4 * scale * (0.5 * math.log(alpha / 8.0)) ** -0.5
    if variant == "b":
        if not alpha > 1.0:
            raise ValueError("variant 'b' requires alpha > 1")
        return 2.5e8 * ((alpha + 1.0) / (alpha - 1.0)) ** 2 * scale
    raise ValueError(f"unknown variant {variant!r}; expected one of {MIN_CLUSTER_SIZE_VARIANTS}")


@dataclass(frozen=True)
class BoundTrial:
    """One Monte-Carlo trial of the single-model error bounds."""

    m: int
    sigma: float
    bound_b: float
    delta: float
    lambda_min: float
    rot_err_sq: float
    trans_err_sq: float
    rot_bound: float
    trans_bound: float
    violated_rot: bool
    violated_trans: bool


@dataclass(frozen=True)
class ConsistencySummary:
    m: int
    trials: int
    violation_rate_rot: float
    violation_rate_trans: float
    median_rot_err_sq: float
    median_trans_err_sq: float


def check_consistency_bench(m_values, sigma, bound_b, delta, trials) -> list[int]:
    """The m values as ints, once every setting ``run_consistency_bench``
    takes is valid; raises ValueError otherwise, before anything is drawn."""
    m_values = [int(m) for m in m_values]
    if not m_values or min(m_values) < 3 or max(m_values) > MAX_ROWS:
        raise ValueError(f"bench.m_values must list at least one m, each in 3..{MAX_ROWS}")
    if len(set(m_values)) < len(m_values):  # each m keys its own summary lines
        raise ValueError("bench.m_values lists an m twice")
    try:
        _check_common(min(m_values), sigma, bound_b, delta)
    except ValueError as error:  # m passed above, so it names sigma, bound_b or delta
        raise ValueError(f"bench.{error}") from None
    # translation_error_bound squares sigma and takes log(18/delta)
    if not math.isfinite(18.0 / delta):
        raise ValueError(f"bench.delta = {delta!r} overflows 18/delta")
    if not math.isfinite(sigma * sigma):
        raise ValueError(f"bench.sigma = {sigma!r} overflows sigma * sigma")
    if not 1 <= trials <= _MAX_SEEDS // len(m_values):
        raise ValueError(f"bench.trials must lie in 1..{_MAX_SEEDS // len(m_values)}")
    # A trial's points and translation lie in the B-ball and its noise within
    # sigma, so the largest sum horn_register forms, the m products of the
    # cross-covariance, is at most 4 m B (2B + sigma); it is infinite whenever
    # the draws' span, 2B, is.
    m = max(m_values)
    if not math.isfinite(4.0 * m * bound_b * (2.0 * bound_b + sigma)):
        raise ValueError(f"bench.bound_b = {bound_b!r} overflows the Horn fit's sums at m = {m}")
    return m_values


def run_consistency_bench(m_values, sigma, bound_b, delta, trials, seed):
    """Sample single-object registrations and compare errors to the bounds.

    Per trial: random rotation, translation in the B-ball, m source points
    uniform in the B-ball, uniform noise on [-sigma, sigma]^3; register and
    record squared errors, the bound values (the rotation bound uses the
    trial's measured lambda_min) and violation flags. Returns (trials list,
    per-m summaries). Deterministic given the seed.
    """
    m_values = check_consistency_bench(m_values, sigma, bound_b, delta, trials)
    children = np.random.SeedSequence(seed).spawn(len(m_values) * trials)

    all_trials: list[BoundTrial] = []
    summaries: list[ConsistencySummary] = []
    child_iter = iter(children)
    for m in m_values:
        rows: list[BoundTrial] = []
        trans_bound = translation_error_bound(m, sigma, bound_b, delta)
        for _ in range(trials):
            rng = np.random.default_rng(next(child_iter))
            rotation = random_rotation(rng)
            translation = random_point_in_ball(rng, bound_b)
            a = random_point_in_ball(rng, bound_b, m)
            noise = rng.uniform(-sigma, sigma, size=(m, 3))
            b = move(a, rotation, translation) + noise
            est = horn_register(CorrespondenceSet(a, b))
            rot_err_sq = float(np.sum((est.transform.rotation - rotation) ** 2))
            trans_err_sq = float(np.sum((est.transform.translation - translation) ** 2))
            rot_bound = rotation_error_bound(m, sigma, bound_b, delta, est.lambda_min)
            rows.append(BoundTrial(
                m=m, sigma=sigma, bound_b=bound_b, delta=delta,
                lambda_min=est.lambda_min,
                rot_err_sq=rot_err_sq, trans_err_sq=trans_err_sq,
                rot_bound=rot_bound, trans_bound=trans_bound,
                violated_rot=rot_err_sq > rot_bound,
                violated_trans=trans_err_sq > trans_bound,
            ))
        all_trials.extend(rows)
        summaries.append(ConsistencySummary(
            m=m,
            trials=trials,
            violation_rate_rot=sum(r.violated_rot for r in rows) / trials,
            violation_rate_trans=sum(r.violated_trans for r in rows) / trials,
            median_rot_err_sq=float(np.median([r.rot_err_sq for r in rows])),
            median_trans_err_sq=float(np.median([r.trans_err_sq for r in rows])),
        ))
    return all_trials, summaries


@dataclass(frozen=True)
class NoiseRatioSummary:
    m: int
    trials: int
    violation_rate: float
    max_abs_deviation: float
    interval_low: float
    interval_high: float
    ratios: tuple[float, ...]


def check_noise_ratio_bench(m_values, delta, trials) -> list[int]:
    """The m values as ints, once every setting ``run_noise_ratio_bench``
    takes is valid; raises ValueError otherwise, before anything is drawn."""
    m_values = [int(m) for m in m_values]
    if not 0.0 < delta < 1.0:
        raise ValueError("bench.noise_ratio_delta must lie in (0, 1)")
    floor = noise_ratio_sample_floor(delta)
    if not math.isfinite(2.0 / delta):
        raise ValueError(f"bench.noise_ratio_delta = {delta!r} overflows 2/delta")
    if not m_values or min(m_values) < floor or max(m_values) > MAX_ROWS:
        raise ValueError("bench.noise_ratio_m must list at least one m, each from "
                         f"the interval's validity floor {floor:.0f} to {MAX_ROWS}")
    if len(set(m_values)) < len(m_values):
        raise ValueError("bench.noise_ratio_m lists an m twice")
    if not 1 <= trials <= _MAX_SEEDS // len(m_values):
        raise ValueError(f"bench.noise_ratio_trials must lie in 1..{_MAX_SEEDS // len(m_values)}")
    return m_values


def run_noise_ratio_bench(m_values, delta, trials, seed):
    """Check the (estimated std / sigma) interval on uniform noise samples.

    The noise is uniform on [-1, 1]^3, so sigma is 1; the ratio statistic is
    scale-free, so any other sigma would give the same ratios. Every
    requested m must clear the interval's validity floor. Returns per-m
    summaries.
    """
    m_values = check_noise_ratio_bench(m_values, delta, trials)
    children = np.random.SeedSequence(seed).spawn(len(m_values) * trials)

    center = 1.0 / math.sqrt(3.0)
    summaries: list[NoiseRatioSummary] = []
    child_iter = iter(children)
    for m in m_values:
        low, high = noise_ratio_interval(m, delta)
        violations = 0
        ratios = []
        for _ in range(trials):
            rng = np.random.default_rng(next(child_iter))
            # no name holds the sample, so it is freed before the next draw
            ratio = estimate_noise_std(rng.uniform(-1.0, 1.0, size=(m, 3)))
            ratios.append(ratio)
            if not low <= ratio <= high:
                violations += 1
        summaries.append(NoiseRatioSummary(
            m=m, trials=trials,
            violation_rate=violations / trials,
            max_abs_deviation=max(abs(r - center) for r in ratios),
            interval_low=low, interval_high=high,
            ratios=tuple(ratios),
        ))
    return summaries
