import math

import numpy as np
import pytest

from multireg import horn
from multireg.bounds import (check_consistency_bench, dominance_margin, dominance_ratio_threshold,
                             hoeffding_bound, min_cluster_size_threshold,
                             noise_ratio_interval, noise_ratio_sample_floor,
                             rotation_error_bound, run_consistency_bench,
                             run_noise_ratio_bench, translation_error_bound)
from multireg.horn import estimate_noise_std


def test_rotation_bound_spot_value():
    # hand computation: 18 * 0.1 * 3 * sqrt((2/1e4) * log(360))
    expected = 18.0 * 0.1 * 3.0 * math.sqrt((2.0 / 10_000) * math.log(18.0 / 0.05))
    value = rotation_error_bound(10_000, sigma=0.1, bound_b=1.0, delta=0.05,
                                 lambda_min=1.0 / 3.0)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(0.1853, abs=5e-4)


def test_rotation_bound_scalings():
    base = rotation_error_bound(1_000, 0.1, 1.0, 0.05, 0.2)
    tighter = rotation_error_bound(1_000_000, 0.1, 1.0, 0.05, 0.2)
    assert base / tighter == pytest.approx(math.sqrt(1000.0), rel=1e-9)
    doubled_b = rotation_error_bound(1_000, 0.1, 2.0, 0.05, 0.2)
    assert doubled_b == pytest.approx(2.0 * base, rel=1e-12)
    assert rotation_error_bound(100, 0.1, 1.0, 0.05, 0.0) == float("inf")


def test_translation_bound_values():
    assert translation_error_bound(500, 0.0, 1.0, 0.05) == 0.0
    # second term alone at sigma=1, m=1200: (12/1200) * log(120)
    second = (12.0 / 1200) * math.log(6.0 / 0.05)
    full = translation_error_bound(1200, 1.0, 1.0, 0.05)
    first = 36.0 * math.sqrt((2.0 / 1200) * math.log(18.0 / 0.05))
    assert full == pytest.approx(first + second, rel=1e-15)
    assert second == pytest.approx(0.04787, abs=5e-5)
    assert translation_error_bound(2000, 0.1, 1.0, 0.05) < translation_error_bound(500, 0.1, 1.0, 0.05)


def test_hoeffding_bound_values():
    delta = 0.1
    n = 2.0 * math.log(2.0 / delta)
    assert hoeffding_bound(n, 1.0, delta) == pytest.approx(1.0, rel=1e-15)
    assert hoeffding_bound(400, 1.0, delta) == pytest.approx(
        hoeffding_bound(100, 1.0, delta) / 2.0, rel=1e-15)
    k_form = hoeffding_bound(100, 2.0, delta, k=9)
    assert k_form == pytest.approx(
        2.0 * 9.0 * math.sqrt((2.0 / 100) * math.log(2.0 * 9.0 / delta)), rel=1e-15)


def test_hoeffding_monte_carlo(rng):
    delta = 0.1
    n = 10_000
    bound = hoeffding_bound(n, 1.0, delta)
    violations = sum(
        abs(rng.uniform(-1, 1, n).mean()) > bound for _ in range(1000))
    assert violations <= 0.10 * 1000


def test_noise_ratio_interval_and_floor():
    low, high = noise_ratio_interval(100_000, 0.1)
    center = 1.0 / math.sqrt(3.0)
    half = 2.0 * ((2.0 / 300_000) * math.log(20.0)) ** 0.25
    assert low == pytest.approx(center - half, rel=1e-15)
    assert high == pytest.approx(center + half, rel=1e-15)
    assert noise_ratio_sample_floor(0.1) == pytest.approx(2000.0 * math.log(20.0), rel=1e-15)
    with pytest.raises(ValueError, match="validity floor"):
        run_noise_ratio_bench([100], delta=0.1, trials=5, seed=0)


def test_dominance_threshold_and_inverse():
    assert dominance_ratio_threshold(0.0) == pytest.approx(8.0 * math.exp(6.0), rel=1e-15)
    assert dominance_ratio_threshold(0.0) == pytest.approx(3227.4, abs=0.1)
    values = [dominance_ratio_threshold(c) for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    for c in (0.0, 0.3, 1.7):
        assert dominance_margin(dominance_ratio_threshold(c)) == pytest.approx(c, abs=1e-12)
    with pytest.raises(ValueError):
        dominance_ratio_threshold(-0.1)


def test_min_cluster_size_variant_b_spot_value():
    # 2.5e8 * ((3+1)/(3-1))^2 * log(360) * max{9, 1, 0.1} = 2.5e8 * 4 * log(360) * 9
    expected = 2.5e8 * 4.0 * math.log(18.0 / 0.05) * 9.0
    value = min_cluster_size_threshold(alpha=3.0, delta=0.05, bound_b=1.0,
                                       lambda_min=1.0 / 3.0, sigma=0.1, variant="b")
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(5.30e10, rel=0.01)


def test_min_cluster_size_variant_b_diverges_near_one():
    near = min_cluster_size_threshold(alpha=1.0 + 1e-9, delta=0.05, bound_b=1.0,
                                      lambda_min=1.0, sigma=0.1, variant="b")
    far = min_cluster_size_threshold(alpha=100.0, delta=0.05, bound_b=1.0,
                                     lambda_min=1.0, sigma=0.1, variant="b")
    # ((alpha+1)/(alpha-1))^2 blows up like (2/(alpha-1))^2 near the pole
    assert near > 1e17 * far
    with pytest.raises(ValueError, match="alpha"):
        min_cluster_size_threshold(alpha=1.0, delta=0.05, bound_b=1.0,
                                   lambda_min=1.0, sigma=0.1, variant="b")


def test_min_cluster_size_variant_a():
    # at alpha = 8 e^8 the trailing factor is (0.5 * 8)^(-1/2) = 0.5 exactly
    alpha = 8.0 * math.exp(8.0)
    value = min_cluster_size_threshold(alpha=alpha, delta=0.05, bound_b=1.0,
                                       lambda_min=1.0 / 3.0, sigma=0.1, variant="a")
    expected = 2.5e4 * math.log(18.0 / 0.05) * 9.0 * 0.5
    assert value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="8 e"):
        min_cluster_size_threshold(alpha=100.0, delta=0.05, bound_b=1.0,
                                   lambda_min=1.0, sigma=0.1, variant="a")


def test_min_cluster_size_floor_option_and_bad_variant():
    with_floor = min_cluster_size_threshold(alpha=3.0, delta=0.05, bound_b=0.1,
                                            lambda_min=10.0, sigma=0.01, variant="b",
                                            include_absolute_floor=True)
    without = min_cluster_size_threshold(alpha=3.0, delta=0.05, bound_b=0.1,
                                         lambda_min=10.0, sigma=0.01, variant="b")
    assert with_floor > without  # the 0.1 term dominates max{1e-4, 0.01, 0.01}
    assert with_floor == pytest.approx(without * 0.1 / 0.01, rel=1e-12)
    with pytest.raises(ValueError, match="variant"):
        min_cluster_size_threshold(alpha=3.0, delta=0.05, bound_b=1.0,
                                   lambda_min=1.0, sigma=0.1, variant="c")


def test_consistency_bench_small_grid():
    trials, summaries = run_consistency_bench([50, 200], sigma=0.1, bound_b=1.0,
                                              delta=0.05, trials=20, seed=12)
    assert len(trials) == 40
    for s in summaries:
        assert s.violation_rate_rot <= 2 * 0.05 + 3 * math.sqrt(2 * 0.05 / 20)
        assert s.violation_rate_trans <= 2 * 0.05 + 3 * math.sqrt(2 * 0.05 / 20)
    assert summaries[0].median_rot_err_sq > summaries[1].median_rot_err_sq


def test_consistency_bench_refuses_a_ball_that_overflows_the_horn_sums(monkeypatch):
    # 4 m B (2B + sigma) is inf at B = 1e200: a direct caller is refused too,
    # before any trial is drawn
    monkeypatch.setattr(np.random, "SeedSequence", None)
    message = r"bench.bound_b = 1e\+200 overflows the Horn fit's sums at m = 100"
    with pytest.raises(ValueError, match=message):
        check_consistency_bench([100], 0.1, 1e200, 0.05, 3)
    with pytest.raises(ValueError, match=message):
        run_consistency_bench([10, 100], sigma=0.1, bound_b=1e200, delta=0.05, trials=3, seed=0)


def test_consistency_bench_noiseless():
    trials, _ = run_consistency_bench([100], sigma=0.0, bound_b=1.0,
                                      delta=0.05, trials=10, seed=5)
    assert all(t.rot_err_sq <= 1e-18 and t.trans_err_sq <= 1e-18 for t in trials)


def test_consistency_bench_deterministic():
    t1, _ = run_consistency_bench([100], sigma=0.1, bound_b=1.0, delta=0.05,
                                  trials=5, seed=99)
    t2, _ = run_consistency_bench([100], sigma=0.1, bound_b=1.0, delta=0.05,
                                  trials=5, seed=99)
    assert [(a.rot_err_sq, a.trans_err_sq) for a in t1] == \
           [(b.rot_err_sq, b.trans_err_sq) for b in t2]


def test_consistency_bench_never_estimates_the_noise(monkeypatch):
    def refuse(*args):
        raise AssertionError("the consistency bench reads only lambda_min")

    expected, _ = run_consistency_bench([3, 100], sigma=0.1, bound_b=1.0, delta=0.05,
                                        trials=3, seed=8)
    monkeypatch.setattr(horn, "estimate_noise_std", refuse)
    trials, _ = run_consistency_bench([3, 100], sigma=0.1, bound_b=1.0, delta=0.05,
                                      trials=3, seed=8)
    assert trials == expected


def test_noise_ratio_bench_quick():
    summaries = run_noise_ratio_bench([100_000], delta=0.1, trials=20, seed=7)
    s = summaries[0]
    assert s.violation_rate == 0.0
    assert s.max_abs_deviation <= 0.01
    assert len(s.ratios) == 20


def test_noise_ratio_bench_scale_equivariance():
    # the bench draws noise at sigma 1 only: the estimated std scales with the
    # noise, so the ratio it checks is the same at every sigma
    noise = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20_000, 3))
    for c in (0.1, 10.0):
        assert estimate_noise_std(c * noise) == pytest.approx(c * estimate_noise_std(noise),
                                                              rel=1e-12, abs=0)
