import math

import numpy as np
import pytest

from ifmsim import (
    DeviceParams,
    NonIdentifiableError,
    ObjectModel,
    TrialOutcome,
    TrialStatistics,
    estimate_grayness,
    outcome_distribution,
    resonator_opaque_scheme,
    run_trials,
)

BENCH = DeviceParams(r1=0.98, r2=0.98, rho=0.9999, a=500.0)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_object_model_validation(bad):
    with pytest.raises(ValueError):
        ObjectModel(bad)


def test_object_model_rejects_bool():
    with pytest.raises(ValueError, match="real number"):
        ObjectModel(True)


def test_object_model_accepts_numpy_scalar():
    target = ObjectModel(np.float32(0.5))
    assert target.grayness == 0.5 and type(target.grayness) is float


def test_object_model_helpers():
    assert ObjectModel.absent().grayness == 1.0
    assert ObjectModel.opaque().grayness == 0.0


def test_distribution_normalized_on_random_grid():
    rng = np.random.default_rng(17)
    for _ in range(40):
        params = DeviceParams(
            rng.uniform(0.2, 0.99), rng.uniform(0.2, 0.99), rng.uniform(0.3, 1.0),
            a=rng.uniform(50.0, 2e3),
        )
        target = ObjectModel(rng.uniform(0.0, 1.0))
        eff = rng.uniform(0.3, 1.0)
        dist = outcome_distribution(params, None, target, eff)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        assert all(p >= 0.0 for p in dist.values())


def test_opaque_object_closed_form_triple():
    """g = 0 reduces to the exact triple {r1, r2(1-r1), (1-r1)(1-r2)}."""
    dist = outcome_distribution(BENCH, None, ObjectModel.opaque())
    assert abs(dist[TrialOutcome.REFLECTED_DETECTOR] - 0.98) < 1e-12
    assert abs(dist[TrialOutcome.OBJECT_HIT] - 0.0196) < 1e-12
    assert abs(dist[TrialOutcome.TRANSMITTED_DETECTOR] - 0.0004) < 1e-12
    assert dist[TrialOutcome.LOST] == 0.0
    assert dist[TrialOutcome.NO_DETECTION] == 0.0

    # general coupling pair, arbitrary rho
    asym = DeviceParams(r1=0.9, r2=0.8, rho=0.777)
    dist = outcome_distribution(asym, None, ObjectModel.opaque())
    assert abs(dist[TrialOutcome.REFLECTED_DETECTOR] - 0.9) < 1e-12
    assert abs(dist[TrialOutcome.OBJECT_HIT] - 0.8 * 0.1) < 1e-12
    assert abs(dist[TrialOutcome.TRANSMITTED_DETECTOR] - 0.1 * 0.2) < 1e-12


def test_opaque_limit_matches_scheme_comparison_row():
    dist = outcome_distribution(DeviceParams(0.85, 0.75, 0.93), None, ObjectModel.opaque())
    row = resonator_opaque_scheme(0.85, 0.75)
    assert abs(dist[TrialOutcome.REFLECTED_DETECTOR] - row.detect_no_hit_prob) < 1e-12
    assert abs(dist[TrialOutcome.OBJECT_HIT] - row.hit_prob) < 1e-12
    assert abs(dist[TrialOutcome.TRANSMITTED_DETECTOR] - row.inconclusive_prob) < 1e-12


def test_empty_resonator_benchmark():
    dist = outcome_distribution(BENCH, None, ObjectModel.absent())
    assert dist[TrialOutcome.OBJECT_HIT] == 0.0
    assert dist[TrialOutcome.REFLECTED_DETECTOR] < 0.02
    assert 0.97 <= dist[TrialOutcome.TRANSMITTED_DETECTOR] <= 0.99
    assert dist[TrialOutcome.LOST] < 0.02


def test_detector_inefficiency_thins_detector_outcomes():
    ideal = outcome_distribution(BENCH, None, ObjectModel.absent(), 1.0)
    thinned = outcome_distribution(BENCH, None, ObjectModel.absent(), 0.85)
    reached = (
        ideal[TrialOutcome.REFLECTED_DETECTOR] + ideal[TrialOutcome.TRANSMITTED_DETECTOR]
    )
    assert abs(thinned[TrialOutcome.NO_DETECTION] - 0.15 * reached) < 1e-12
    assert abs(thinned[TrialOutcome.LOST] - ideal[TrialOutcome.LOST]) < 1e-15
    assert ideal[TrialOutcome.NO_DETECTION] == 0.0


def test_transmission_monotone_in_grayness():
    previous = -1.0
    for g in np.linspace(0.0, 1.0, 11):
        p_t = outcome_distribution(BENCH, None, ObjectModel(float(g)))[
            TrialOutcome.TRANSMITTED_DETECTOR
        ]
        assert p_t >= previous - 1e-12
        previous = p_t


def test_hit_probability_limits():
    lossless = DeviceParams(0.98, 0.98, 1.0)
    opaque = outcome_distribution(lossless, None, ObjectModel.opaque())
    assert abs(opaque[TrialOutcome.OBJECT_HIT] - 0.98 * 0.02) < 1e-12
    empty = outcome_distribution(lossless, None, ObjectModel.absent())
    assert empty[TrialOutcome.OBJECT_HIT] == 0.0


def test_run_trials_deterministic():
    first = run_trials(BENCH, None, ObjectModel(0.3), 0.9, 5000, seed=123)
    second = run_trials(BENCH, None, ObjectModel(0.3), 0.9, 5000, seed=123)
    assert first == second
    other = run_trials(BENCH, None, ObjectModel(0.3), 0.9, 5000, seed=124)
    assert other != first


def test_run_trials_counts_bookkeeping():
    stats = run_trials(BENCH, None, ObjectModel.absent(), 1.0, 1, seed=5)
    assert sum(stats.counts.values()) == 1
    assert stats.n_trials == 1
    with pytest.raises(ValueError):
        run_trials(BENCH, None, ObjectModel.absent(), 1.0, 0, seed=5)


def test_run_trials_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run_trials(BENCH, None, ObjectModel.absent(), 1.0, 10, seed=-1)


def test_empirical_frequencies_converge():
    n = 1_000_000
    stats = run_trials(BENCH, None, ObjectModel.opaque(), 1.0, n, seed=99)
    dist = outcome_distribution(BENCH, None, ObjectModel.opaque())
    for outcome in TrialOutcome:
        p = dist[outcome]
        sigma = math.sqrt(n * p * (1.0 - p))
        if sigma > 0.0:
            assert abs(stats.counts[outcome] - n * p) <= 4.0 * sigma
        else:
            assert stats.counts[outcome] == 0


def test_statistics_serialization_roundtrip():
    stats = run_trials(BENCH, None, ObjectModel(0.4), 0.85, 2000, seed=11)
    doc = stats.to_dict()
    assert set(doc) == {"counts", "n_trials", "seed"}
    assert TrialStatistics.from_dict(doc) == stats


def test_statistics_validation():
    counts = {o: 0 for o in TrialOutcome}
    counts[TrialOutcome.REFLECTED_DETECTOR] = 5
    with pytest.raises(ValueError):
        TrialStatistics(counts=counts, n_trials=6, seed=0)
    with pytest.raises(ValueError):
        TrialStatistics(counts={TrialOutcome.LOST: 5}, n_trials=5, seed=0)


@pytest.mark.parametrize("true_g,check", [(0.0, lambda g: g <= 0.01), (1.0, lambda g: g >= 0.99)])
def test_grayness_recovery_at_endpoints(true_g, check):
    stats = run_trials(BENCH, None, ObjectModel(true_g), 1.0, 100_000, seed=31)
    g_hat, ci = estimate_grayness(stats, BENCH)
    assert check(g_hat)
    assert ci[0] <= true_g <= ci[1]


def test_grayness_interval_brackets_estimate():
    stats = run_trials(BENCH, None, ObjectModel(0.5), 1.0, 100_000, seed=32)
    g_hat, (lo, hi) = estimate_grayness(stats, BENCH)
    assert lo <= g_hat <= hi
    assert 0.0 < hi - lo < 0.2
    assert lo <= 0.5 <= hi


def test_grayness_mse_shrinks_with_sample_size():
    true_g = 0.5
    mse = []
    for n in (1000, 10_000, 100_000):
        errors = []
        for rep in range(8):
            stats = run_trials(BENCH, None, ObjectModel(true_g), 1.0, n, seed=1000 + rep)
            g_hat, _ = estimate_grayness(stats, BENCH)
            errors.append((g_hat - true_g) ** 2)
        mse.append(sum(errors) / len(errors))
    assert mse[0] > mse[1] > mse[2]


def test_grayness_requires_enough_trials():
    stats = run_trials(BENCH, None, ObjectModel(0.5), 1.0, 99, seed=3)
    with pytest.raises(ValueError):
        estimate_grayness(stats, BENCH)


def test_grayness_not_identifiable_when_nothing_couples():
    # with the input gap essentially a mirror, no outcome responds to g
    sealed = DeviceParams(r1=1.0 - 1e-13, r2=0.98, rho=0.9999, a=500.0)
    counts = {o: 0 for o in TrialOutcome}
    counts[TrialOutcome.REFLECTED_DETECTOR] = 1000
    stats = TrialStatistics(counts=counts, n_trials=1000, seed=0)
    with pytest.raises(NonIdentifiableError):
        estimate_grayness(stats, sealed)


@pytest.mark.parametrize(
    "params,det_eff,outcome",
    [
        (BENCH, 1.0, TrialOutcome.NO_DETECTION),  # ideal detectors never miss
        (DeviceParams(0.98, 0.98, 1.0, 500.0), 0.9, TrialOutcome.LOST),  # no loss to lose to
    ],
)
def test_grayness_impossible_counts_raise(params, det_eff, outcome):
    counts = {o: 0 for o in TrialOutcome}
    counts[TrialOutcome.REFLECTED_DETECTOR] = 900
    counts[outcome] = 100
    stats = TrialStatistics(counts=counts, n_trials=1000, seed=0)
    with pytest.raises(ValueError, match=f"impossible at every grayness: {outcome.value}"):
        estimate_grayness(stats, params, None, det_eff)


def test_grayness_counts_capped_at_2_pow_53():
    counts = {o: 0 for o in TrialOutcome}
    counts[TrialOutcome.REFLECTED_DETECTOR] = 10**330 - 1
    counts[TrialOutcome.TRANSMITTED_DETECTOR] = 5
    stats = TrialStatistics(counts=counts, n_trials=10**330 + 4, seed=0)
    with pytest.raises(ValueError, match=r"2\^53"):
        estimate_grayness(stats, BENCH)


def test_detector_efficiency_validation():
    with pytest.raises(ValueError):
        outcome_distribution(BENCH, None, ObjectModel.absent(), 0.0)
    with pytest.raises(ValueError):
        outcome_distribution(BENCH, None, ObjectModel.absent(), 1.2)
