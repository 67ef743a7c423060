"""Tests for weighted statistics, TFN construction and the possibility measure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicmood.fuzzy import (
    TFN,
    ConformityTuple,
    OpinionConcept,
    WeightedSample,
    aggregate_topic,
    build_tfn,
    conformity,
    possibility,
    tfn_membership,
    weighted_mean,
    weighted_std,
)

from oracles import grid_possibility, spreadsheet_weighted_stats

# Three-post worked example (polarity column and the three weight columns).
VALUES = (0.5, 0.35, -0.2)
W_TOPIC1 = (0.5, 0.3, 0.2)

# Frozen from the independent recomputation of the weighted-std formula.
SIGMA_TOPIC1 = 0.32524990392004727
NEGATIVITY_TOPIC1 = 0.019514337543996094


def random_tfn(rng, lo=-1.5, hi=1.5):
    a, m, b = sorted(float(v) for v in rng.uniform(lo, hi, 3))
    return TFN(a, m, b)


class TestWeightedSample:
    def test_counts(self):
        s = WeightedSample([1.0, 2.0, 3.0], [0.5, 0.0, 0.2])
        assert s.size == 3
        assert s.n_active == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            WeightedSample([1.0], [0.5, 0.5])

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightedSample([1.0], [-0.1])

    def test_zero_total_weight(self):
        with pytest.raises(ValueError, match="strictly positive"):
            WeightedSample([1.0, 2.0], [0.0, 0.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            WeightedSample([], [])


class TestWeightedMean:
    def test_worked_example(self):
        assert weighted_mean(WeightedSample(VALUES, W_TOPIC1)) == pytest.approx(0.315, abs=1e-12)

    def test_single_value_identity(self):
        assert weighted_mean(WeightedSample([0.7], [1.0])) == 0.7

    def test_symmetric_cancellation(self):
        assert weighted_mean(WeightedSample([1.0, -1.0], [0.5, 0.5])) == 0.0

    def test_within_hull_of_active_values(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            values = rng.uniform(-1, 1, n)
            weights = rng.uniform(0, 1, n)
            weights[rng.random(n) < 0.3] = 0.0
            if weights.sum() == 0:
                weights[0] = 0.5
            mean = weighted_mean(WeightedSample(values, weights))
            active = values[weights > 0]
            assert active.min() - 1e-12 <= mean <= active.max() + 1e-12

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            values = rng.uniform(-1, 1, n)
            weights = rng.uniform(0.01, 1, n)
            lam = float(rng.uniform(0.1, 9.0))
            s1 = WeightedSample(values, weights)
            s2 = WeightedSample(values, weights * lam)
            assert weighted_mean(s2) == pytest.approx(weighted_mean(s1), abs=1e-12)
            assert weighted_std(s2) == pytest.approx(weighted_std(s1), abs=1e-12)

    def test_power_of_two_scaling_is_exact(self):
        s1 = WeightedSample(VALUES, W_TOPIC1)
        s2 = WeightedSample(VALUES, tuple(4.0 * w for w in W_TOPIC1))
        assert weighted_mean(s1) == weighted_mean(s2)
        assert weighted_std(s1) == weighted_std(s2)


class TestWeightedStd:
    def test_worked_example_against_recompute(self):
        mean, sigma = spreadsheet_weighted_stats(VALUES, W_TOPIC1)
        assert mean == pytest.approx(0.315, abs=1e-12)
        assert sigma == pytest.approx(SIGMA_TOPIC1, abs=1e-15)
        assert weighted_std(WeightedSample(VALUES, W_TOPIC1)) == pytest.approx(sigma, abs=1e-15)
        assert abs(sigma - 0.325250) < 1e-6

    def test_matches_recompute_on_random_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            values = rng.uniform(-1, 1, n)
            weights = rng.uniform(0.01, 1, n)
            _, expected = spreadsheet_weighted_stats(list(values), list(weights))
            got = weighted_std(WeightedSample(values, weights))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_variance(self):
        assert weighted_std(WeightedSample([0.4, 0.4, 0.4], [0.2, 0.5, 0.3])) == 0.0

    def test_single_active_weight_is_zero_by_convention(self):
        assert weighted_std(WeightedSample([0.9, -0.3], [1.0, 0.0])) == 0.0


class TestBuildTfn:
    def test_worked_example(self):
        t = build_tfn(0.315, SIGMA_TOPIC1, 1.0)
        assert t.m == 0.315
        assert t.a == pytest.approx(-0.010250, abs=1e-6)
        assert t.b == pytest.approx(0.640250, abs=1e-6)
        assert (t.m - t.a) == pytest.approx(t.b - t.m, abs=1e-12)

    def test_zero_sigma_degenerate(self):
        t = build_tfn(0.2, 0.0)
        assert (t.a, t.m, t.b) == (0.2, 0.2, 0.2)
        assert t.is_degenerate

    def test_scale_doubles_half_width(self):
        t1 = build_tfn(0.1, 0.3, 1.0)
        t2 = build_tfn(0.1, 0.3, 2.0)
        assert t2.m == t1.m
        assert (t2.b - t2.m) == pytest.approx(2 * (t1.b - t1.m), abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_tfn(0.0, -0.1)
        with pytest.raises(ValueError):
            build_tfn(0.0, 0.1, 0.0)

    def test_tfn_ordering_enforced(self):
        with pytest.raises(ValueError):
            TFN(1.0, 0.5, 2.0)


class TestMembership:
    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 1.0), (0.5, 0.5), (3.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (2.0, 0.0), (1.5, 0.5)],
    )
    def test_standard_triangle(self, x, expected):
        assert tfn_membership(TFN(0.0, 1.0, 2.0), x) == expected

    def test_degenerate_is_indicator(self):
        t = TFN(0.3, 0.3, 0.3)
        assert tfn_membership(t, 0.3) == 1.0
        assert tfn_membership(t, 0.3000001) == 0.0

    def test_half_degenerate_legs(self):
        left = TFN(0.0, 0.0, 1.0)
        assert tfn_membership(left, 0.0) == 1.0
        assert tfn_membership(left, 0.5) == 0.5
        right = TFN(-1.0, 0.0, 0.0)
        assert tfn_membership(right, 0.0) == 1.0
        assert tfn_membership(right, -0.5) == 0.5


class TestOpinionConcept:
    def test_positive_ramp_shape(self):
        c = OpinionConcept.positive(0.2)
        assert c.membership(-0.5) == 0.0
        assert c.membership(0.0) == 0.0
        assert c.membership(0.1) == pytest.approx(0.5)
        assert c.membership(0.2) == 1.0
        assert c.membership(0.9) == 1.0

    def test_negative_is_mirror(self):
        pos = OpinionConcept.positive(0.2)
        neg = OpinionConcept.negative(0.2)
        for x in (-0.9, -0.2, -0.1, 0.0, 0.1, 0.2, 0.9):
            assert neg.membership(x) == pos.membership(-x)

    def test_invalid(self):
        with pytest.raises(ValueError):
            OpinionConcept("meh", 0.2)
        with pytest.raises(ValueError):
            OpinionConcept.positive(0.0)


class TestPossibility:
    def test_core_past_plateau(self):
        t = TFN(0.3, 0.5, 0.7)
        assert possibility(t, OpinionConcept.positive(0.2)) == 1.0
        assert possibility(t, OpinionConcept.negative(0.2)) == 0.0

    def test_symmetric_straddle(self):
        t = TFN(-0.2, 0.0, 0.2)
        assert possibility(t, OpinionConcept.positive(0.2)) == pytest.approx(0.5, abs=1e-12)
        assert possibility(t, OpinionConcept.negative(0.2)) == pytest.approx(0.5, abs=1e-12)
        assert grid_possibility(-0.2, 0.0, 0.2, "positive", 0.2) == pytest.approx(0.5, abs=1e-3)

    def test_worked_example_tfn(self):
        t = build_tfn(0.315, SIGMA_TOPIC1, 1.0)
        pos = possibility(t, OpinionConcept.positive(0.2))
        neg = possibility(t, OpinionConcept.negative(0.2))
        assert pos == 1.0
        assert neg == pytest.approx(NEGATIVITY_TOPIC1, abs=1e-12)
        assert pos == pytest.approx(grid_possibility(t.a, t.m, t.b, "positive", 0.2), abs=1e-4)
        assert neg == pytest.approx(grid_possibility(t.a, t.m, t.b, "negative", 0.2), abs=1e-4)

    def test_degenerate_reduces_to_concept_membership(self):
        for m in (-0.5, -0.2, 0.0, 0.05, 0.1, 0.2, 0.7):
            t = TFN(m, m, m)
            for concept in (OpinionConcept.positive(0.2), OpinionConcept.negative(0.2)):
                assert possibility(t, concept) == pytest.approx(concept.membership(m), abs=1e-15)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = random_tfn(rng)
            for ramp in (0.1, 0.2, 0.5):
                for kind, concept in (
                    ("positive", OpinionConcept.positive(ramp)),
                    ("negative", OpinionConcept.negative(ramp)),
                ):
                    closed = possibility(t, concept)
                    brute = grid_possibility(t.a, t.m, t.b, kind, ramp)
                    assert abs(closed - brute) <= 1e-3

    def test_range_property(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            t = random_tfn(rng, -3, 3)
            ramp = float(rng.uniform(0.05, 1.0))
            for concept in (OpinionConcept.positive(ramp), OpinionConcept.negative(ramp)):
                assert 0.0 <= possibility(t, concept) <= 1.0

    def test_plateau_characterization(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            t = random_tfn(rng)
            if t.is_degenerate:
                continue
            ramp = float(rng.choice([0.1, 0.2, 0.5]))
            assert (possibility(t, OpinionConcept.positive(ramp)) == 1.0) == (t.m >= ramp)
            assert (possibility(t, OpinionConcept.negative(ramp)) == 1.0) == (t.m <= -ramp)

    def test_translation_monotonicity(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            t = random_tfn(rng)
            delta = float(rng.uniform(0.001, 1.0))
            shifted = TFN(t.a + delta, t.m + delta, t.b + delta)
            assert possibility(shifted, OpinionConcept.positive(0.2)) >= possibility(
                t, OpinionConcept.positive(0.2)
            ) - 1e-12
            assert possibility(shifted, OpinionConcept.negative(0.2)) <= possibility(
                t, OpinionConcept.negative(0.2)
            ) + 1e-12

    def test_mirror_swaps_components(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            t = random_tfn(rng)
            c = conformity(t, 0.2)
            mirrored = conformity(t.mirrored(), 0.2)
            assert mirrored.positivity == c.negativity
            assert mirrored.negativity == c.positivity


class TestConformity:
    def test_degenerate_at_zero(self):
        assert conformity(TFN(0.0, 0.0, 0.0), 0.2) == ConformityTuple(0.0, 0.0)

    def test_degenerate_at_ramp(self):
        assert conformity(TFN(0.2, 0.2, 0.2), 0.2) == ConformityTuple(1.0, 0.0)

    def test_symmetric_tfn_has_equal_components(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            half = float(rng.uniform(0.01, 1.2))
            t = TFN(-half, 0.0, half)
            c = conformity(t, 0.2)
            assert c.positivity == c.negativity


class TestScaleMonotonicity:
    def test_larger_scale_widens_support_and_conformity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            core = float(rng.uniform(-1, 1))
            sigma = float(rng.uniform(0.0, 0.8))
            s_small = float(rng.uniform(0.2, 2.0))
            s_large = s_small + float(rng.uniform(0.01, 2.0))
            t1 = build_tfn(core, sigma, s_small)
            t2 = build_tfn(core, sigma, s_large)
            assert t2.a <= t1.a and t2.b >= t1.b
            c1 = conformity(t1, 0.2)
            c2 = conformity(t2, 0.2)
            assert c2.positivity >= c1.positivity - 1e-12
            assert c2.negativity >= c1.negativity - 1e-12


class TestAggregateTopic:
    def test_worked_example_chain(self):
        tfn, conf = aggregate_topic(VALUES, W_TOPIC1, post_weights=(1.0, 1.0, 1.0))
        assert tfn.m == pytest.approx(0.315, abs=1e-12)
        assert tfn.a == pytest.approx(-0.010250, abs=1e-6)
        assert tfn.b == pytest.approx(0.640250, abs=1e-6)
        assert conf.positivity == pytest.approx(1.0, abs=1e-12)
        assert conf.negativity == pytest.approx(NEGATIVITY_TOPIC1, abs=1e-12)

    def test_zero_variance_sample(self):
        tfn, conf = aggregate_topic([0.5, 0.5, 0.5], [0.2, 0.3, 0.5])
        assert (tfn.a, tfn.m, tfn.b) == (0.5, 0.5, 0.5)
        assert conf == ConformityTuple(1.0, 0.0)

    def test_single_active_weight_degenerates_to_survivor(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            values = [float(v) for v in rng.uniform(-1, 1, n)]
            column = [0.0] * n
            j = int(rng.integers(0, n))
            column[j] = float(rng.uniform(0.1, 1.0))
            tfn, _ = aggregate_topic(values, column)
            assert tfn.a == tfn.m == tfn.b == pytest.approx(values[j], abs=1e-12)

    def test_post_weights_multiply_distribution_column(self):
        # Doubling one post's engagement weight must match doubling its column entry.
        values = (0.8, -0.4)
        via_weights, _ = aggregate_topic(values, (0.5, 0.5), post_weights=(2.0, 1.0))
        via_column, _ = aggregate_topic(values, (1.0, 0.5), post_weights=(1.0, 1.0))
        assert via_weights == via_column

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            aggregate_topic([0.1, 0.2], [0.0, 0.0])

    @pytest.mark.parametrize(
        "polarities,column,post_weights",
        [
            ([0.1, float("nan")], [0.5, 0.5], None),
            ([0.1, float("inf")], [0.5, 0.5], None),
            ([0.1, 0.2], [0.5, float("nan")], None),
            ([0.1, 0.2], [0.5, float("inf")], None),
            ([0.1, 0.2], [0.5, 0.5], [1.0, float("nan")]),
            ([0.1, 0.2], [0.5, 0.5], [1.0, float("inf")]),
        ],
        ids=["nan-value", "inf-value", "nan-weight", "inf-weight",
             "nan-post-weight", "inf-post-weight"],
    )
    def test_non_finite_rejected(self, polarities, column, post_weights):
        with pytest.raises(ValueError, match="finite"):
            aggregate_topic(polarities, column, post_weights)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_topic([0.1, 0.2], [0.5, 0.5], post_weights=(1.0,))


POLARITY = st.floats(-1.0, 1.0)
WEIGHT = st.floats(1e-6, 1e6)
SCALE = st.floats(0.1, 5.0)
# The possibility b / (p + b - m) can change by up to 1/p per unit change of
# the TFN, so a ramp p near 0 would magnify last-bit differences past 1e-12.
RAMP = st.floats(0.05, 1.0)


@st.composite
def weighted_samples(draw, single_active=False):
    """(values, dist_column, post_weights) with at least one positive weight."""
    n = draw(st.integers(1, 60))
    values = draw(st.lists(POLARITY, min_size=n, max_size=n))
    if single_active:
        column = [0.0] * n
    else:
        column = draw(st.lists(st.just(0.0) | WEIGHT, min_size=n, max_size=n))
    if not any(column):
        column[draw(st.integers(0, n - 1))] = draw(WEIGHT)
    post_weights = draw(st.none() | st.lists(st.floats(1.0, 100.0), min_size=n, max_size=n))
    return values, column, post_weights


def fsum_reference(values, column, post_weights, scale, ramp):
    """The exactly rounded chain: WeightedSample, weighted_mean, weighted_std."""
    weights = column if post_weights is None else [d * w for d, w in zip(column, post_weights)]
    sample = WeightedSample(values, weights)
    tfn = build_tfn(weighted_mean(sample), weighted_std(sample), scale)
    return tfn, conformity(tfn, ramp), weights


def assert_same_result(got, want, tol=1e-12):
    (tfn, conf), (ref_tfn, ref_conf) = got, want
    assert tfn.a == pytest.approx(ref_tfn.a, abs=tol)
    assert tfn.m == pytest.approx(ref_tfn.m, abs=tol)
    assert tfn.b == pytest.approx(ref_tfn.b, abs=tol)
    assert conf.positivity == pytest.approx(ref_conf.positivity, abs=tol)
    assert conf.negativity == pytest.approx(ref_conf.negativity, abs=tol)


class TestAggregateTopicProperties:
    """The numpy aggregation against the fsum references and the oracle."""

    @settings(deadline=None)
    @given(weighted_samples(), SCALE, RAMP)
    def test_matches_fsum_reference_and_oracle(self, sample, scale, ramp):
        values, column, post_weights = sample
        got = aggregate_topic(values, column, post_weights, scale=scale, ramp=ramp)
        ref_tfn, ref_conf, weights = fsum_reference(values, column, post_weights, scale, ramp)
        assert_same_result(got, (ref_tfn, ref_conf))
        mean, sigma = spreadsheet_weighted_stats(values, weights)
        assert got[0].m == pytest.approx(mean, abs=1e-12)
        assert got[0].b - got[0].m == pytest.approx(scale * sigma, abs=1e-12)

    @settings(deadline=None)
    @given(weighted_samples(single_active=True), SCALE, RAMP)
    def test_single_active_weight_matches_reference(self, sample, scale, ramp):
        values, column, post_weights = sample
        got = aggregate_topic(values, column, post_weights, scale=scale, ramp=ramp)
        ref_tfn, ref_conf, _ = fsum_reference(values, column, post_weights, scale, ramp)
        assert_same_result(got, (ref_tfn, ref_conf))
        assert got[0].is_degenerate

    @settings(deadline=None)
    @given(weighted_samples(), st.floats(1e-3, 1e3), SCALE, RAMP)
    def test_weight_scaling_leaves_tfn_unchanged(self, sample, lam, scale, ramp):
        values, column, post_weights = sample
        base = aggregate_topic(values, column, post_weights, scale=scale, ramp=ramp)
        scaled_column = [lam * d for d in column]
        scaled = aggregate_topic(values, scaled_column, post_weights, scale=scale, ramp=ramp)
        assert_same_result(scaled, base)
