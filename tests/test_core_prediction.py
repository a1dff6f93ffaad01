"""Tests for the section-6 loop-probability model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.prediction import (
    LocationFeatures,
    S1LoopPredictor,
    extract_location_features,
    fit_s1e3_model,
    logistic_usage,
    s1e12_probability,
    s1e3_probability,
)
from repro.campaign import build_deployment, device, operator
from repro.campaign.operators import OP_T_PROBLEM_CHANNEL
from repro.radio.geometry import Point

gaps = st.floats(min_value=-40.0, max_value=40.0)
positive_gaps = st.floats(min_value=0.0, max_value=60.0)


class TestModelComponents:
    def test_logistic_usage_half_at_zero_gap(self):
        assert logistic_usage(0.0, k=0.3) == pytest.approx(0.5)

    def test_logistic_usage_saturates(self):
        assert logistic_usage(40.0, k=0.3) > 0.99
        assert logistic_usage(-40.0, k=0.3) < 0.01

    @given(gaps)
    def test_logistic_usage_bounded(self, gap):
        assert 0.0 <= logistic_usage(gap, 0.3) <= 1.0

    @given(gaps)
    def test_logistic_usage_monotone(self, gap):
        assert logistic_usage(gap + 1.0, 0.3) >= logistic_usage(gap, 0.3)

    def test_s1e3_probability_one_at_zero_gap(self):
        assert s1e3_probability(0.0, t=12.0, n=2.0) == pytest.approx(1.0)

    def test_s1e3_probability_zero_beyond_t(self):
        assert s1e3_probability(15.0, t=12.0, n=2.0) == 0.0

    @given(positive_gaps)
    def test_s1e3_probability_bounded(self, gap):
        probability = s1e3_probability(gap, 12.0, 2.0)
        assert 0.0 <= probability <= 1.0

    @given(positive_gaps)
    def test_s1e3_probability_decreasing(self, gap):
        assert s1e3_probability(gap + 1.0, 12.0, 2.0) <= \
            s1e3_probability(gap, 12.0, 2.0)

    @given(st.floats(min_value=-130.0, max_value=-80.0))
    def test_s1e12_probability_decreasing_in_strength(self, rsrp):
        assert s1e12_probability(rsrp + 1.0, -108.0, 4.0) <= \
            s1e12_probability(rsrp, -108.0, 4.0)


class TestPredictor:
    def test_empty_combinations(self):
        assert S1LoopPredictor().predict([]) == 0.0

    def test_prediction_bounded(self):
        predictor = S1LoopPredictor(k=0.5, t=20.0, n=1.0)
        combos = [LocationFeatures(pcell_gap_db=30.0, scell_gap_db=0.0,
                                   worst_scell_rsrp_dbm=-90.0)
                  for _ in range(4)]
        assert 0.0 <= predictor.predict(combos) <= 1.0

    def test_dominant_combination_with_small_gap(self):
        predictor = S1LoopPredictor(k=0.5, t=12.0, n=2.0)
        combos = [LocationFeatures(30.0, 0.5, -90.0)]
        assert predictor.predict(combos) > 0.9

    def test_large_scell_gap_means_low_probability(self):
        predictor = S1LoopPredictor(k=0.5, t=12.0, n=2.0)
        combos = [LocationFeatures(30.0, 35.0, -90.0)]
        assert predictor.predict(combos) < 0.05

    def test_usage_normalisation(self):
        predictor = S1LoopPredictor(k=2.0, t=12.0, n=2.0)
        # Three combinations that would each claim usage ~1.
        combos = [LocationFeatures(30.0, 0.0, -90.0)] * 3
        assert predictor.predict(combos) <= 1.0

    def test_e12_term_raises_probability(self):
        base = S1LoopPredictor(k=0.5, t=12.0, n=2.0, include_e12=False)
        with_e12 = S1LoopPredictor(k=0.5, t=12.0, n=2.0, include_e12=True,
                                   e12_centre_dbm=-105.0, e12_scale_db=3.0)
        combos = [LocationFeatures(30.0, 35.0, -115.0)]
        assert with_e12.predict(combos) > base.predict(combos)


class TestFitting:
    def _synthetic_dataset(self, k=0.4, t=10.0, n=2.0, n_locations=40):
        truth = S1LoopPredictor(k=k, t=t, n=n)
        feature_sets, observed = [], []
        for index in range(n_locations):
            pcell_gap = (index % 9) * 3.0 - 8.0
            scell_gap = (index % 7) * 2.5
            combos = [LocationFeatures(pcell_gap, scell_gap, -95.0),
                      LocationFeatures(-pcell_gap, scell_gap + 4.0, -95.0)]
            feature_sets.append(combos)
            observed.append(truth.predict(combos))
        return feature_sets, observed, truth

    def test_fit_recovers_synthetic_probabilities(self):
        feature_sets, observed, _truth = self._synthetic_dataset()
        model = fit_s1e3_model(feature_sets, observed)
        errors = [abs(model.predict(combos) - target)
                  for combos, target in zip(feature_sets, observed)]
        assert max(errors) < 0.1

    def test_fit_parameters_positive(self):
        feature_sets, observed, _ = self._synthetic_dataset()
        model = fit_s1e3_model(feature_sets, observed)
        assert model.k > 0 and model.t > 0 and model.n > 0

    def test_fit_with_e12_term(self):
        feature_sets, observed, _ = self._synthetic_dataset()
        model = fit_s1e3_model(feature_sets, observed, include_e12=True)
        assert model.include_e12

    @pytest.mark.parametrize("include_e12", [False, True])
    def test_fitted_parameters_are_plain_floats(self, include_e12):
        feature_sets, observed, _ = self._synthetic_dataset()
        model = fit_s1e3_model(feature_sets, observed,
                               include_e12=include_e12)
        for name in ("k", "t", "n", "e12_centre_dbm", "e12_scale_db"):
            assert type(getattr(model, name)) is float, name

    def test_fit_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            fit_s1e3_model([[]], [0.1, 0.2])

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_s1e3_model([], [])


class TestFeatureExtraction:
    @pytest.fixture(scope="class")
    def deployment(self):
        return build_deployment(operator("OP_T"), "A1")

    def test_features_extracted_at_covered_location(self, deployment):
        profile = operator("OP_T")
        features = extract_location_features(
            deployment.environment, profile.policy, device("OnePlus 12R"),
            Point(800.0, 800.0), OP_T_PROBLEM_CHANNEL)
        assert features
        for combo in features:
            assert combo.scell_gap_db >= 0.0
            assert math.isfinite(combo.pcell_gap_db)
            assert combo.worst_scell_rsrp_dbm < -40.0

    def test_no_features_outside_coverage(self, deployment):
        profile = operator("OP_T")
        features = extract_location_features(
            deployment.environment, profile.policy, device("OnePlus 12R"),
            Point(50_000.0, 50_000.0), OP_T_PROBLEM_CHANNEL)
        assert features == []

    def test_no_ca_device_has_no_scell_feature(self, deployment):
        profile = operator("OP_T")
        features = extract_location_features(
            deployment.environment, profile.policy, device("Pixel 5"),
            Point(800.0, 800.0), OP_T_PROBLEM_CHANNEL)
        for combo in features:
            assert combo.scell_gap_db == pytest.approx(40.0)  # no competitor
