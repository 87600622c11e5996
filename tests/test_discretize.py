"""Tests for the discretization (binning) strategies."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.uncertain.discretize import (
    Bin,
    STRATEGIES,
    equal_depth_bins,
    equal_width_bins,
    k_medians_bins,
    measurements_to_table,
)


ALL_STRATEGIES = sorted(STRATEGIES)


class TestCommonProperties:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_probabilities_sum_to_one(self, name):
        rng = np.random.default_rng(1)
        samples = rng.gamma(2.0, 5.0, size=40).tolist()
        bins = STRATEGIES[name](samples, 5)
        assert sum(b.probability for b in bins) == pytest.approx(1.0)
        assert 1 <= len(bins) <= 5

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_single_sample(self, name):
        for value in (3.5, 5.0):
            assert STRATEGIES[name]([value], 4) == [Bin(value, 1.0)]

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_identical_samples_collapse(self, name):
        for samples in ([2.0] * 10, [5.0] * 3):
            assert STRATEGIES[name](samples, 4) == [Bin(samples[0], 1.0)]

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_values_within_sample_range(self, name):
        rng = np.random.default_rng(2)
        samples = rng.uniform(10, 20, size=30).tolist()
        for b in STRATEGIES[name](samples, 4):
            assert 10 <= b.value <= 20

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_mean_preserved(self, name):
        # Bin values are conditional means, so the weighted mean of the
        # bins equals the sample mean for every strategy.
        rng = np.random.default_rng(3)
        samples = rng.normal(50, 10, size=64).tolist()
        bins = STRATEGIES[name](samples, 6)
        reconstructed = sum(b.value * b.probability for b in bins)
        assert reconstructed == pytest.approx(np.mean(samples))

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_empty_rejected(self, name):
        for bins in (1, 4):
            with pytest.raises(DatasetError, match="empty"):
                STRATEGIES[name]([], bins)

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_nan_rejected(self, name):
        with pytest.raises(DatasetError):
            STRATEGIES[name]([1.0, float("nan")], 4)

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_invalid_bin_count(self, name):
        with pytest.raises(DatasetError):
            STRATEGIES[name]([1.0], 0)


class TestEqualWidth:
    def test_known_split(self):
        assert equal_width_bins([1.0, 2.0, 9.0, 10.0], 2) == [
            Bin(1.5, 0.5),
            Bin(9.5, 0.5),
        ]

    def test_outlier_hogs_range(self):
        # One far outlier: most mass lands in the first bin.
        samples = [1.0, 1.1, 1.2, 1.3, 100.0]
        bins = equal_width_bins(samples, 4)
        assert bins[0].probability == pytest.approx(0.8)


class TestEqualDepth:
    def test_balanced_counts(self):
        samples = list(range(12))
        bins = equal_depth_bins(samples, 4)
        assert [b.probability for b in bins] == pytest.approx([0.25] * 4)

    def test_robust_to_outlier(self):
        samples = [1.0, 1.1, 1.2, 1.3, 100.0]
        bins = equal_depth_bins(samples, 4)
        # No bin may hold more than ~2 of the 5 samples.
        assert max(b.probability for b in bins) <= 0.4 + 1e-9


class TestKMedians:
    def test_two_clusters_found(self):
        samples = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
        bins = k_medians_bins(samples, 2)
        assert len(bins) == 2
        assert bins[0].value == pytest.approx(0.1)
        assert bins[1].value == pytest.approx(10.1)

    def test_segmentation_is_optimal(self):
        # The boundary selection reuses select_typical, whose
        # sample-valued anchors are globally optimal (verified against
        # brute force here); the bin *representatives* are then the
        # segment means, per the paper's binning convention.
        from repro.core.pmf import ScorePMF
        from repro.core.typical import select_typical

        rng = np.random.default_rng(4)
        samples = sorted(rng.uniform(0, 10, size=8).tolist())

        def cost(anchors):
            return sum(min(abs(s - a) for a in anchors) for s in samples)

        best = min(
            cost(pair) for pair in itertools.combinations(samples, 2)
        )
        pmf = ScorePMF((s, 1.0 / len(samples), None) for s in samples)
        anchors = [a.score for a in select_typical(pmf, 2).answers]
        assert cost(anchors) * (1.0 / len(samples)) == pytest.approx(
            best / len(samples)
        )
        # And the produced bins partition the sorted samples into two
        # contiguous runs.
        bins = k_medians_bins(samples, 2)
        assert len(bins) == 2
        assert bins[0].value < bins[1].value

    def test_beats_equal_width_on_clusters(self):
        samples = [0.0, 0.1, 0.2, 5.0, 9.8, 9.9, 10.0]

        def cost(bins):
            anchors = [b.value for b in bins]
            return sum(min(abs(s - a) for a in anchors) for s in samples)

        assert cost(k_medians_bins(samples, 3)) <= cost(
            equal_width_bins(samples, 3)
        ) + 1e-9


class TestMeasurementsToTable:
    def test_one_group_per_entity(self):
        table = measurements_to_table(
            {
                "road1": [1.0, 2.0, 9.0, 10.0],
                "road2": [5.0],
            },
            bins=2,
        )
        assert len(table.explicit_rules) == 1  # road2 has one bin
        for rule in table.explicit_rules:
            entities = {table[tid]["entity"] for tid in rule}
            assert len(entities) == 1

    def test_groups_saturated(self):
        table = measurements_to_table(
            {"e": [1.0, 2.0, 9.0, 10.0]}, bins=2
        )
        gid = table.group_of(table.tids[0])
        assert table.group_mass(gid) == pytest.approx(1.0)

    def test_extra_attributes_copied(self):
        table = measurements_to_table(
            {"e": [1.0, 9.0]},
            bins=2,
            extra_attributes={"e": {"speed_limit": 50}},
        )
        for t in table:
            assert t["speed_limit"] == 50

    def test_strategy_by_name_and_callable(self):
        data = {"e": [1.0, 2.0, 9.0, 10.0]}
        by_name = measurements_to_table(data, bins=2, strategy="equal_depth")
        by_fn = measurements_to_table(
            data, bins=2, strategy=equal_depth_bins
        )
        assert [t.probability for t in by_name] == [
            t.probability for t in by_fn
        ]

    def test_unknown_strategy(self):
        with pytest.raises(DatasetError, match="unknown binning"):
            measurements_to_table({"e": [1.0]}, strategy="magic")

    def test_custom_attribute_names(self):
        table = measurements_to_table(
            {"seg": [3.0]},
            value_attribute="delay",
            entity_attribute="segment_id",
        )
        first = table.tuples[0]
        assert first["delay"] == 3.0
        assert first["segment_id"] == "seg"

    def test_pipeline_to_distribution(self):
        from repro.core.distribution import top_k_score_distribution

        rng = np.random.default_rng(5)
        data = {
            f"e{i}": rng.gamma(2.0, 5.0, size=12).tolist()
            for i in range(8)
        }
        table = measurements_to_table(data, bins=3)
        pmf = top_k_score_distribution(
            table, "value", 3, p_tau=0.0, max_lines=10**6
        )
        assert pmf.total_mass() == pytest.approx(1.0)
