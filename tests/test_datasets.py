"""Tests for the dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.cartel import (
    CartelConfig,
    RoadSegment,
    congestion_query,
    generate_cartel_area,
    generate_measurements,
    segments_to_table,
)
from repro.datasets.soldier import generate_soldier_table, soldier_table
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)
from repro.exceptions import DatasetError


class TestSoldier:
    def test_figure_1_shape(self):
        t = soldier_table()
        assert len(t) == 7
        assert t.explicit_rules == (("T2", "T4", "T7"), ("T3", "T6"))

    def test_figure_1_values(self):
        t = soldier_table()
        assert t["T7"]["score"] == 125
        assert t["T7"].probability == pytest.approx(0.3)
        assert t["T5"].probability == pytest.approx(1.0)

    def test_generator_reproducible(self):
        a = generate_soldier_table(10, seed=1)
        b = generate_soldier_table(10, seed=1)
        assert [t.tid for t in a] == [t.tid for t in b]
        assert [t.probability for t in a] == [t.probability for t in b]

    def test_generator_group_masses_legal(self):
        t = generate_soldier_table(30, seed=2)
        t.validate()
        for rule in t.explicit_rules:
            mass = sum(t[tid].probability for tid in rule)
            assert mass <= 1.0 + 1e-9

    def test_generator_one_group_per_soldier(self):
        t = generate_soldier_table(20, seed=3)
        for rule in t.explicit_rules:
            owners = {t[tid]["soldier"] for tid in rule}
            assert len(owners) == 1

    def test_invalid_args(self):
        with pytest.raises(DatasetError):
            generate_soldier_table(0)
        with pytest.raises(DatasetError):
            generate_soldier_table(5, readings_per_soldier=(3, 2))


def _binned(delays, bins):
    """(delay, probability) of the tuples one segment's delays bin into."""
    segment = RoadSegment(0, 1000.0, 50.0, tuple(delays))
    table = segments_to_table([segment], bins=bins)
    return [(t["delay"], t.probability) for t in table]


class TestCartelBinning:
    def test_single_sample(self):
        assert _binned([5.0], 4) == [(5.0, 1.0)]

    def test_identical_samples(self):
        assert _binned([5.0, 5.0, 5.0], 4) == [(5.0, 1.0)]

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.gamma(2.0, 10.0, size=50).tolist()
        bins = _binned(samples, 4)
        assert sum(p for _, p in bins) == pytest.approx(1.0)
        assert 1 <= len(bins) <= 4

    def test_bin_values_are_sample_means(self):
        bins = _binned([1.0, 2.0, 9.0, 10.0], 2)
        assert bins == [
            (pytest.approx(1.5), 0.5),
            (pytest.approx(9.5), 0.5),
        ]

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            _binned([], 4)


class TestCartelGeneration:
    def test_reproducible(self):
        a = generate_cartel_area(seed=5)
        b = generate_cartel_area(seed=5)
        assert [t.tid for t in a] == [t.tid for t in b]

    def test_me_groups_per_segment(self):
        t = generate_cartel_area(seed=5)
        for rule in t.explicit_rules:
            segments = {t[tid]["segment_id"] for tid in rule}
            assert len(segments) == 1

    def test_group_masses_saturated(self):
        # Binning frequencies sum to 1: every multi-bin group is
        # saturated (some reading is always correct).
        t = generate_cartel_area(seed=5)
        for rule in t.explicit_rules:
            mass = sum(t[tid].probability for tid in rule)
            assert mass == pytest.approx(1.0)

    def test_me_fraction_tracks_config(self):
        low = generate_cartel_area(
            config=CartelConfig(multi_measurement_fraction=0.1), seed=6
        )
        high = generate_cartel_area(
            config=CartelConfig(multi_measurement_fraction=0.9), seed=6
        )
        assert low.me_tuple_fraction() < high.me_tuple_fraction()

    def test_segment_attributes_present(self):
        t = generate_cartel_area(seed=7)
        for item in t:
            assert {"segment_id", "length", "speed_limit", "delay"} <= set(
                item.keys()
            )

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            CartelConfig(segments=0).validate()
        with pytest.raises(DatasetError):
            CartelConfig(measurements_range=(5, 2)).validate()
        with pytest.raises(DatasetError):
            CartelConfig(multi_measurement_fraction=1.5).validate()

    def test_free_flow_delay(self):
        seg = RoadSegment(1, 1000.0, 36.0, (50.0,))
        assert seg.free_flow_delay() == pytest.approx(100.0)

    def test_segments_to_table_counts(self):
        rng = np.random.default_rng(8)
        segments = generate_measurements(CartelConfig(segments=20), rng)
        table = segments_to_table(segments, bins=4)
        assert len({t["segment_id"] for t in table}) == 20

    def test_congestion_query_text(self):
        sql = congestion_query(7, c=4)
        assert "LIMIT 7" in sql
        assert "WITH TYPICAL 4" in sql


class TestSynthetic:
    def test_reproducible(self):
        a = generate_synthetic_table(seed=1)
        b = generate_synthetic_table(seed=1)
        assert [t.probability for t in a] == [t.probability for t in b]

    def test_size(self):
        t = generate_synthetic_table(SyntheticConfig(tuples=50), seed=2)
        assert len(t) == 50

    def test_probabilities_clipped(self):
        t = generate_synthetic_table(seed=3)
        for item in t:
            assert 0.0 < item.probability <= 1.0

    def test_correlation_positive_shifts_scores(self):
        # Empirical check: among high-score tuples, mean probability is
        # higher under rho=0.8 than under rho=-0.8.
        def mean_top_prob(rho):
            config = SyntheticConfig(
                tuples=2000, correlation=rho, me_layout=None
            )
            t = generate_synthetic_table(config, seed=4)
            ranked = sorted(t, key=lambda x: -x["score"])[:200]
            return float(np.mean([x.probability for x in ranked]))

        assert mean_top_prob(0.8) > mean_top_prob(0.0) > mean_top_prob(-0.8)

    def test_me_group_sizes_respected(self):
        layout = MEGroupLayout(size_range=(2, 4), gap_range=(1, 3))
        config = SyntheticConfig(tuples=200, me_layout=layout)
        t = generate_synthetic_table(config, seed=5)
        assert t.explicit_rules  # some groups exist
        for rule in t.explicit_rules:
            assert 2 <= len(rule) <= 4

    def test_me_group_masses_legal(self):
        config = SyntheticConfig(
            tuples=300,
            me_layout=MEGroupLayout(size_range=(2, 8), gap_range=(1, 4)),
        )
        t = generate_synthetic_table(config, seed=6)
        t.validate()

    def test_gap_range_respected(self):
        layout = MEGroupLayout(size_range=(2, 2), gap_range=(5, 9))
        config = SyntheticConfig(tuples=400, me_layout=layout)
        t = generate_synthetic_table(config, seed=7)
        # tids are T<rank> in score order: gaps measurable directly.
        for rule in t.explicit_rules:
            ranks = sorted(int(tid[1:]) for tid in rule)
            gap = ranks[1] - ranks[0]
            assert gap >= 5  # may exceed 9 when sliding past occupied

    def test_no_me_layout(self):
        config = SyntheticConfig(me_layout=None)
        t = generate_synthetic_table(config, seed=8)
        assert t.explicit_rules == ()

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            SyntheticConfig(tuples=0).validate()
        with pytest.raises(DatasetError):
            SyntheticConfig(correlation=1.5).validate()
        with pytest.raises(DatasetError):
            SyntheticConfig(prob_floor=0.0).validate()
        with pytest.raises(DatasetError):
            MEGroupLayout(size_range=(1, 3)).validate()
        with pytest.raises(DatasetError):
            MEGroupLayout(gap_range=(0, 3)).validate()
        with pytest.raises(DatasetError):
            MEGroupLayout(fraction=-0.1).validate()
