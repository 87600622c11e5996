"""A CarTel-like road-delay simulator (Section 5.1 substitution).

The paper's real-world dataset — travel-delay measurements from the
CarTel vehicular testbed in greater Boston — is proprietary.  This
module generates data of the same *shape* and applies the paper's own
preprocessing:

* an *area* (a city) holds road segments with lognormal lengths and a
  categorical speed limit;
* each segment receives one or more delay measurements; delays follow
  a gamma distribution whose scale grows with the segment's latent
  congestion level, so the derived congestion scores have the heavy
  right tail visible in Figure 8;
* segments with several measurements are *binned* (equi-width over the
  sample range): each bin becomes one uncertain tuple whose value is
  the mean of its samples and whose probability is the bin's relative
  frequency — bins of one segment are mutually exclusive (one ME group
  per segment), exactly as described in Section 5.2.

The congestion score of the paper is computed by the query layer:
``speed_limit / (length / delay)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.uncertain.discretize import equal_width_bins
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import UncertainTable

#: Speed limits (km/h) found on urban/suburban road networks.
DEFAULT_SPEED_LIMITS = (30.0, 40.0, 50.0, 60.0, 80.0, 100.0)


@dataclass(frozen=True)
class CartelConfig:
    """Knobs of the simulated area.

    :ivar segments: number of road segments.
    :ivar measurements_range: inclusive (min, max) measurements per
        segment; segments with one measurement yield a single
        certain-score tuple with probability 1.
    :ivar bins: maximum number of equi-width bins per segment (the ME
        group size cap).
    :ivar length_lognorm: (mean, sigma) of the underlying normal for
        segment length in meters.
    :ivar congestion_shape: gamma shape of the delay distribution.
    :ivar speed_limits: categorical speed-limit choices (km/h).
    :ivar multi_measurement_fraction: fraction of segments that get
        multiple measurements (and hence become ME groups) — the knob
        behind Figure 11's "ME tuple portion".
    """

    segments: int = 120
    measurements_range: tuple[int, int] = (4, 24)
    bins: int = 4
    length_lognorm: tuple[float, float] = (6.2, 0.7)
    congestion_shape: float = 2.0
    speed_limits: Sequence[float] = field(default=DEFAULT_SPEED_LIMITS)
    multi_measurement_fraction: float = 0.75

    def validate(self) -> None:
        """Raise :class:`DatasetError` on inconsistent settings."""
        if self.segments < 1:
            raise DatasetError(f"segments must be >= 1, got {self.segments}")
        low, high = self.measurements_range
        if not 1 <= low <= high:
            raise DatasetError(
                f"bad measurements_range {self.measurements_range!r}"
            )
        if self.bins < 1:
            raise DatasetError(f"bins must be >= 1, got {self.bins}")
        if not 0.0 <= self.multi_measurement_fraction <= 1.0:
            raise DatasetError(
                "multi_measurement_fraction must be within [0, 1], got "
                f"{self.multi_measurement_fraction!r}"
            )


@dataclass(frozen=True)
class RoadSegment:
    """One simulated road segment with its raw delay samples.

    :ivar segment_id: identifier within the area.
    :ivar length: segment length in meters.
    :ivar speed_limit: speed limit in km/h.
    :ivar delays: raw delay measurements in seconds.
    """

    segment_id: int
    length: float
    speed_limit: float
    delays: tuple[float, ...]

    def free_flow_delay(self) -> float:
        """Delay at the speed limit, in seconds."""
        return self.length / (self.speed_limit / 3.6)


def generate_measurements(
    config: CartelConfig,
    rng: np.random.Generator,
) -> list[RoadSegment]:
    """Simulate the raw measurement log of one area."""
    config.validate()
    segments: list[RoadSegment] = []
    low, high = config.measurements_range
    for segment_id in range(config.segments):
        mean, sigma = config.length_lognorm
        length = float(rng.lognormal(mean, sigma))
        speed_limit = float(rng.choice(np.asarray(config.speed_limits)))
        # Latent congestion level: most segments flow freely, a few are
        # badly congested (heavy right tail).
        congestion = float(rng.lognormal(0.3, 0.8))
        free_flow = length / (speed_limit / 3.6)
        if rng.random() < config.multi_measurement_fraction:
            count = int(rng.integers(low, high + 1))
        else:
            count = 1
        delays = free_flow * (
            1.0
            + rng.gamma(config.congestion_shape, congestion / 2.0, size=count)
        )
        segments.append(
            RoadSegment(
                segment_id,
                round(length, 1),
                speed_limit,
                tuple(round(float(d), 2) for d in delays),
            )
        )
    return segments


def segments_to_table(
    segments: Sequence[RoadSegment],
    *,
    bins: int = 4,
    name: str = "area",
) -> UncertainTable:
    """Bin every segment's measurements into an uncertain table.

    Each non-empty bin becomes one tuple carrying ``segment_id``,
    ``length``, ``speed_limit`` and the bin-mean ``delay``; bins of the
    same segment form one ME group (probabilities sum to 1, so the
    group is saturated — some reading is always correct).
    """
    tuples: list[UncertainTuple] = []
    rules: list[tuple[str, ...]] = []
    for segment in segments:
        members: list[str] = []
        for index, (delay, prob) in enumerate(
            equal_width_bins(segment.delays, bins)
        ):
            tid = f"s{segment.segment_id}b{index}"
            tuples.append(
                UncertainTuple(
                    tid,
                    {
                        "segment_id": segment.segment_id,
                        "length": segment.length,
                        "speed_limit": segment.speed_limit,
                        "delay": delay,
                    },
                    prob,
                )
            )
            members.append(tid)
        if len(members) > 1:
            rules.append(tuple(members))
    return UncertainTable(tuples, rules, name=name)


def generate_cartel_area(
    *,
    config: CartelConfig | None = None,
    seed: int | np.random.Generator | None = None,
    name: str = "area",
) -> UncertainTable:
    """End-to-end: simulate one area and bin it into an uncertain table.

    >>> table = generate_cartel_area(seed=7)
    >>> len(table) >= 120
    True
    """
    config = config or CartelConfig()
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    segments = generate_measurements(config, rng)
    return segments_to_table(segments, bins=config.bins, name=name)


#: The congestion-score expression of the paper's CarTel query.
CONGESTION_SCORE_SQL = "speed_limit / (length / delay)"


def congestion_query(k: int, *, c: int = 3, table: str = "area") -> str:
    """The paper's Section-5.2 query text for the query layer."""
    return (
        f"SELECT segment_id, {CONGESTION_SCORE_SQL} AS congestion_score "
        f"FROM {table} ORDER BY congestion_score DESC LIMIT {k} "
        f"WITH TYPICAL {c}"
    )
