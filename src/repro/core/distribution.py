"""Public facade: score distributions and typical answers in one call.

These are the two entities the paper proposes returning to
applications (Section 2.2):

* :func:`top_k_score_distribution` — the distribution of top-k total
  scores, at any precision (histogram access lives on the returned
  :class:`~repro.core.pmf.ScorePMF`);
* :func:`c_typical_top_k` — the c-Typical-Topk answers drawn from it.

Both accept an :class:`~repro.uncertain.table.UncertainTable` plus a
scoring function (or the name of a numeric attribute), apply the
Theorem-2 scan-depth truncation, and dispatch to the selected
algorithm.
"""

from __future__ import annotations

from typing import Union

from repro.core.dp import DEFAULT_MAX_LINES
from repro.core.pmf import ScorePMF
from repro.core.scan_depth import scan_depth
from repro.core.typical import TypicalResult, select_typical
from repro.exceptions import AlgorithmError, InvalidProbabilityError
from repro.uncertain.scoring import ScoredTable, Scorer, attribute_scorer
from repro.uncertain.table import UncertainTable

#: Default probability threshold; the paper's experiments use 0.001.
DEFAULT_P_TAU = 1e-3

#: The algorithms of Section 3, by name.  ``"dp"`` is the shared-prefix
#: O(kmn) engine; its ablation twins live in :mod:`repro.bench.ablations`.
ALGORITHMS = ("dp", "state_expansion", "k_combo")

#: A scorer argument: a callable, or the name of a numeric attribute.
ScorerLike = Union[Scorer, str]


def resolve_scorer(scorer: ScorerLike) -> Scorer:
    """Turn a scorer-like argument into a scoring callable."""
    if callable(scorer):
        return scorer
    if isinstance(scorer, str):
        return attribute_scorer(scorer)
    raise AlgorithmError(
        f"scorer must be callable or an attribute name, got {scorer!r}"
    )


def storage_pushdown_view(
    table: UncertainTable, scorer: ScorerLike
) -> ScoredTable | None:
    """The table's packed rank order, when pushdown is sound.

    Disk-backed tables (:class:`repro.storage.table.DiskBackedTable`)
    expose a ``lazy_scored(scorer)`` hook returning their
    :class:`ScoredTable` over the packed columns, which serves
    rank-ordered prefixes without materializing the relation — but
    only when the query ranks by the attribute the table was packed
    on.  Ordinary tables (no hook) and mismatched scorers return
    ``None``: the caller scores and sorts residently.
    """
    hook = getattr(table, "lazy_scored", None)
    return hook(scorer) if hook is not None else None


def prepare_scored_prefix(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    *,
    p_tau: float = DEFAULT_P_TAU,
    depth: int | None = None,
) -> ScoredTable:
    """Score, rank-order and truncate a table for the algorithms.

    Disk-backed tables packed on ``scorer`` are served by pushdown:
    the Theorem-2 scan walks the stored rank order page by page and
    only the resulting prefix is materialized — I/O is O(depth), not
    O(table).  The returned prefix is byte-identical either way.

    :param depth: explicit scan depth override; when ``None`` the
        Theorem-2 depth for ``(k, p_tau)`` is used.
    """
    if not 0.0 <= p_tau < 1.0:
        raise InvalidProbabilityError(
            f"p_tau must be in [0, 1), got {p_tau!r}"
        )
    scored = storage_pushdown_view(table, scorer)
    if scored is None:
        scored = ScoredTable.from_table(table, resolve_scorer(scorer))
    if depth is None:
        depth = scan_depth(scored, k, p_tau) if p_tau > 0.0 else len(scored)
    if depth < 0:
        raise AlgorithmError(f"scan depth must be >= 0, got {depth}")
    return scored.prefix(min(depth, len(scored)))


def top_k_score_distribution(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    *,
    p_tau: float = DEFAULT_P_TAU,
    max_lines: int = DEFAULT_MAX_LINES,
    algorithm: str = "dp",
    depth: int | None = None,
) -> ScorePMF:
    """Distribution of the total scores of top-k tuple vectors.

    :param table: the uncertain table.
    :param scorer: scoring function or numeric attribute name; may be
        non-injective (ties are handled per Section 3.4).
    :param k: number of tuples per top-k vector (>= 1).
    :param p_tau: probability threshold of Theorem 2: top-k vectors
        with probability below it may be dropped.  Set to ``0`` to scan
        the full table (exact distribution).
    :param max_lines: line-coalescing budget (Section 3.2.1).
    :param algorithm: ``"dp"`` (the main algorithm), the baselines
        ``"state_expansion"`` / ``"k_combo"``, or ``"auto"`` to let
        the planner pick from the problem shape.
    :param depth: explicit scan-depth override (mostly for ablations).
    :returns: a :class:`~repro.core.pmf.ScorePMF`; its lines carry the
        most probable vector per score.

    >>> from repro.datasets.soldier import soldier_table
    >>> pmf = top_k_score_distribution(soldier_table(), "score", 2, p_tau=0)
    >>> round(pmf.expectation(), 1)
    164.1
    """
    # Thin wrapper over the staged planner of :mod:`repro.api`
    # (imported lazily: the api package builds on this module).
    from repro.api.plan import distribution_from_prefix
    from repro.api.spec import QuerySpec

    spec = QuerySpec(
        table=table,
        scorer=scorer,
        k=k,
        semantics="distribution",
        p_tau=p_tau,
        max_lines=max_lines,
        algorithm=algorithm,
        depth=depth,
    )
    prefix = prepare_scored_prefix(table, scorer, k, p_tau=p_tau, depth=depth)
    return distribution_from_prefix(prefix, spec)


def c_typical_top_k(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    c: int,
    *,
    p_tau: float = DEFAULT_P_TAU,
    max_lines: int = DEFAULT_MAX_LINES,
    algorithm: str = "dp",
    depth: int | None = None,
) -> TypicalResult:
    """The c-Typical-Topk answers (Definitions 1 and 2).

    Computes the score distribution, then selects the c scores
    minimizing the expected distance of a random top-k score to its
    nearest selection, returning each with its most probable vector.

    Changing only ``c`` after a first call is much cheaper through
    :func:`repro.core.typical.select_typical` on the already-computed
    distribution — the paper makes the same observation at the end of
    Section 4.

    >>> from repro.datasets.soldier import soldier_table
    >>> result = c_typical_top_k(soldier_table(), "score", 2, 3, p_tau=0)
    >>> [answer.score for answer in result.answers]
    [118.0, 183.0, 235.0]
    """
    pmf = top_k_score_distribution(
        table,
        scorer,
        k,
        p_tau=p_tau,
        max_lines=max_lines,
        algorithm=algorithm,
        depth=depth,
    )
    return select_typical(pmf, c)
