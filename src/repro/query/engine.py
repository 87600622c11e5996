"""Query execution: catalog, filtering, ranking, typical answers.

Executing a parsed :class:`~repro.query.ast_nodes.TopKQuery`:

1. resolve the FROM table in the :class:`Catalog`;
2. apply the WHERE predicate (dropping tuples reduces their ME groups,
   which is sound: a dropped tuple's probability mass simply becomes
   part of the group's "no member" outcome — filtering is applied
   before ranking, exactly like a relational plan would);
3. rank by the ORDER BY expression and compute the top-LIMIT score
   distribution with the requested algorithm;
4. select the c typical answers (``WITH TYPICAL c``, default 3) and
   project each answer's tuples through the SELECT list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.core.distribution import DEFAULT_P_TAU
from repro.core.dp import DEFAULT_MAX_LINES
from repro.core.pmf import ScorePMF
from repro.core.typical import TypicalResult
from repro.exceptions import QueryPlanError
from repro.query.ast_nodes import TopKQuery
from repro.query.parser import parse_query
from repro.semantics.u_topk import UTopkResult
from repro.uncertain.table import UncertainTable


class Catalog:
    """A named collection of uncertain tables."""

    def __init__(self, tables: Mapping[str, UncertainTable] | None = None):
        self._tables: dict[str, UncertainTable] = {}
        for name, table in (tables or {}).items():
            self.register(name, table)

    def register(self, name: str, table: UncertainTable) -> None:
        """Add (or replace) a table under ``name``."""
        self._tables[name] = table

    def resolve(self, name: str) -> UncertainTable:
        """Look up a table; raises :class:`QueryPlanError` if missing."""
        try:
            return self._tables[name]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "(none)"
            raise QueryPlanError(
                f"unknown table {name!r}; known tables: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> tuple[str, ...]:
        """Registered table names, sorted."""
        return tuple(sorted(self._tables))


@dataclass(frozen=True)
class AnswerRow:
    """One typical answer, projected through the SELECT list.

    :ivar score: the answer's total score.
    :ivar probability: probability mass of that score.
    :ivar tuples: projected attribute rows, one per vector member.
    """

    score: float
    probability: float
    tuples: tuple[Mapping[str, Any], ...]


@dataclass(frozen=True)
class QueryResult:
    """Everything a query run produces.

    :ivar query: the parsed query.
    :ivar pmf: the top-k total-score distribution.
    :ivar typical: raw typical-answer selection.
    :ivar answers: typical answers projected through the SELECT list.
    :ivar u_topk: the U-Topk answer for comparison (None if absent).
    """

    query: TopKQuery
    pmf: ScorePMF
    typical: TypicalResult
    answers: tuple[AnswerRow, ...]
    u_topk: UTopkResult | None

    def __iter__(self) -> Iterator[AnswerRow]:
        return iter(self.answers)


#: Default number of typical answers when WITH TYPICAL is absent.
DEFAULT_TYPICAL = 3


def execute_query(
    query: TopKQuery | str,
    catalog: "Catalog | Mapping[str, UncertainTable] | Session",
    *,
    p_tau: float = DEFAULT_P_TAU,
    max_lines: int = DEFAULT_MAX_LINES,
    include_u_topk: bool = True,
    algorithm: str | None = None,
    epsilon: float | None = None,
    confidence: float | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> QueryResult:
    """Execute a top-k query against a catalog (or a session).

    The plan routes through a :class:`~repro.api.session.Session`: one
    scored prefix serves the score distribution, the typical answers
    and the U-Topk comparison; passing an existing session lets
    repeated queries over the same catalog reuse its stage caches.

    :param algorithm: overrides the query text's algorithm (``None``
        keeps the text's choice, defaulting to ``"dp"``).
    :param epsilon: MC target ±ε (``algorithm="mc"`` only).
    :param confidence: MC confidence level.
    :param samples: explicit MC world count.
    :param seed: MC sampling seed.

    >>> from repro.datasets.soldier import soldier_table
    >>> result = execute_query(
    ...     "SELECT soldier, score FROM soldiers "
    ...     "ORDER BY score DESC LIMIT 2 WITH TYPICAL 3",
    ...     {"soldiers": soldier_table()},
    ...     p_tau=0.0,
    ... )
    >>> [row.score for row in result.answers]
    [118.0, 183.0, 235.0]
    """
    # Imported lazily: the api package builds on this module's Catalog.
    from repro.api.session import Session
    from repro.api.spec import QuerySpec

    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(catalog, Session):
        session = catalog
    else:
        session = Session(catalog)
    # One version serves the filter, the subset, the ranking and the
    # projection, so a concurrent mutation cannot tear them apart.
    table = session.catalog.resolve(query.table).frozen()

    if query.where is not None:
        predicate = query.where
        keep = [t.tid for t in table if bool(predicate.evaluate(t))]
        table = table.subset(keep)

    score_expr = query.score_expression()

    def scorer(t):  # scoring function over the (filtered) table
        value = score_expr.evaluate(t)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QueryPlanError(
                f"ORDER BY expression produced non-numeric {value!r} "
                f"for tuple {t.tid!r}"
            )
        return float(value)

    from repro.api.spec import DEFAULT_MC_CONFIDENCE

    spec = QuerySpec(
        table=table,
        scorer=scorer,
        k=query.limit,
        semantics="typical",
        c=query.typical or DEFAULT_TYPICAL,
        p_tau=p_tau,
        max_lines=max_lines,
        algorithm=algorithm or query.algorithm or "dp",
        epsilon=epsilon,
        confidence=(
            DEFAULT_MC_CONFIDENCE if confidence is None else confidence
        ),
        samples=samples,
        seed=seed,
    )
    # One planned batch serves the distribution, the typical answers
    # (which clamp c and tolerate the empty distribution left when
    # fewer than LIMIT tuples can co-exist) and the U-Topk comparison:
    # the session's planner shares the scored prefix and the computed
    # PMF across all three.
    batch = [spec, spec]
    ops: list = ["distribution", "execute"]
    if include_u_topk:
        batch.append(spec.with_(semantics="u_topk"))
        ops.append("execute")
    results = session.execute_many(batch, ops=ops)
    pmf, typical = results[0], results[1]

    answers = tuple(
        AnswerRow(
            score=answer.score,
            probability=answer.prob,
            tuples=_project(query, table, answer.vector),
        )
        for answer in typical.answers
    )
    best = results[2] if include_u_topk else None
    return QueryResult(query, pmf, typical, answers, best)


def _project(
    query: TopKQuery, table: UncertainTable, vector: tuple | None
) -> tuple[Mapping[str, Any], ...]:
    """Project a vector's tuples through the SELECT list."""
    if vector is None:
        return ()
    rows = []
    for tid in vector:
        t = table[tid]
        if query.select_star or not query.select:
            rows.append(dict(t.attributes))
        else:
            rows.append(
                {
                    item.output_name: item.expression.evaluate(t)
                    for item in query.select
                }
            )
    return tuple(rows)
