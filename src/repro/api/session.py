"""The :class:`Session`: plan, cache and dispatch top-k requests.

A session wraps a :class:`~repro.query.engine.Catalog` and executes
:class:`~repro.api.spec.QuerySpec` values through the explicit
logical→physical plan layer: each spec is normalized into a
:class:`~repro.api.logical.LogicalPlan`, lowered by the cost-based
:class:`~repro.api.planner.Planner` into a
:class:`~repro.api.physical.PhysicalPlan` of executable operators —
once per request, every stage then running from that one plan — with
every stage memoized in a keyed LRU:

* **scored cache** — one entry per ``(table, scorer)``: the whole
  table scored and rank-ordered, which every stage-1 miss truncates
  (a mutable table's newer version replaces the older sort);
* **prefix cache** — keyed by ``(table, scorer, k, p_tau, depth)``:
  changing only the semantics (or ``c``, ``max_lines``, the
  algorithm) reuses the scored, Theorem-2-truncated prefix;
* **pmf cache** — keyed by the prefix plus ``(algorithm, max_lines,
  p_tau)``: changing only ``c`` (or the answer semantics consuming
  the PMF) reuses the computed :class:`~repro.core.pmf.ScorePMF` —
  the paper's own end-of-Section-4 observation that re-selecting
  typical answers at a new ``c`` costs O(cn), not a re-run of the
  dynamic program;
* **answer cache** — keyed by the consumed stage plus the semantics
  parameters, so hot repeated requests are pure lookups.

Every key's parameter tail derives from the request's
:class:`~repro.api.logical.LogicalPlan` — the same normalization the
service's batch grouping uses — so grouping and caching can never
drift.  Cache keys hold the resolved table (and prefix) *objects*,
which are immutable and hashed by identity: re-registering a name in
the catalog therefore invalidates naturally — the next ``execute``
resolves a different object and misses.  ``cache_info()`` exposes
hit/miss counters per stage.

**Multi-query fusion**: :meth:`Session.execute_many` plans each spec
once and hands the plans to the planner, which merges exact-DP
requests over one table and scorer into a single shared-prefix sweep
at the largest ``k`` and deepest prefix
(:class:`~repro.api.physical.FusedSweepOp`), slices the
per-request distributions out, and seeds the ordinary stage caches —
so a mixed-``k`` batch pays one DP instead of one per ``(k,
algorithm)`` group, while every answer stays byte-identical to a
dedicated :meth:`execute`.  ``fusion_info()`` counts the sweeps saved.

**Inspection**: :meth:`Session.explain` renders a request's plan —
normalized spec, operator tree with cost estimates from the machine's
calibrated cost model, and predicted cache hits — without running the
expensive stages.

**Warm lookups**: :meth:`Session.cached` returns a request's result
when every stage it needs is cached, computing nothing, so the service
executor answers such a request without queueing it.  It counts and
refreshes the stages it reads exactly as :meth:`execute` would.

Sessions are safe to share across threads: each stage cache holds its
own lock, answers are deterministic pure functions of the cache key,
and the hit/miss counters stay consistent under concurrency — the
property the :mod:`repro.service` batching executor relies on.

>>> from repro.datasets.soldier import soldier_table
>>> from repro.api.spec import QuerySpec
>>> session = Session({"soldiers": soldier_table()})
>>> spec = QuerySpec(table="soldiers", scorer="score", k=2, p_tau=0.0)
>>> [round(a.score) for a in session.execute(spec).answers]
[118, 183, 235]
>>> pmf = session.distribution(spec)          # cached: no recompute
>>> session.execute(spec.with_(c=5)) is not None
True
>>> session.cache_info()["pmf"]["misses"]
1
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Literal, Mapping, NamedTuple, Sequence

from repro.api.logical import ByIdentity, LogicalPlan
from repro.api.physical import PhysicalPlan, SharedPrefixDPOp
from repro.api.planner import (
    DEFAULT_PLANNER,
    FusionCandidate,
    FusionGroup,
    Planner,
)
from repro.api.spec import QuerySpec
from repro.core.pmf import ScorePMF
from repro.core.scan_depth import scan_depth
from repro.exceptions import AlgorithmError
from repro.query.engine import Catalog
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable

#: Default per-stage LRU capacity.
DEFAULT_CACHE_SIZE = 64

#: The operation a batch entry runs.
BatchOp = Literal["execute", "distribution"]


class _LRU:
    """A small least-recently-used map with hit/miss counters.

    Thread-safe: every operation holds the cache's own lock, so a
    :class:`Session` may be shared across service worker threads.
    Counters stay consistent (``hits + misses`` equals the number of
    ``get`` calls); concurrent misses on one key may each compute and
    ``put`` the value, which is benign because stage computations are
    deterministic pure functions of the key.

    Capacity is bounded two ways: ``maxsize`` entries always, and —
    when ``max_bytes`` is set — a byte budget over the sizes callers
    declare via ``put(..., nbytes=...)``.  Entries stored without a
    size count zero bytes (session-stage values are heterogeneous
    Python objects; the byte budget exists for the storage page
    caches, whose page sizes are known exactly).  Capacity evictions
    are counted separately from explicit invalidation.
    """

    __slots__ = (
        "maxsize",
        "max_bytes",
        "hits",
        "misses",
        "evictions",
        "capacity_evictions",
        "current_bytes",
        "_data",
        "_sizes",
        "_lock",
    )

    def __init__(self, maxsize: int, max_bytes: int | None = None) -> None:
        if maxsize < 1:
            raise AlgorithmError(f"cache size must be >= 1, got {maxsize}")
        if max_bytes is not None and max_bytes < 1:
            raise AlgorithmError(
                f"cache byte budget must be >= 1, got {max_bytes}"
            )
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.capacity_evictions = 0
        self.current_bytes = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> None:
        with self._lock:
            if key in self._data:
                self.current_bytes -= self._sizes.get(key, 0)
            self._data[key] = value
            self._data.move_to_end(key)
            if nbytes:
                self._sizes[key] = nbytes
            else:
                self._sizes.pop(key, None)
            self.current_bytes += nbytes
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        # Never evict the entry just inserted, even when it alone
        # exceeds the byte budget — a cache that cannot hold the
        # working item would thrash to zero hits.
        while len(self._data) > self.maxsize or (
            self.max_bytes is not None
            and self.current_bytes > self.max_bytes
            and len(self._data) > 1
        ):
            key, _ = self._data.popitem(last=False)
            self.current_bytes -= self._sizes.pop(key, 0)
            self.capacity_evictions += 1

    def contains(self, key: Hashable) -> bool:
        """Counter-free membership probe (EXPLAIN's predicted hits)."""
        with self._lock:
            return key in self._data

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Counter-free, order-preserving lookup."""
        with self._lock:
            return self._data.get(key, default)

    def touch(self, key: Hashable) -> None:
        """Count a hit on ``key`` and refresh its recency, as a ``get``
        that hit would: for a caller that served a value it peeked."""
        with self._lock:
            self.hits += 1
            if key in self._data:
                self._data.move_to_end(key)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self.current_bytes = 0

    def evict_where(self, predicate: Any) -> list[Any]:
        """Remove entries whose ``predicate(key, value)`` is true.

        Returns the evicted *values* (explicit invalidation, e.g. a
        catalog table reload) and counts them in ``evictions``.
        """
        with self._lock:
            doomed = [
                key
                for key, value in self._data.items()
                if predicate(key, value)
            ]
            values = [self._data.pop(key) for key in doomed]
            for key in doomed:
                self.current_bytes -= self._sizes.pop(key, 0)
            self.evictions += len(values)
            return values

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def info(self) -> dict[str, int]:
        with self._lock:
            document = {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._data),
                "maxsize": self.maxsize,
                "evictions": self.evictions,
            }
            if self.max_bytes is not None:
                document["capacity_evictions"] = self.capacity_evictions
                document["current_bytes"] = self.current_bytes
                document["max_bytes"] = self.max_bytes
            return document


#: Sentinel distinguishing "absent" from cached ``None`` answers
#: (U-Topk legitimately returns ``None`` on short prefixes); also what
#: :meth:`Session.cached` returns when a needed stage is not cached.
MISS = object()


class _Planned(NamedTuple):
    """One request, planned once: what every later stage reads."""

    logical: LogicalPlan
    table: UncertainTable
    version: int
    prefix: ScoredTable
    prefix_hit: bool
    physical: PhysicalPlan

    def pmf_key(self) -> Hashable:
        # The sampling knobs only shape MC estimates; exact-algorithm
        # entries stay shared across specs differing in a knob only.
        return (self.prefix,) + self.logical.pmf_params(
            self.physical.algorithm
        )

    def fusion_key(self) -> Hashable:
        # The multi-query fusion group: exact DPs over one table
        # version, scorer and line budget may share one sweep (any mix
        # of k; the planner further splits by prefix shape).  Plans
        # that sorted different versions of a table never share one.
        return (
            ByIdentity(self.table),
            self.version,
            self.logical.scorer_key,
            self.logical.spec.max_lines,
        )

    def answer_key(self, pmf: ScorePMF | None) -> Hashable:
        # Keyed by the consumed stage's *identity*: ScorePMF compares
        # by (scores, probs) only, so value-equal distributions from
        # different tables must not share an answer entry.  The
        # resolved algorithm participates, plus the MC knobs when an
        # MC variant's answer depends on them.
        source = self.prefix if pmf is None else pmf
        return (ByIdentity(source),) + self.logical.answer_params(
            self.physical.algorithm
        )


class Session:
    """A planning, caching façade over a catalog of uncertain tables.

    :param tables: a :class:`Catalog`, a ``name -> table`` mapping, or
        ``None`` for an empty catalog.
    :param cache_size: per-stage LRU capacity.
    :param planner: the logical→physical planner; ``None`` shares the
        process-wide (calibration-loading) planner.
    """

    def __init__(
        self,
        tables: Catalog | Mapping[str, UncertainTable] | None = None,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        planner: Planner | None = None,
    ) -> None:
        self._catalog = (
            tables if isinstance(tables, Catalog) else Catalog(tables)
        )
        self._planner = planner if planner is not None else DEFAULT_PLANNER
        self._scored = _LRU(cache_size)
        self._prefixes = _LRU(cache_size)
        self._pmfs = _LRU(cache_size)
        self._answers = _LRU(cache_size)
        self._fusion_lock = threading.Lock()
        self._fusion = {
            "batches": 0,
            "groups": 0,
            "fused_specs": 0,
            "sweeps_saved": 0,
        }

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        """The underlying catalog."""
        return self._catalog

    @property
    def planner(self) -> Planner:
        """The logical→physical planner this session lowers through."""
        return self._planner

    def register(self, name: str, table: UncertainTable) -> None:
        """Add (or replace) a table; cached stages for a replaced name
        are naturally orphaned because keys hold the old object."""
        self._catalog.register(name, table)

    def tables(self) -> tuple[str, ...]:
        """Registered table names, sorted."""
        return self._catalog.names()

    def resolve(self, spec: QuerySpec) -> UncertainTable:
        """The concrete table a spec refers to."""
        if isinstance(spec.table, UncertainTable):
            return spec.table
        return self._catalog.resolve(spec.table)

    # ------------------------------------------------------------------
    # Planning: once per request
    # ------------------------------------------------------------------
    def _plan(self, spec: QuerySpec, op: BatchOp = "execute") -> _Planned:
        """Plan one request: normalize the spec, resolve the table, get
        the stage-1 prefix and lower it — each exactly once.

        Every entry point runs from the returned plan, so no stage is
        planned twice.  The table is frozen once, so the version in the
        request's cache keys is the version of the rows it sorts; the
        keys still hold the live table.  ``op="distribution"`` lowers
        without the semantics stage (a raw PMF request).
        """
        logical = LogicalPlan.from_spec(spec)
        table = self.resolve(spec)
        rows = table.frozen()
        prefix, prefix_hit = self._stage1(table, rows, logical)
        return self._lower(logical, table, rows, prefix, prefix_hit, op)

    def _lower(
        self,
        logical: LogicalPlan,
        table: UncertainTable,
        rows: UncertainTable,
        prefix: ScoredTable,
        prefix_hit: bool,
        op: BatchOp,
    ) -> _Planned:
        """Lower a request whose stage-1 prefix is in hand."""
        physical = self._planner.lower(
            logical,
            prefix,
            table_rows=len(rows),
            include_semantics=op == "execute",
            storage=self._storage_kind(table, logical),
        )
        return _Planned(
            logical, table, rows.version, prefix, prefix_hit, physical
        )

    def _prefix_key(
        self, table: UncertainTable, version: int, logical: LogicalPlan
    ) -> Hashable:
        # The *data version* participates alongside the table identity:
        # tables that mutate in place (repro.standing) bump their
        # version, so a cached stage computed before a mutation can
        # never be served after it — downstream stages chain off the
        # prefix object's identity and miss transitively.
        return (table, version) + logical.prefix_params()

    @staticmethod
    def _storage_kind(table: UncertainTable, logical: LogicalPlan) -> str:
        """``"disk"`` when the request is served by scan-depth pushdown
        (the table is packed on the request's scorer), else ``"ram"``
        — the planner's stage-1 pricing input."""
        from repro.core.distribution import storage_pushdown_view

        view = storage_pushdown_view(table, logical.spec.scorer)
        return "ram" if view is None else "disk"

    def _stage1(
        self,
        table: UncertainTable,
        rows: UncertainTable,
        logical: LogicalPlan,
    ) -> tuple[ScoredTable, bool]:
        """Stage 1 get-or-compute, and whether the prefix cache hit.

        ``rows`` is ``table`` frozen at the request's version.  A miss
        truncates the session's scored view of the whole table at the
        request's Theorem-2 (or explicit) depth — the same rows
        :func:`~repro.core.distribution.prepare_scored_prefix` returns
        — so one sort serves every ``(k, p_tau, depth)`` and every
        semantics that reads the table.
        """
        key = self._prefix_key(table, rows.version, logical)
        prefix = self._prefixes.get(key)
        if prefix is not None:
            return prefix, True
        spec = logical.spec
        scored = self._scored_view(table, rows, logical)
        depth = spec.depth
        if depth is None:
            depth = (
                scan_depth(scored, spec.k, spec.p_tau)
                if spec.p_tau > 0.0
                else len(scored)
            )
        prefix = scored.prefix(min(depth, len(scored)))
        self._prefixes.put(key, prefix)
        return prefix, False

    def _scored_view(
        self,
        table: UncertainTable,
        rows: UncertainTable,
        logical: LogicalPlan,
    ) -> ScoredTable:
        """``rows``, the whole table at one version, scored and
        rank-ordered (cached).

        Holds one entry per ``(table, scorer)``: a mutable table's
        newer version replaces the older sort.  Resident tables score
        through :func:`repro.api.plan.prepare_scored_prefix` (untruncated,
        so the sort is its own prefix); disk-backed tables packed on
        the request's scorer return their packed rank order, so
        pushdown I/O stays bounded by the deepest prefix sliced.
        """
        from repro.api import plan
        from repro.core.distribution import storage_pushdown_view

        spec = logical.spec
        key = (table, logical.scorer_key)
        version = rows.version
        entry = self._scored.get(key)
        if entry is not None and entry[0] == version:
            return entry[1]
        scored = storage_pushdown_view(rows, spec.scorer)
        if scored is None:
            scored = plan.prepare_scored_prefix(
                rows, spec.scorer, spec.k, p_tau=0.0
            )
        self._scored.put(key, (version, scored))
        return scored

    # ------------------------------------------------------------------
    # Staged execution
    # ------------------------------------------------------------------
    def _pmf(self, planned: _Planned) -> ScorePMF:
        """Stage 2 get-or-compute for a planned request."""
        key = planned.pmf_key()
        pmf = self._pmfs.get(key)
        if pmf is None:
            pmf_op = planned.physical.pmf_op
            assert pmf_op is not None
            pmf = pmf_op.run(planned.prefix, planned.logical.spec)
            self._pmfs.put(key, pmf)
        return pmf

    def _run(self, planned: _Planned) -> Any:
        """Stages 2–3 of a planned request: the PMF for a raw
        ``distribution`` plan, else the (cached) answer."""
        semantics_op = planned.physical.semantics_op
        if semantics_op is None:
            return self._pmf(planned)
        pmf = self._pmf(planned) if semantics_op.requires == "pmf" else None
        key = planned.answer_key(pmf)
        answer = self._answers.get(key, MISS)
        if answer is MISS:
            answer = semantics_op.run(
                planned.prefix, planned.logical.spec, pmf=pmf
            )
            self._answers.put(key, answer)
        return answer

    def cached(self, spec: QuerySpec, op: BatchOp = "execute") -> Any:
        """The request's result when every stage it needs is cached,
        else :data:`MISS`: a lookup that never computes.

        It takes the table frozen once, as :meth:`_plan` does, and
        builds the same stage keys, but never scores, sorts, runs a
        pmf operator or a semantics.  A hit counts one hit per stage
        it consulted and refreshes their LRU recency, exactly as
        :meth:`execute` (``op="distribution"``: :meth:`distribution`)
        would; a miss counts nothing, so the run that then serves the
        request counts as it always did.
        """
        logical = LogicalPlan.from_spec(spec)
        table = self.resolve(spec)
        rows = table.frozen()
        prefix_key = self._prefix_key(table, rows.version, logical)
        prefix = self._prefixes.peek(prefix_key)
        if prefix is None:
            return MISS
        planned = self._lower(logical, table, rows, prefix, True, op)
        consulted: list[tuple[_LRU, Hashable]] = [
            (self._prefixes, prefix_key)
        ]
        semantics_op = planned.physical.semantics_op
        result: Any = None
        if semantics_op is None or semantics_op.requires == "pmf":
            pmf_key = planned.pmf_key()
            result = self._pmfs.peek(pmf_key)
            if result is None:
                return MISS
            consulted.append((self._pmfs, pmf_key))
        if semantics_op is not None:
            answer_key = planned.answer_key(result)
            result = self._answers.peek(answer_key, MISS)
            if result is MISS:
                return MISS
            consulted.append((self._answers, answer_key))
        for cache, key in consulted:
            cache.touch(key)
        return result

    def scored_prefix(self, spec: QuerySpec) -> ScoredTable:
        """Stage 1 (cached): the scored, truncated prefix."""
        return self._plan(spec, "distribution").prefix

    def seed_prefix(self, spec: QuerySpec, prefix: ScoredTable) -> None:
        """Install ``prefix`` as the stage-1 entry for ``spec`` at the
        table's *current* version.

        This is the standing-query maintainer's skip path: after a
        mutation that provably cannot change the prefix, seeding
        keeps the downstream PMF/answer chain warm — the PMF cache is
        keyed by the prefix *object*, so re-seeding the same object
        under the new version preserves every downstream entry.  The
        caller guarantees the seeded prefix is byte-identical to what
        stage 1 would compute cold; nothing here can check that.
        """
        logical = LogicalPlan.from_spec(spec)
        table = self.resolve(spec)
        self._prefixes.put(
            self._prefix_key(table, table.version, logical), prefix
        )

    def invalidate_table(self, table: UncertainTable) -> int:
        """Evict every cached stage derived from ``table``.

        Version-keyed stage keys already guarantee correctness when a
        table mutates in place or is re-registered — old entries can
        never be *hit* again — so this is about promptly releasing the
        resident state (and the table itself, which its keys pin) on a
        catalog (re)load.  Eviction chains through the stages: scored
        tables and prefixes match on the table in their key, PMFs on
        an evicted prefix, answers on an evicted prefix or PMF.
        Returns the number of entries evicted (also counted per stage
        in :meth:`cache_info`).
        """
        evicted = self._scored.evict_where(
            lambda key, _value: key[0] is table
        )
        prefixes = self._prefixes.evict_where(
            lambda key, _value: key[0] is table
        )
        stale = {id(value) for value in prefixes}
        pmfs = self._pmfs.evict_where(
            lambda key, _value: id(key[0]) in stale
        )
        stale.update(id(value) for value in pmfs)
        answers = self._answers.evict_where(
            lambda key, _value: isinstance(key[0], ByIdentity)
            and id(key[0].obj) in stale
        )
        return len(evicted) + len(prefixes) + len(pmfs) + len(answers)

    def distribution(self, spec: QuerySpec) -> ScorePMF:
        """Stage 2 (cached): the top-k total-score distribution."""
        return self._pmf(self._plan(spec, "distribution"))

    def execute(self, spec: QuerySpec) -> Any:
        """Stage 3 (cached): the answer under ``spec.semantics``.

        The return type is whatever the registered semantics produces
        (see :mod:`repro.api.builtin` for the built-in table).  When
        the planner resolves ``"mc"`` — explicitly or through the
        exact-cost escape hatch — and the semantics has a registered
        MC variant (:mod:`repro.mc.semantics`), the variant runs
        instead of the exact implementation.
        """
        return self._run(self._plan(spec))

    def typical(self, spec: QuerySpec, c: int | None = None):
        """Convenience: the c-Typical-Topk answers for ``spec``.

        Reuses the cached PMF across calls with different ``c`` — the
        end-of-Section-4 access pattern.
        """
        changes: dict[str, Any] = {"semantics": "typical"}
        if c is not None:
            changes["c"] = c
        return self.execute(spec.with_(**changes))

    # ------------------------------------------------------------------
    # Batch execution with multi-query fusion
    # ------------------------------------------------------------------
    def execute_many(
        self,
        specs: Sequence[QuerySpec],
        *,
        ops: Sequence[BatchOp] | None = None,
        return_exceptions: bool = False,
    ) -> list[Any]:
        """Execute a batch of specs with multi-query plan fusion.

        Each spec is planned once; the planner then merges fusable
        exact-DP requests (same table, scorer and line budget; any mix
        of ``k``) into single shared-prefix sweeps, and every request
        runs from its own plan.  Answers are byte-identical to
        per-spec :meth:`execute` calls — fused distributions are
        sliced with :func:`repro.core.dp.dp_distribution_sliced`,
        seeded into the stage caches, and consumed by the exact same
        stage-3 code.

        :param ops: per-spec operation (``"execute"`` default, or
            ``"distribution"`` for the raw PMF).
        :param return_exceptions: per-spec exceptions are returned in
            the result list instead of raised (the service executor's
            isolation mode).
        """
        batch_ops: list[BatchOp] = (
            ["execute"] * len(specs) if ops is None else list(ops)
        )
        if len(batch_ops) != len(specs):
            raise AlgorithmError(
                f"ops length {len(batch_ops)} != specs length {len(specs)}"
            )
        with self._fusion_lock:
            self._fusion["batches"] += 1
        planned: list[_Planned | Exception] = []
        for spec, op in zip(specs, batch_ops):
            try:
                planned.append(self._plan(spec, op))
            except Exception as exc:
                if not return_exceptions:
                    raise
                planned.append(exc)
        self._fuse_batch(planned)
        results: list[Any] = []
        for request in planned:
            if isinstance(request, Exception):
                results.append(request)
                continue
            try:
                results.append(self._run(request))
            except Exception as exc:
                if not return_exceptions:
                    raise
                results.append(exc)
        return results

    def _fuse_batch(self, planned: Sequence[_Planned | Exception]) -> None:
        """Run fused sweeps for the batch and seed the PMF cache.

        Only exact-DP plans whose PMF is not cached yet take part;
        everything else runs per spec, so fusion can never change an
        answer — only speed it up.
        """
        candidates: list[FusionCandidate] = []
        seen: set[Hashable] = set()
        keyed: dict[int, Hashable] = {}
        for index, request in enumerate(planned):
            if isinstance(request, Exception):
                continue
            pmf_op = request.physical.pmf_op
            if not isinstance(pmf_op, SharedPrefixDPOp):
                continue
            pmf_key = request.pmf_key()
            if pmf_key in seen or self._pmfs.contains(pmf_key):
                continue  # cached, or a duplicate the first one seeds
            seen.add(pmf_key)
            keyed[index] = pmf_key
            spec = request.logical.spec
            candidates.append(
                FusionCandidate(
                    index=index,
                    fusion_key=request.fusion_key(),
                    prefix=request.prefix,
                    k=spec.k,
                    depth=len(request.prefix),
                    has_me=pmf_op.me_members > 0,
                    max_lines=spec.max_lines,
                )
            )
        if not candidates:
            return
        for group in self._planner.fuse(candidates):
            self._run_fused(group, keyed)

    def _run_fused(
        self, group: FusionGroup, keyed: Mapping[int, Hashable]
    ) -> None:
        try:
            sliced = group.op.run(group.anchor)
        except Exception:
            return  # fall back to per-spec execution
        by_request = dict(zip(group.op.requests, sliced))
        seeded = 0
        for member in group.members:
            pmf = by_request.get((member.k, member.depth))
            key = keyed.get(member.index)
            if pmf is None or key is None:
                continue
            self._pmfs.put(key, pmf)
            seeded += 1
        with self._fusion_lock:
            self._fusion["groups"] += 1
            self._fusion["fused_specs"] += seeded
            self._fusion["sweeps_saved"] += max(
                0, len(group.op.requests) - 1
            )

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def explain(self, spec: QuerySpec) -> dict[str, Any]:
        """The request's plan as a JSON-ready document.

        Renders the normalized logical plan, the lowered operator tree
        with cost estimates (from the planner's — possibly
        calibrated — cost model), and the predicted cache outcome per
        stage.  Stage 1 (score + rank + truncate) *is* executed when
        not already cached, because the algorithm choice depends on
        the truncated prefix's shape; the expensive stages (DP,
        sampling, semantics) are never run.
        """
        planned = self._plan(spec)
        logical, physical = planned.logical, planned.physical
        semantics_op = physical.semantics_op
        assert semantics_op is not None
        cache: dict[str, str] = {
            "prefix": "hit" if planned.prefix_hit else "miss",
        }
        if semantics_op.requires == "prefix":
            cache["pmf"] = "not required"
            answer_hit = self._answers.contains(planned.answer_key(None))
        else:
            pmf = self._pmfs.peek(planned.pmf_key())
            cache["pmf"] = "hit" if pmf is not None else "miss"
            answer_hit = pmf is not None and self._answers.contains(
                planned.answer_key(pmf)
            )
        cache["answer"] = "hit" if answer_hit else "miss"
        model = self._planner.cost_model
        return {
            "spec": logical.describe(),
            "logical": {
                "stages": list(logical.stages()),
                "batch_key": repr(logical.batch_key()),
                "fusion_key": repr(planned.fusion_key()),
            },
            "physical": physical.explain(model),
            "cache": cache,
            "cost_model": {
                "source": model.source,
                "k_combo_max_combinations": model.k_combo_max_combinations,
                "state_expansion_max_depth": model.state_expansion_max_depth,
                "mc_cost_budget": model.mc_cost_budget,
            },
        }

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Hit/miss/size counters per pipeline stage."""
        return {
            "scored": self._scored.info(),
            "prefix": self._prefixes.info(),
            "pmf": self._pmfs.info(),
            "answer": self._answers.info(),
        }

    def fusion_info(self) -> dict[str, int]:
        """Multi-query fusion counters (see :meth:`execute_many`)."""
        with self._fusion_lock:
            return dict(self._fusion)

    def clear_cache(self) -> None:
        """Drop every cached stage (counters are kept)."""
        self._scored.clear()
        self._prefixes.clear()
        self._pmfs.clear()
        self._answers.clear()

    def __repr__(self) -> str:
        return (
            f"Session(tables={len(self._catalog.names())}, "
            f"cached_prefixes={len(self._prefixes)}, "
            f"cached_pmfs={len(self._pmfs)})"
        )
