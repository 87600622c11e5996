"""The standing-query registry: delta-maintained subscriptions.

A client registers a :class:`~repro.api.spec.QuerySpec` over a
:class:`~repro.standing.changelog.MutableUncertainTable` and the
registry keeps the materialized answer current as mutations arrive.
:meth:`StandingRegistry.on_delta` takes the deltas since the last
maintenance (one per service mutation; every slide since the previous
query for a :mod:`sliding window <repro.stream.window>`), and per
subscription the maintainer picks the cheapest sound tier for them:

**skip** — the mutations provably cannot change the answer.  This is
the Theorem-2 argument turned into an applicability test: when the
subscription's prefix was *truncated* (the scan stopped before the end
of the table), the stopping position was justified by the probability
mass of rows strictly above it — all inside the prefix.  A delta whose
tuple (old and new state alike) scores strictly below the boundary
score, is not itself a prefix row, and shares no ME group with a
prefix row, leaves that mass and the tie structure at the boundary
intact, so a cold re-evaluation would reproduce the *identical* prefix
— and every downstream stage is a pure function of the prefix rows.
Such deltas compose, each leaving the prefix as it found it.  When
every delta skips, the maintainer re-seeds the retained prefix object
into the session under the table's current version
(:meth:`~repro.api.session.Session.seed_prefix`), which keeps the
whole cached PMF/answer chain warm, and leaves the answer untouched.

**recompute** — some delta may move the prefix: the session re-runs
the query cold, once however many deltas there were (its
version-keyed caches miss by construction after a mutation).  Every
subscription on the table recomputes through the session's one sort
per ``(table, scorer, version)``, and those with the same
``(k, p_tau)`` share one prefix, hence one PMF per algorithm and line
budget — and maintained answers stay byte-identical to cold ones by
construction.

Watchers long-poll :meth:`StandingRegistry.wait`, which blocks until a
subscription's maintained version passes the watermark they have seen.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.logical import LogicalPlan
from repro.api.session import Session
from repro.api.spec import QuerySpec
from repro.core.distribution import resolve_scorer
from repro.exceptions import ServiceError
from repro.standing.changelog import Delta, MutableUncertainTable
from repro.uncertain.model import UncertainTuple
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable

#: The maintenance tiers, cheapest first.
SKIP, RECOMPUTE = "skip", "recompute"

#: How many automatic re-evaluations a sticky maintenance error gets
#: (per error episode) before waiting for the next successful delta.
MAX_STICKY_RETRIES = 3

#: Base backoff before the first sticky-error retry; doubles per
#: failed attempt.
STICKY_RETRY_BACKOFF_S = 0.05


@dataclass(frozen=True)
class PrefixFingerprint:
    """What the maintainer remembers about a subscription's prefix.

    :ivar prefix: the materialized stage-1 object (retained so a skip
        can re-seed it — and with it the downstream cache chain).
    :ivar depth: ``len(prefix)``.
    :ivar tids: the prefix rows' tuple ids.
    :ivar boundary_score: the last (lowest-ranked) prefix row's score,
        or ``None`` for an empty prefix.
    :ivar truncated: whether the prefix stopped before the end of the
        table at evaluation time.  Only a truncated prefix admits
        skips; the flag stays valid across skipped deltas because a
        skipped delta never touches the rows that justified the stop.
    """

    prefix: ScoredTable
    depth: int
    tids: frozenset
    boundary_score: float | None
    truncated: bool

    @classmethod
    def of(
        cls, prefix: ScoredTable, table_rows: int
    ) -> "PrefixFingerprint":
        """Fingerprint a freshly evaluated prefix."""
        depth = len(prefix)
        return cls(
            prefix=prefix,
            depth=depth,
            tids=frozenset(item.tid for item in prefix),
            boundary_score=prefix[depth - 1].score if depth else None,
            truncated=depth < table_rows,
        )


def classify_delta(
    fingerprint: PrefixFingerprint,
    delta: Delta,
    *,
    old_score: float | None = None,
    new_score: float | None = None,
) -> str:
    """The cheapest sound tier for one delta against one prefix.

    Returns :data:`SKIP` when the mutation provably cannot change the
    prefix (hence the answer), else :data:`RECOMPUTE`.

    :param old_score: the affected tuple's score under the
        subscription's scorer *before* the mutation (``None`` for
        inserts).
    :param new_score: the score *after* the mutation (``None`` for
        expiries).
    """
    if not fingerprint.truncated or fingerprint.boundary_score is None:
        # Untruncated prefixes contain every row: all deltas touch them.
        return RECOMPUTE
    if delta.tid in fingerprint.tids:
        return RECOMPUTE
    if fingerprint.tids.intersection(delta.group):
        # ME straddle: the group's below-prefix mass feeds the mu of
        # its in-prefix members, so the Theorem-2 stop could move.
        return RECOMPUTE
    boundary = fingerprint.boundary_score
    for score in (old_score, new_score):
        # Strictly below the boundary: the delta row sorts after every
        # prefix row and cannot join the boundary tie group, so the
        # stop position, its justifying mass, and the prefix rows are
        # all unchanged.  A non-finite score never skips: the cold
        # sort rejects it, so the subscription must error too.
        if score is None:
            continue
        if not math.isfinite(score) or score >= boundary:
            return RECOMPUTE
    return SKIP


class Subscription:
    """One registered standing query and its maintained answer."""

    __slots__ = (
        "sid",
        "spec",
        "logical",
        "answer",
        "version",
        "fingerprint",
        "error",
        "tiers",
        "errors",
        "retry_attempts",
        "retry_at",
    )

    def __init__(
        self, sid: str, spec: QuerySpec, logical: LogicalPlan
    ) -> None:
        self.sid = sid
        self.spec = spec
        self.logical = logical
        self.answer: Any = None
        #: The table version the answer reflects.
        self.version = 0
        self.fingerprint: PrefixFingerprint | None = None
        #: Sticky maintenance failure (e.g. the scorer rejects a new
        #: tuple); surfaced to watchers, cleared by a successful tier
        #: or by a bounded automatic retry on a later ``wait()`` tick.
        self.error: str | None = None
        self.tiers = {SKIP: 0, RECOMPUTE: 0}
        #: Lifetime count of maintenance/retry failures (monotone;
        #: surfaced per subscription in the /metrics standing section).
        self.errors = 0
        #: Retry attempts consumed for the *current* error episode.
        self.retry_attempts = 0
        #: Earliest ``time.monotonic()`` the next retry may run.
        self.retry_at = 0.0

    def describe(self) -> dict[str, Any]:
        """JSON-ready status (no answer payload)."""
        return {
            "sid": self.sid,
            "table": self.spec.table
            if isinstance(self.spec.table, str)
            else "<in-memory>",
            "semantics": self.spec.semantics,
            "k": self.spec.k,
            "version": self.version,
            "error": self.error,
            "errors": self.errors,
            "tiers": dict(self.tiers),
        }


class StandingRegistry:
    """Subscriptions over a session's mutable tables, kept current.

    Thread-safe: mutations serialize on the registry lock (after the
    table's own mutation lock), and watchers block on the registry's
    condition until the subscription they follow advances.

    :param session: the (shared, version-keyed) session queries run
        through.
    :param sid_prefix: prefix of generated subscription ids.  The
        sharded serving tier gives each worker process a distinct
        prefix (``w0-sub-`` ...) so sids stay unique service-wide and
        the front router can map a sid back to its worker.
    """

    def __init__(
        self, session: Session, *, sid_prefix: str = "sub-"
    ) -> None:
        self._session = session
        self._sid_prefix = sid_prefix
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._subs: dict[str, Subscription] = {}
        self._next_id = 1
        self._stats = {
            "subscriptions": 0,
            "mutations": 0,
            SKIP: 0,
            RECOMPUTE: 0,
            "errors": 0,
            "retries": 0,
        }

    @property
    def session(self) -> Session:
        """The session subscriptions evaluate through."""
        return self._session

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------
    def subscribe(
        self, spec: QuerySpec, *, sid: str | None = None
    ) -> Subscription:
        """Register a standing query; evaluates it once, cold.

        :param sid: re-register under a specific id (the durable
            manifest's recovery path re-creates each pre-crash
            subscription under its original sid, so watchers resume
            against the ids they already hold).  Fresh ids never
            collide with restored ones.
        """
        with self._cond:
            if sid is None:
                sid = f"{self._sid_prefix}{self._next_id}"
                self._next_id += 1
            else:
                if sid in self._subs:
                    raise ServiceError(
                        f"subscription id {sid!r} already registered"
                    )
                _, _, suffix = sid.rpartition("-")
                if suffix.isdigit():
                    self._next_id = max(self._next_id, int(suffix) + 1)
            sub = Subscription(sid, spec, LogicalPlan.from_spec(spec))
            # Held across the first evaluation: mutations funnel
            # through the same lock (on_delta), so a subscription can
            # never miss a delta between its cold evaluation and its
            # registration.
            table = self._session.resolve(spec)
            self._evaluate(sub, table, table.version)
            self._subs[sub.sid] = sub
            self._stats["subscriptions"] += 1
        return sub

    def subscriptions(self) -> tuple[Subscription, ...]:
        """The active subscriptions (manifest persistence reads this)."""
        with self._lock:
            return tuple(self._subs.values())

    def unsubscribe(self, sid: str) -> bool:
        """Drop a subscription; wakes its watchers (which then see it
        gone and stop).  Returns whether it existed."""
        with self._cond:
            existed = self._subs.pop(sid, None) is not None
            self._cond.notify_all()
            return existed

    def get(self, sid: str) -> Subscription | None:
        with self._lock:
            return self._subs.get(sid)

    def describe(self) -> dict[str, Any]:
        """JSON-ready registry status (the /metrics section)."""
        with self._lock:
            return {
                "active": len(self._subs),
                **{k: v for k, v in self._stats.items()},
                "subscription_errors": {
                    sid: sub.errors
                    for sid, sub in sorted(self._subs.items())
                },
            }

    # ------------------------------------------------------------------
    # Mutation intake
    # ------------------------------------------------------------------
    def mutate(
        self, table_name: str, op: str, payload: Mapping[str, Any]
    ) -> Delta:
        """Apply one mutation to a catalog table and maintain every
        subscription standing on it; wakes watchers on completion."""
        table = self._session.catalog.resolve(table_name)
        if not isinstance(table, MutableUncertainTable):
            raise ServiceError(
                f"table {table_name!r} is not mutable; load the catalog "
                "with mutable tables to accept mutations"
            )
        delta = table.apply_payload(op, payload)
        self.on_delta(table, delta)
        return delta

    def on_delta(self, table: MutableUncertainTable, *deltas: Delta) -> None:
        """Maintain all subscriptions after already-applied deltas.

        ``deltas`` are every delta applied to ``table`` since the last
        maintenance (at least one), consecutive versions oldest
        first; each subscription on the table then skips or evaluates
        once.  Split from :meth:`mutate` so embedders that hold a
        direct table reference can drive maintenance themselves, as
        often as they read.
        """
        with self._cond:
            self._stats["mutations"] += len(deltas)
            for sub in self._subs.values():
                if self._session.resolve(sub.spec) is table:
                    self._maintain(sub, table, deltas)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Maintenance tiers
    # ------------------------------------------------------------------
    def _delta_scores(
        self, sub: Subscription, table: UncertainTable, delta: Delta
    ) -> tuple[float | None, float | None]:
        """The affected tuple's (old, new) scores under the sub's
        scorer — from the delta payloads alone, no table history, so
        a row inserted and expired since the last maintenance still
        scores.  ``update_probability`` carries no attributes and
        scores the live row; only the service issues it, one delta
        per call."""
        scorer = resolve_scorer(sub.spec.scorer)
        if delta.op == "update_probability":
            # Attributes unchanged: both states score alike.
            score = float(scorer(table[delta.tid]))
            return score, score

        def score_of(attributes, probability) -> float | None:
            if attributes is None:
                return None
            row = UncertainTuple(delta.tid, attributes, probability)
            return float(scorer(row))

        return (
            score_of(delta.old_attributes, delta.old_probability),
            # update_score keeps the probability, so its delta carries
            # only the old one.
            score_of(delta.attributes, delta.probability or delta.old_probability),
        )

    def _evaluate(
        self, sub: Subscription, table: UncertainTable, version: int
    ) -> None:
        """Cold evaluation: answer + fresh fingerprint at ``version``."""
        sub.answer = self._session.execute(sub.spec)
        sub.fingerprint = PrefixFingerprint.of(
            self._session.scored_prefix(sub.spec), len(table)
        )
        sub.version = version
        sub.error = None

    def _maintain(
        self,
        sub: Subscription,
        table: MutableUncertainTable,
        deltas: tuple[Delta, ...],
    ) -> None:
        version = deltas[-1].version
        try:
            tier = RECOMPUTE
            fingerprint = sub.fingerprint
            if fingerprint is not None and sub.error is None:
                tier = SKIP
                for delta in deltas:
                    old_score, new_score = self._delta_scores(sub, table, delta)
                    tier = classify_delta(
                        fingerprint,
                        delta,
                        old_score=old_score,
                        new_score=new_score,
                    )
                    if tier == RECOMPUTE:
                        break
            if tier == SKIP:
                assert fingerprint is not None
                # The prefix is unchanged: re-seeding the *same object*
                # under the table's new version keeps the downstream
                # PMF/answer cache chain warm (they key by identity).
                self._session.seed_prefix(sub.spec, fingerprint.prefix)
                sub.version = version
                sub.error = None
            else:
                self._evaluate(sub, table, version)
            sub.tiers[tier] += 1
            self._stats[tier] += 1
        except Exception as exc:  # sticky; cleared by a later success
            sub.error = f"{type(exc).__name__}: {exc}"
            sub.version = version
            sub.fingerprint = None
            sub.errors += 1
            # A fresh error episode gets a fresh (bounded) retry
            # budget, drained by later wait() ticks.
            sub.retry_attempts = 0
            sub.retry_at = time.monotonic() + STICKY_RETRY_BACKOFF_S
            self._stats["errors"] += 1

    def _retry_sticky(self, sid: str) -> None:
        """Under the lock: one bounded retry of a sticky error.

        Invoked from ``wait()`` ticks — the moments a watcher is
        actually looking — so a transient failure (a scorer racing a
        schema fix, an injected fault) heals without waiting for the
        next delta, while a persistent one stops burning recomputes
        after :data:`MAX_STICKY_RETRIES` attempts with exponential
        backoff.
        """
        sub = self._subs.get(sid)
        if (
            sub is None
            or sub.error is None
            or sub.retry_attempts >= MAX_STICKY_RETRIES
            or time.monotonic() < sub.retry_at
        ):
            return
        sub.retry_attempts += 1
        self._stats["retries"] += 1
        try:
            table = self._session.resolve(sub.spec)
            self._evaluate(sub, table, table.version)
        except Exception as exc:
            sub.error = f"{type(exc).__name__}: {exc}"
            sub.errors += 1
            sub.retry_at = time.monotonic() + (
                STICKY_RETRY_BACKOFF_S * (2**sub.retry_attempts)
            )
        else:
            sub.retry_attempts = 0
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Watching
    # ------------------------------------------------------------------
    def snapshot(self, sid: str) -> dict[str, Any] | None:
        """The subscription's current state as a JSON-ready document
        (``None`` when the sid is unknown)."""
        from repro.io.json_io import answer_to_jsonable

        with self._lock:
            sub = self._subs.get(sid)
            if sub is None:
                return None
            document = sub.describe()
            document["answer"] = (
                None if sub.error else answer_to_jsonable(sub.answer)
            )
            return document

    def wait(
        self, sid: str, *, after_version: int, timeout: float | None = None
    ) -> dict[str, Any] | None:
        """Block until the subscription advances past ``after_version``.

        Returns the post-advance snapshot; the current snapshot on
        timeout; ``None`` when the subscription does not (or no
        longer) exist.
        """
        with self._cond:
            self._retry_sticky(sid)
            self._cond.wait_for(
                lambda: (
                    sid not in self._subs
                    or self._subs[sid].version > after_version
                ),
                timeout=timeout,
            )
            self._retry_sticky(sid)
        return self.snapshot(sid)
