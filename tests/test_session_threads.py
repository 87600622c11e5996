"""Concurrent ``Session`` use: threaded == serial, counters consistent.

The service executes mixed QuerySpecs from a worker pool against one
shared Session, so this suite asserts the two properties that makes
sound: (a) N threads × M mixed specs on one shared session produce
results byte-identical to serial execution of the same specs (every
pipeline stage is a deterministic pure function of its cache key),
and (b) the stage cache counters stay consistent under concurrency —
every lookup is counted exactly once, so ``hits + misses`` equals the
known per-spec lookup count, and sizes respect the LRU bound.
"""

from __future__ import annotations

import threading

from repro.api import QuerySpec, Session, get_semantics
from repro.datasets.soldier import soldier_table
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)

N_THREADS = 8

#: Mixed workload: every built-in semantics, both pipeline stages,
#: several (k, p_tau, c) shapes, exact and MC algorithms.
SPECS = [
    QuerySpec(table="solid", scorer="score", k=2, p_tau=0.0),
    QuerySpec(table="solid", scorer="score", k=2, p_tau=0.0, c=5),
    QuerySpec(table="solid", scorer="score", k=2, semantics="u_topk"),
    QuerySpec(table="solid", scorer="score", k=3, semantics="pt_k",
              threshold=0.4),
    QuerySpec(table="syn", scorer="score", k=3, p_tau=0.1),
    QuerySpec(table="syn", scorer="score", k=3, p_tau=0.1,
              semantics="u_kranks"),
    QuerySpec(table="syn", scorer="score", k=3, p_tau=0.1,
              semantics="global_topk"),
    QuerySpec(table="syn", scorer="score", k=3, p_tau=0.1,
              semantics="expected_ranks"),
    QuerySpec(table="syn", scorer="score", k=2, p_tau=0.1,
              algorithm="mc", samples=400, seed=9),
    QuerySpec(table="syn", scorer="score", k=2, p_tau=0.1,
              algorithm="mc", samples=400, seed=9,
              semantics="u_topk"),
]


def _tables():
    return {
        "solid": soldier_table(),
        "syn": generate_synthetic_table(
            SyntheticConfig(
                tuples=60, me_layout=MEGroupLayout(fraction=0.5)
            ),
            seed=4,
        ),
    }


def _pmf_lines(pmf):
    return [(line.score, line.prob, line.vector) for line in pmf]


def _comparable(answer):
    """A structurally comparable form of any built-in answer."""
    if hasattr(answer, "lines"):  # ScorePMF
        return _pmf_lines(answer)
    if hasattr(answer, "_asdict"):
        return {
            key: _comparable(value)
            for key, value in answer._asdict().items()
        }
    if isinstance(answer, (list, tuple)):
        return [_comparable(entry) for entry in answer]
    return answer


def _expected_lookups(specs) -> dict[str, int]:
    """Stage lookup counts one serial pass over ``specs`` performs.

    ``execute`` plans once, so it always consults the prefix cache
    once and the answer cache once; pmf-consuming semantics add one
    pmf lookup.
    """
    lookups = {"prefix": 0, "pmf": 0, "answer": 0}
    for spec in specs:
        lookups["prefix"] += 1
        lookups["answer"] += 1
        handler = get_semantics(spec.semantics)
        if handler.requires == "pmf":
            lookups["pmf"] += 1
    return lookups


def test_threaded_results_match_serial_and_counters_add_up() -> None:
    tables = _tables()
    serial_session = Session(tables)
    serial = [_comparable(serial_session.execute(spec)) for spec in SPECS]

    shared = Session(tables)
    results: list[list] = [[] for _ in range(N_THREADS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(index: int) -> None:
        # Each thread executes every spec, in a rotated order so
        # different stages collide across threads.
        order = SPECS[index:] + SPECS[:index]
        barrier.wait()
        try:
            outcome = {
                id(spec): _comparable(shared.execute(spec))
                for spec in order
            }
            results[index] = [outcome[id(spec)] for spec in SPECS]
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    for index in range(N_THREADS):
        assert results[index] == serial, f"thread {index} diverged"

    info = shared.cache_info()
    expected = _expected_lookups(SPECS)
    for stage, lookups in expected.items():
        stage_info = info[stage]
        total = stage_info["hits"] + stage_info["misses"]
        assert total == N_THREADS * lookups, (stage, stage_info)
        assert stage_info["size"] <= stage_info["maxsize"]
        # Concurrent cold misses may each compute a stage (benign:
        # deterministic results), but at most once per thread per
        # lookup, and the warm steady state guarantees real hits.
        assert stage_info["misses"] <= N_THREADS * lookups
        assert stage_info["hits"] >= lookups


def test_threaded_distribution_is_same_object_when_warm() -> None:
    """After a warm-up pass, every thread sees the cached instance."""
    shared = Session(_tables())
    spec = QuerySpec(table="solid", scorer="score", k=2, p_tau=0.0)
    warm = shared.distribution(spec)
    seen = []
    lock = threading.Lock()

    def worker() -> None:
        pmf = shared.distribution(spec)
        with lock:
            seen.append(pmf)

    threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(pmf is warm for pmf in seen)
    assert shared.cache_info()["pmf"]["hits"] == N_THREADS + 0


def test_concurrent_sessions_do_not_interfere() -> None:
    """Distinct sessions over one table stay fully isolated."""
    tables = _tables()
    sessions = [Session(tables) for _ in range(4)]
    spec = QuerySpec(table="syn", scorer="score", k=3, p_tau=0.1)
    outputs = []
    lock = threading.Lock()

    def worker(session: Session) -> None:
        value = _comparable(session.execute(spec))
        with lock:
            outputs.append(value)

    threads = [
        threading.Thread(target=worker, args=(session,))
        for session in sessions
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(outputs) == 4
    assert all(value == outputs[0] for value in outputs)
    for session in sessions:
        assert session.cache_info()["pmf"]["misses"] == 1
