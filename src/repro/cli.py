"""Command-line interface.

Usage (``python -m repro <command> ...``)::

    repro distribution table.csv --score score -k 5 --histogram 12
    repro typical table.csv --score score -k 5 -c 3
    repro answer table.csv --score score -k 5 --semantics pt_k --threshold 0.4
    repro answer table.csv --score score -k 5 --semantics typical \\
        --algorithm mc --epsilon 0.005 --confidence 0.99
    repro query "SELECT * FROM t ORDER BY score DESC LIMIT 3" --table t=table.csv
    repro generate cartel --out area.csv --seed 11 --size 100
    repro pack table.csv --out packed/       # out-of-core scored table
    repro answer packed/ --score score -k 5 --semantics typical  # prefix pushdown
    repro figures fig03 bar_standing   # the paper's claims and speed bars
    repro bench --json                  # writes BENCH_core.json
    repro bench --tiny --check BENCH_core.json   # CI perf smoke
    repro serve --table demo=synthetic:tuples=400,me=0.9 --port 8000
    repro serve --table demo=... --data-dir state/   # durable + recoverable
    repro loadgen --url http://127.0.0.1:8000 --requests 200 --expect-ok
    repro chaos --verbose              # crash-recovery differential check

Every query command routes through a :class:`~repro.api.session.Session`
and a :class:`~repro.api.spec.QuerySpec`, so one scored prefix (and one
computed distribution) serves all the outputs of a single invocation.

Tables load from ``.csv`` (the reserved-column layout of
:mod:`repro.io.csv_io`) or ``.json`` (:mod:`repro.io.json_io`).
Scores are an attribute name, or any query-layer expression when the
text is not a bare identifier.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.api import (
    DEFAULT_MC_CONFIDENCE,
    QuerySpec,
    SPEC_ALGORITHMS,
    Session,
    available_semantics,
)
from repro.core.distribution import DEFAULT_P_TAU
from repro.core.pmf import ScorePMF
from repro.core.dp import DEFAULT_MAX_LINES
from repro.exceptions import ReproError
from repro.io import load_table_file
from repro.io.csv_io import write_table_csv
from repro.io.json_io import answer_to_jsonable, pmf_to_json, write_table_json
from repro.query.engine import execute_query
from repro.stats.histogram import render_pmf
from repro.uncertain.scoring import expression_scorer
from repro.uncertain.table import UncertainTable


def load_table(path: str | Path) -> UncertainTable:
    """Load an uncertain table from a ``.csv`` or ``.json`` file."""
    return load_table_file(path)


def save_table(table: UncertainTable, path: str | Path) -> None:
    """Write ``table`` as ``.csv`` or ``.json`` based on the suffix."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        write_table_json(table, path)
    else:
        write_table_csv(table, path)


def resolve_cli_scorer(text: str):
    """The scorer spec of ``--score``: attribute name or expression.

    Bare identifiers stay *strings* (the engine resolves them to
    attribute scorers): string equality against the packing scorer is
    what lets a packed table serve the query lazily, so wrapping the
    name in a callable here would defeat the storage pushdown.
    """
    if text.replace("_", "a").isalnum() and not text[0].isdigit():
        return text
    return expression_scorer(text)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--p-tau",
        type=float,
        default=DEFAULT_P_TAU,
        help="Theorem-2 truncation threshold (0 scans everything; "
        f"default {DEFAULT_P_TAU})",
    )
    parser.add_argument(
        "--max-lines",
        type=int,
        default=DEFAULT_MAX_LINES,
        help=f"line-coalescing budget (default {DEFAULT_MAX_LINES})",
    )
    parser.add_argument(
        "--algorithm",
        choices=SPEC_ALGORITHMS,
        # None = not specified (resolves to "dp"); the sentinel keeps
        # an *explicit* --algorithm dp distinguishable, so it can
        # override an algorithm named in query text.
        default=None,
        help="which algorithm to run: a Section-3 exact algorithm, "
        "the Monte-Carlo estimator (mc), or auto to pick from the "
        "problem shape (default dp)",
    )
    group = parser.add_argument_group(
        "Monte-Carlo options (--algorithm mc)"
    )
    group.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="target confidence-interval half-width ±ε of the "
        "adaptive sample-size control (default: engine default)",
    )
    group.add_argument(
        "--confidence",
        type=float,
        default=DEFAULT_MC_CONFIDENCE,
        help="confidence level of the reported intervals "
        f"(default {DEFAULT_MC_CONFIDENCE})",
    )
    group.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="S",
        help="draw exactly S worlds instead of adapting to ±ε",
    )
    group.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sampling seed; estimates are deterministic per seed "
        "(default 0)",
    )


def spec_from_args(args: argparse.Namespace, table: UncertainTable) -> QuerySpec:
    """The :class:`QuerySpec` of a table-file command invocation."""
    return QuerySpec(
        table=table,
        scorer=resolve_cli_scorer(args.score),
        k=args.k,
        p_tau=args.p_tau,
        max_lines=args.max_lines,
        algorithm=args.algorithm or "dp",
        epsilon=args.epsilon,
        confidence=args.confidence,
        samples=args.samples,
        seed=args.seed,
    )


def cmd_distribution(args: argparse.Namespace) -> int:
    """``repro distribution``: print a top-k score distribution."""
    session = Session()
    spec = spec_from_args(args, load_table(args.table))
    pmf = session.distribution(spec)
    if args.json:
        print(pmf_to_json(pmf))
        return 0
    print(pmf.summary())
    markers = []
    if args.u_topk:
        best = session.execute(spec.with_(semantics="u_topk"))
        if best is not None:
            print(
                f"U-Top{args.k}: score {best.total_score:.4g} "
                f"(p={best.probability:.4g}) vector {best.vector}"
            )
            markers.append((best.total_score, "U-Topk"))
    if args.histogram:
        print(render_pmf(pmf, buckets=args.histogram, markers=markers))
    else:
        for line in pmf:
            print(f"  {line.score:12.4f}  {line.prob:10.6f}")
    return 0


def cmd_typical(args: argparse.Namespace) -> int:
    """``repro typical``: print c-Typical-Topk answers."""
    session = Session()
    spec = spec_from_args(args, load_table(args.table)).with_(
        semantics="typical", c=args.c
    )
    result = session.execute(spec)
    print(
        f"{args.c}-Typical-Top{args.k} "
        f"(expected distance {result.expected_distance:.4g}):"
    )
    for answer in result.answers:
        vector = ",".join(str(t) for t in answer.vector or ())
        print(f"  score {answer.score:12.4f}  p={answer.prob:.6f}  "
              f"[{vector}]")
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    """``repro answer``: run any registered answer semantics."""
    session = Session()
    spec = spec_from_args(args, load_table(args.table)).with_(
        semantics=args.semantics, c=args.c, threshold=args.threshold
    )
    answer = session.execute(spec)
    if args.json:
        if isinstance(answer, ScorePMF):
            # The exact pmf document shape: round-trips through
            # repro.io.json_io.pmf_from_json (vector-less lines too).
            print(pmf_to_json(answer))
        else:
            print(json.dumps(answer_to_jsonable(answer), default=str))
        return 0
    print(f"semantics {args.semantics} (k={args.k}):")
    if answer is None:
        print("  (no answer)")
    elif hasattr(answer, "summary"):  # the raw distribution
        print(answer.summary())
    elif isinstance(answer, list):  # marginal semantics: one row each
        for entry in answer:
            print(f"  {entry}")
    else:
        print(f"  {answer}")
    return 0


def _render_explain(document: dict) -> str:
    """Human-readable EXPLAIN tree (the ``--json`` flag gives the raw
    document)."""
    spec = document["spec"]
    physical = document["physical"]
    lines = [
        f"plan: {spec['semantics']} top-{spec['k']} over "
        f"{spec['table']} (algorithm {physical['algorithm']})"
    ]
    for note in physical.get("notes", ()):
        lines.append(f"  note: {note}")
    for op in physical["operators"]:
        params = " ".join(
            f"{key}={value}" for key, value in op["params"].items()
        )
        cost = (
            f"  ~{op['cost_units']:.0f} units, est {op['est_ms']} ms"
            if "cost_units" in op
            else ""
        )
        lines.append(f"  -> {op['op']}  {params}{cost}")
    lines.append(
        "  total: ~{0:.0f} units, est {1} ms".format(
            physical["total_cost_units"], physical["total_est_ms"]
        )
    )
    cache = document["cache"]
    lines.append(
        "cache: "
        + " ".join(f"{stage}={state}" for stage, state in cache.items())
    )
    model = document["cost_model"]
    lines.append(
        f"cost model: {model['source']} "
        f"(k_combo<={model['k_combo_max_combinations']}, "
        f"state_depth<={model['state_expansion_max_depth']}, "
        f"mc_budget={model['mc_cost_budget']})"
    )
    return "\n".join(lines)


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: show a request's physical plan, not answers."""
    session = Session()
    spec = spec_from_args(args, load_table(args.table)).with_(
        semantics=args.semantics, c=args.c, threshold=args.threshold
    )
    document = session.explain(spec)
    if args.json:
        print(json.dumps(document, indent=2, default=str))
    else:
        print(_render_explain(document))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """``repro calibrate``: measure per-unit costs, persist constants."""
    from repro.api.calibration import run_calibration, write_calibration

    document = run_calibration(
        target_ms=args.target_ms,
        small_case_ms=args.small_case_ms,
        repeats=args.repeats,
    )
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for name, value in document["constants"].items():
            print(f"{name:28s} {value}")
        native = document["backends"]["native"]
        if native["available"]:
            print(
                "native kernel: available "
                f"({native['strategy']}, {native['path']})"
            )
        else:
            print(f"native kernel: unavailable ({native['error']})")
    if args.dry_run:
        print("dry run: nothing persisted")
        return 0
    path = write_calibration(document, args.out)
    print(f"wrote {path} (planners pick it up on next start; "
          "REPRO_CALIBRATION overrides the path)")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: execute a SQL-like top-k query."""
    session = Session()
    for binding in args.table:
        name, _, path = binding.partition("=")
        if not path:
            raise ReproError(
                f"--table expects name=path, got {binding!r}"
            )
        session.register(name, load_table(path))
    result = execute_query(
        args.sql,
        session,
        p_tau=args.p_tau,
        max_lines=args.max_lines,
        algorithm=args.algorithm,
        epsilon=args.epsilon,
        confidence=args.confidence,
        samples=args.samples,
        seed=args.seed,
    )
    print(result.pmf.summary())
    if result.u_topk is not None:
        print(
            f"U-Topk: score {result.u_topk.total_score:.4g} "
            f"(p={result.u_topk.probability:.4g})"
        )
    for row in result.answers:
        print(f"typical score {row.score:.4f} (p={row.probability:.6f}):")
        for t in row.tuples:
            print(f"    {json.dumps(t, default=str)}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic dataset to disk."""
    if args.dataset == "soldier":
        from repro.datasets.soldier import (
            generate_soldier_table,
            soldier_table,
        )

        table = (
            soldier_table()
            if args.size is None
            else generate_soldier_table(args.size, seed=args.seed)
        )
    elif args.dataset == "cartel":
        from repro.datasets.cartel import CartelConfig, generate_cartel_area

        config = CartelConfig(segments=args.size or 120)
        table = generate_cartel_area(config=config, seed=args.seed)
    else:
        from repro.datasets.synthetic import (
            SyntheticConfig,
            generate_synthetic_table,
        )

        config = SyntheticConfig(tuples=args.size or 300)
        table = generate_synthetic_table(config, seed=args.seed)
    save_table(table, args.out)
    print(
        f"wrote {len(table)} tuples "
        f"({len(table.explicit_rules)} ME rules) to {args.out}"
    )
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    """``repro pack``: convert a table source to the on-disk format."""
    from repro.datasets.specs import generate_from_spec, is_generator_spec
    from repro.storage import pack_table

    if is_generator_spec(args.source):
        table = generate_from_spec(args.source)
    else:
        table = load_table(args.source)
    summary = pack_table(
        table, args.out, scorer=args.scorer, page_size=args.page_size
    )
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"packed {summary['tuples']} tuples "
            f"({summary['explicit_rules']} ME rules, "
            f"{summary['pages']} pages of {summary['page_size']}, "
            f"{summary['bytes']} bytes) into {summary['path']}"
        )
        print(
            f"serve it with --table name=disk:{summary['path']} or "
            f"query it directly: repro answer {summary['path']} "
            f"--score {summary['scorer']} -k 5"
        )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: run and check the paper's claims and the bars."""
    from repro.bench.figures import main as figures_main

    return figures_main(args.names)


def _serve_until_signalled(server: Any, drain_timeout: float) -> None:
    """Run the accept loop until SIGTERM/SIGINT, then drain gracefully.

    The handler only flips a flag (``Event.set`` from a signal handler
    can deadlock against a main thread blocked in ``Event.wait``); the
    main thread polls it in an interruptible sleep.  On signal: stop
    accepting, finish every admitted request, flush and close the WALs
    — the durable tail then holds exactly the acknowledged writes.
    """
    import signal
    import threading
    import time as time_module

    stop_flags: list[int] = []

    def _on_signal(signum: int, frame: Any) -> None:
        stop_flags.append(signum)

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    accept_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    accept_thread.start()
    try:
        while not stop_flags:
            time_module.sleep(0.1)
        name = signal.Signals(stop_flags[0]).name
        print(
            f"repro serve: {name} received, draining "
            f"(timeout {drain_timeout:g}s)...",
            flush=True,
        )
        server.graceful_shutdown(timeout=drain_timeout)
        accept_thread.join(timeout=5.0)
        print("repro serve: drained, WALs closed", flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _print_boot_report(
    server: Any, config: Any, documents: list[dict[str, Any]]
) -> None:
    """Print what each service replica loaded, recovered and restored
    (its :func:`~repro.service.worker.boot_document`): the in-process
    server lists its tables, a sharded one each worker and its WALs."""
    sharded = len(documents) > 1
    mode = "batched" if config.batched else "unbatched (naive per-request)"
    if sharded:
        mode += f", {len(documents)} worker processes"
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} ({mode})")
    indent = "    " if sharded else "  "
    for document in documents:
        if sharded:
            print(
                f"  worker w{document['worker']}: replicates "
                f"{len(document['tables'])} tables, owns WAL for "
                f"{document['wal_tables'] or 'none'}"
            )
        else:
            for name, info in document["tables"].items():
                print(
                    f"  table {name}: {info['tuples']} tuples "
                    f"({info['me_rules']} ME rules) from {info['source']}"
                )
        for name, info in sorted(document.get("recovery", {}).items()):
            print(
                f"{indent}recovered {name}: version {info['version']} "
                f"(snapshot {info['snapshot_version']} + "
                f"{info['replayed']} WAL records, "
                f"{info['truncated_bytes']} torn bytes truncated)"
            )
        for sid in document["restored_subscriptions"]:
            print(f"{indent}restored subscription {sid}")
        for sid, reason in sorted(document["failed_subscriptions"].items()):
            print(
                f"{indent}FAILED to restore subscription {sid}: {reason}",
                file=sys.stderr,
            )
        if "faults" in document:
            print(f"{indent}fault injection armed: {document['faults']}")
    print("endpoints: POST /v1/answer /v1/distribution /v1/typical "
          "/v1/mutate /v1/subscribe /v1/unsubscribe /v1/reload; "
          "GET /v1/watch /healthz /metrics", flush=True)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the batching concurrent query service.

    ``--workers 1`` (the default) serves in process, as worker 0 of 1;
    ``--workers N`` forks N worker processes, each owning a
    consistent-hash shard of the ``(table, p_tau)`` space (see
    :mod:`repro.service.router`).  Either way the flags become one
    :class:`~repro.service.worker.WorkerConfig`, and every service
    replica comes from :func:`~repro.service.worker.build_service`.
    """
    from repro.service import (
        ServiceHTTPServer,
        WorkerConfig,
        load_catalog_file,
        make_sharded_server,
        parse_binding,
    )
    from repro.service.worker import boot_document, build_service

    bindings: dict[str, str] = {}
    if args.catalog:
        bindings.update(load_catalog_file(args.catalog))
    for binding in args.table:
        name, source = parse_binding(binding)
        bindings[name] = source
    config = WorkerConfig(
        cache_size=args.cache_size,
        threads=args.threads,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batched=not args.unbatched,
        request_timeout_s=args.request_timeout,
        degrade=not args.no_degrade,
        degrade_deadline_s=args.degrade_deadline,
        degrade_queue_depth=args.degrade_queue,
        data_dir=args.data_dir,
        snapshot_every=args.snapshot_every,
        warm=args.warm,
    )
    if args.workers > 1:
        server = make_sharded_server(
            bindings,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            workers=args.workers,
            config=config,
        )
        documents = server.service.pool.boot_documents
    else:
        service = build_service(0, 1, bindings, config)
        server = ServiceHTTPServer(
            (args.host, args.port), service, verbose=args.verbose
        )
        documents = [boot_document(0, service)]
    _print_boot_report(server, config, documents)
    _serve_until_signalled(server, args.drain_timeout)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: drive a running service with mixed traffic."""
    from repro.service import run_loadgen

    result = run_loadgen(
        args.url,
        requests=args.requests,
        concurrency=args.concurrency,
        tables=args.table or None,
        scorer=args.score,
        seed=args.seed,
        timeout=args.timeout,
        processes=args.processes,
    )
    print(json.dumps(result.summary(), indent=2))
    if args.expect_ok and result.ok != result.requests:
        print(
            f"error: only {result.ok}/{result.requests} requests "
            "returned 200",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    """``repro mutate``: apply one mutation to a served table."""
    import urllib.error
    import urllib.request

    payload: dict[str, Any] = {
        "table": args.table,
        "op": args.op,
        "tid": args.tid,
    }
    if args.probability is not None:
        payload["probability"] = args.probability
    if args.attr:
        attributes: dict[str, Any] = {}
        for item in args.attr:
            name, sep, value = item.partition("=")
            if not sep or not name:
                print(f"error: --attr must be name=value, got {item!r}",
                      file=sys.stderr)
                return 2
            try:
                attributes[name] = float(value)
            except ValueError:
                attributes[name] = value
        payload["attributes"] = attributes
    if args.group_with is not None:
        payload["group_with"] = args.group_with
    request = urllib.request.Request(
        f"{args.url.rstrip('/')}/v1/mutate",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as r:
            document = json.loads(r.read())
    except urllib.error.HTTPError as exc:
        print(exc.read().decode(), file=sys.stderr)
        return 1
    print(json.dumps(document, indent=2))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: subscribe to a standing query and stream it.

    The stream auto-reconnects: each SSE event carries an ``id:`` (the
    change-log version), and on a dropped connection the client retries
    with exponential backoff plus jitter, resuming via the
    ``Last-Event-ID`` header — the server replays everything past that
    version, so a server restart (or a flaky proxy) never silently ends
    a watch or skips an update.
    """
    import random
    import time
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    body: dict[str, Any] = {
        "table": args.table,
        "scorer": args.score,
        "k": args.k,
        "semantics": args.semantics,
    }
    if args.p_tau is not None:
        body["p_tau"] = args.p_tau
    request = urllib.request.Request(
        f"{base}/v1/subscribe",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as r:
            subscription = json.loads(r.read())
    except urllib.error.HTTPError as exc:
        print(exc.read().decode(), file=sys.stderr)
        return 1
    sid = subscription["sid"]
    print(json.dumps(subscription, indent=2), flush=True)
    last_id = int(subscription["version"])
    received = 0
    failures = 0
    rng = random.Random()
    deadline = time.monotonic() + args.timeout
    try:
        while received < args.count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            poll_s = max(1.0, min(remaining, 30.0))
            watch_url = (
                f"{base}/v1/watch?sid={sid}&count={args.count - received}"
                f"&timeout_s={poll_s:.1f}"
            )
            stream_request = urllib.request.Request(
                watch_url, headers={"Last-Event-ID": str(last_id)}
            )
            try:
                with urllib.request.urlopen(
                    stream_request, timeout=poll_s + 5
                ) as stream:
                    failures = 0
                    for raw in stream:
                        line = raw.decode().rstrip("\n")
                        if line.startswith("id: "):
                            try:
                                last_id = int(line.removeprefix("id: "))
                            except ValueError:
                                pass
                        elif line.startswith("data: "):
                            payload = line.removeprefix("data: ")
                            if payload != "{}":  # skip the end marker
                                print(payload, flush=True)
                                received += 1
                # A clean end-of-stream is just the long-poll expiring;
                # loop around and reconnect immediately.
            except urllib.error.HTTPError as exc:
                # e.g. the subscription is gone for good (404): fatal.
                print(exc.read().decode(), file=sys.stderr)
                return 1
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError) as exc:
                failures += 1
                if failures > args.max_retries:
                    print(
                        f"error: watch gave up after {args.max_retries} "
                        "consecutive failed reconnects",
                        file=sys.stderr,
                    )
                    return 1
                delay = min(args.max_backoff,
                            args.backoff * 2 ** (failures - 1))
                delay *= 0.5 + rng.random()  # jitter: 0.5x .. 1.5x
                delay = min(delay, max(0.0, deadline - time.monotonic()))
                print(
                    f"watch: connection lost ({exc}); reconnect "
                    f"{failures}/{args.max_retries} in {delay:.2f}s "
                    f"(resume after version {last_id})",
                    file=sys.stderr,
                )
                time.sleep(delay)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: crash-recovery differential check, end to end."""
    import tempfile

    from repro.service.chaos import run_chaos

    if args.data_dir is not None:
        report = run_chaos(
            data_dir=args.data_dir,
            tuples=args.tuples,
            mutations=args.mutations,
            seed=args.seed,
            faults=args.faults,
            snapshot_every=args.snapshot_every,
            verbose=args.verbose,
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            report = run_chaos(
                data_dir=tmp,
                tuples=args.tuples,
                mutations=args.mutations,
                seed=args.seed,
                faults=args.faults,
                snapshot_every=args.snapshot_every,
                verbose=args.verbose,
            )
    print(json.dumps(report, indent=2))
    print(
        f"chaos ok: {report['crash']} after {report['mutations_acked']} "
        f"acked mutations; recovered answers == cold recompute"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run (and persist/check) the core perf baseline."""
    from repro.bench.baseline import (
        check_against_baseline,
        read_baseline,
        run_baseline,
        uncompared_backends,
        write_baseline,
    )

    data = run_baseline(tiny_only=args.tiny, repeats=args.repeats)
    for name, entry in data["workloads"].items():
        times = "".join(
            f"  {backend} {seconds * 1e3:9.2f} ms"
            for backend, seconds in entry.items()
        )
        print(f"{name:36s}{times}")
    if args.json is not None:
        write_baseline(data, args.json)
        print(f"wrote {args.json}")
    if args.check is not None:
        committed = read_baseline(args.check)
        violations = check_against_baseline(data, committed)
        violations += [
            f"{backend}: not compared, {args.check} holds no {backend} "
            "timing for any workload this run timed"
            for backend in uncompared_backends(data, committed)
        ]
        if violations:
            for line in violations:
                print(f"PERF REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"perf guard ok (vs {args.check})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Top-k queries on uncertain data: score distributions and "
            "typical answers (SIGMOD 2009 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "distribution", help="compute a top-k score distribution"
    )
    p.add_argument("table", help="table file (.csv or .json)")
    p.add_argument("--score", required=True,
                   help="attribute name or scoring expression")
    p.add_argument("-k", type=int, required=True, help="top-k size")
    p.add_argument("--histogram", type=int, default=0, metavar="BUCKETS",
                   help="render an ASCII histogram with this many buckets")
    p.add_argument("--u-topk", action="store_true",
                   help="also compute and mark the U-Topk answer")
    p.add_argument("--json", action="store_true",
                   help="emit the distribution as JSON")
    _add_common_options(p)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("typical", help="compute c-Typical-Topk answers")
    p.add_argument("table", help="table file (.csv or .json)")
    p.add_argument("--score", required=True,
                   help="attribute name or scoring expression")
    p.add_argument("-k", type=int, required=True, help="top-k size")
    p.add_argument("-c", type=int, default=3,
                   help="number of typical answers (default 3)")
    _add_common_options(p)
    p.set_defaults(func=cmd_typical)

    p = sub.add_parser(
        "answer", help="run any registered answer semantics"
    )
    p.add_argument("table", help="table file (.csv or .json)")
    p.add_argument("--score", required=True,
                   help="attribute name or scoring expression")
    p.add_argument("-k", type=int, required=True, help="top-k size")
    p.add_argument("--semantics", required=True,
                   choices=available_semantics(),
                   help="registered answer semantics to run")
    p.add_argument("-c", type=int, default=3,
                   help="typical-answer count (semantics=typical)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="membership threshold (semantics=pt_k)")
    p.add_argument("--json", action="store_true",
                   help="emit the answer as JSON (distributions use "
                   "the pmf document shape)")
    _add_common_options(p)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser(
        "explain",
        help="show a request's logical/physical plan and cost estimates",
    )
    p.add_argument("table", help="table file (.csv or .json)")
    p.add_argument("--score", required=True,
                   help="attribute name or scoring expression")
    p.add_argument("-k", type=int, required=True, help="top-k size")
    p.add_argument("--semantics", default="typical",
                   choices=available_semantics(),
                   help="answer semantics to plan for (default typical)")
    p.add_argument("-c", type=int, default=3,
                   help="typical-answer count (semantics=typical)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="membership threshold (semantics=pt_k)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw EXPLAIN document as JSON")
    _add_common_options(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "calibrate",
        help="measure per-machine planner constants and persist them",
    )
    p.add_argument("--target-ms", type=float, default=1000.0,
                   help="exact-DP latency budget backing the mc "
                   "escape hatch (default 1000)")
    p.add_argument("--small-case-ms", type=float, default=0.5,
                   help="budget defining 'trivially small' baseline "
                   "inputs (default 0.5)")
    p.add_argument("--repeats", type=int, default=3,
                   help="best-of repeats per probe (default 3)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="calibration file path (default "
                   "~/.cache/repro/calibration.json or "
                   "$REPRO_CALIBRATION)")
    p.add_argument("--json", action="store_true",
                   help="print the full calibration document")
    p.add_argument("--dry-run", action="store_true",
                   help="measure and print, but persist nothing")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("query", help="run a SQL-like top-k query")
    p.add_argument("sql", help="the query text")
    p.add_argument("--table", action="append", default=[],
                   metavar="NAME=PATH", help="bind a table file to a name")
    _add_common_options(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("generate", help="generate a dataset file")
    p.add_argument("dataset", choices=("soldier", "cartel", "synthetic"))
    p.add_argument("--out", required=True, help="output path (.csv/.json)")
    p.add_argument("--size", type=int, default=None,
                   help="soldiers / segments / tuples (dataset-specific)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "pack",
        help="pack a table into the out-of-core scored format",
    )
    p.add_argument("source",
                   help="table file (.csv/.json) or generator spec "
                   "(synthetic:tuples=1000000,me=0.5,...)")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory (becomes the packed table)")
    p.add_argument("--scorer", default="score", metavar="ATTR",
                   help="numeric attribute the rank order is built on; "
                   "queries scoring by it are served by scan-depth "
                   "pushdown (default score)")
    p.add_argument("--page-size", type=int, default=4096, metavar="N",
                   help="rows per page — the decode/caching unit "
                   "(default 4096)")
    p.add_argument("--json", action="store_true",
                   help="print the pack summary as JSON")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser(
        "figures",
        help="run the paper-figure experiments and the speed bars, "
        "checking each claim",
    )
    p.add_argument("names", nargs="*",
                   help="experiment or bar names (default: all)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "serve", help="run the batching concurrent query service"
    )
    p.add_argument("--table", action="append", default=[],
                   metavar="NAME=SOURCE",
                   help="catalog binding: a table file path or a "
                   "generator spec (synthetic:tuples=400,me=0.9,...)")
    p.add_argument("--catalog", default=None, metavar="FILE",
                   help='JSON catalog file {"tables": {name: source}}')
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="listen port (0 picks a free port; default 8000)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, each owning a consistent-"
                   "hash shard of the (table, p_tau) space (default 1 "
                   "= serve in process)")
    p.add_argument("--threads", type=int, default=2,
                   help="executor threads per worker (default 2)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="S",
                   help="graceful-shutdown budget: how long SIGTERM/"
                   "SIGINT waits for in-flight requests before a hard "
                   "stop (default 10)")
    p.add_argument("--max-queue", type=int, default=128,
                   help="pending-request bound before 429 (default 128)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="largest micro-batch (default 32)")
    p.add_argument("--cache-size", type=int, default=64,
                   help="per-stage LRU capacity of the shared session")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="per-request deadline in seconds (default 30)")
    p.add_argument("--warm", type=int, default=None, metavar="K",
                   help="precompute each table's top-K distribution "
                   "at startup")
    p.add_argument("--unbatched", action="store_true",
                   help="serve naively, one cold session per request "
                   "(the benchmark baseline)")
    p.add_argument("--data-dir", default=None, metavar="DIR",
                   help="durable state directory: per-table WAL + "
                   "snapshots and the subscription manifest; on boot, "
                   "tables and subscriptions recover to their exact "
                   "pre-crash state")
    p.add_argument("--snapshot-every", type=int, default=256,
                   metavar="N",
                   help="compact each table's WAL into a snapshot "
                   "every N records (default 256)")
    p.add_argument("--no-degrade", action="store_true",
                   help="disable graceful degradation: overloaded or "
                   "breaker-tripped exact queries fail instead of "
                   "falling back to Monte-Carlo answers")
    p.add_argument("--degrade-deadline", type=float, default=0.5,
                   metavar="S",
                   help="degrade exact work when the remaining request "
                   "budget drops to S seconds (default 0.5)")
    p.add_argument("--degrade-queue", type=int, default=64,
                   metavar="N",
                   help="degrade new exact work once N requests are "
                   "pending (default 64)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen", help="drive a running service with mixed traffic"
    )
    p.add_argument("--url", default="http://127.0.0.1:8000",
                   help="service base URL (default http://127.0.0.1:8000)")
    p.add_argument("--requests", type=int, default=100,
                   help="total requests to issue (default 100)")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed-loop client threads (default 8)")
    p.add_argument("--processes", type=int, default=1,
                   help="client processes, each running --concurrency "
                   "threads (default 1; use >1 against a multi-worker "
                   "server so the generator's GIL is not the bottleneck)")
    p.add_argument("--table", action="append", default=[],
                   metavar="NAME",
                   help="restrict to these catalog tables "
                   "(default: discover via /healthz)")
    p.add_argument("--score", default="score",
                   help="scorer attribute name (default score)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload shuffle seed (default 0)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-request client timeout in seconds")
    p.add_argument("--expect-ok", action="store_true",
                   help="exit nonzero unless every request returned 200")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "mutate", help="apply one mutation to a served catalog table"
    )
    p.add_argument("--url", default="http://127.0.0.1:8000",
                   help="service base URL (default http://127.0.0.1:8000)")
    p.add_argument("--table", required=True, help="catalog table name")
    p.add_argument("--op", required=True,
                   choices=["insert", "expire", "update_probability",
                            "update_score"],
                   help="the mutation operation")
    p.add_argument("--tid", required=True, help="affected tuple id")
    p.add_argument("--probability", type=float, default=None,
                   help="membership probability (insert / "
                   "update_probability)")
    p.add_argument("--attr", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="attribute value (repeatable; numeric when it "
                   "parses, else string)")
    p.add_argument("--group-with", default=None, metavar="TID",
                   help="join this tuple's ME group (insert only)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="client timeout in seconds")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser(
        "watch", help="subscribe to a standing query and stream updates"
    )
    p.add_argument("--url", default="http://127.0.0.1:8000",
                   help="service base URL (default http://127.0.0.1:8000)")
    p.add_argument("--table", required=True, help="catalog table name")
    p.add_argument("--score", default="score",
                   help="scorer attribute name (default score)")
    p.add_argument("-k", type=int, required=True, help="top-k size")
    p.add_argument("--semantics", default="u_topk",
                   choices=available_semantics(),
                   help="answer semantics (default u_topk)")
    p.add_argument("--p-tau", type=float, default=None,
                   help="Theorem-2 truncation threshold")
    p.add_argument("--count", type=int, default=10,
                   help="stop after this many updates (default 10)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="stream lifetime in seconds (default 60)")
    p.add_argument("--max-retries", type=int, default=5,
                   help="consecutive failed reconnects before giving "
                   "up (default 5)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="initial reconnect backoff in seconds, doubled "
                   "per consecutive failure with jitter (default 0.5)")
    p.add_argument("--max-backoff", type=float, default=10.0,
                   metavar="S",
                   help="reconnect backoff ceiling (default 10)")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "chaos",
        help="crash a fault-injected server mid-burst and assert "
        "byte-identical recovery",
    )
    p.add_argument("--data-dir", default=None, metavar="DIR",
                   help="working directory for durable state and "
                   "server logs (default: a fresh temp dir)")
    p.add_argument("--tuples", type=int, default=60,
                   help="synthetic base-table size (default 60)")
    p.add_argument("--mutations", type=int, default=40,
                   help="mutation-burst length (default 40)")
    p.add_argument("--seed", type=int, default=11,
                   help="burst + fault-injection seed (default 11)")
    p.add_argument("--faults", default="wal_torn_write:0.08",
                   metavar="SPEC",
                   help="REPRO_FAULTS spec for the first server "
                   "(default wal_torn_write:0.08)")
    p.add_argument("--snapshot-every", type=int, default=16,
                   metavar="N",
                   help="WAL compaction interval, small on purpose so "
                   "recovery crosses a snapshot (default 16)")
    p.add_argument("--verbose", action="store_true",
                   help="narrate each phase")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "bench", help="run the core perf baseline workloads"
    )
    p.add_argument("--json", nargs="?", const="BENCH_core.json",
                   default=None, metavar="PATH",
                   help="write the machine-readable baseline "
                   "(default path BENCH_core.json)")
    p.add_argument("--tiny", action="store_true",
                   help="run only the tiny CI perf-smoke workloads")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats per workload (best-of, default 3)")
    p.add_argument("--check", metavar="PATH", default=None,
                   help="compare against a committed baseline file and "
                   "fail on a >3x slowdown, or when a timed backend "
                   "has no timing there")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
