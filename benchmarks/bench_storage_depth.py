"""Benchmark: out-of-core scan-depth pushdown at 100k and 1M tuples.

Packs synthetic tables of increasing size, then measures a
depth-bounded ``typical`` query on the lazy disk path versus the fully
resident path.  Each measurement runs in a **subprocess** so
``resource.getrusage`` peak-RSS numbers are honest per-path footprints
rather than whatever the parent already touched.

Two bars (enforced in full mode, reported in ``--tiny``):

* **Latency scales with depth, not table size** — at a fixed explicit
  depth the lazy query's latency from the smallest to the largest
  table grows by at most ``1.5x``, because the pushdown only pages in
  the prefix it scans.
* **Memory scales with depth, not table size** — the lazy probe's RSS
  growth over an import-only baseline stays under ``10%`` of the
  resident probe's growth at the largest size.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage_depth.py
    PYTHONPATH=src python benchmarks/bench_storage_depth.py --tiny \
        --json bench_storage_depth.json

The nightly workflow runs the full sizes and uploads the JSON
artifact; the CI tests job runs ``--tiny`` as a smoke check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Full-run table sizes (nightly) and the smoke sizes (CI ``--tiny``).
FULL_SIZES = (100_000, 1_000_000)
TINY_SIZES = (2_000, 10_000)

#: Query shape.  The explicit depth keeps the scanned prefix — and so
#: the I/O the lazy path is allowed — identical at every table size.
#: The shape stays in exact-DP territory on purpose: the solver's
#: working set is then small and constant, so the RSS comparison
#: isolates what the *table* path materializes.
K = 5
P_TAU = 1e-3
DEPTH = 200

LATENCY_GROWTH_BAR = 1.5
RSS_FRACTION_BAR = 0.10
PROBE_ROUNDS = 3


# ----------------------------------------------------------------------
# Subprocess probes (``--probe``): emit one JSON line and exit.
# ----------------------------------------------------------------------
def _maxrss_kb() -> int:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss


def _spec():
    from repro.api.spec import QuerySpec

    return QuerySpec(
        table="t",
        scorer="score",
        k=K,
        semantics="typical",
        p_tau=P_TAU,
        depth=DEPTH,
    )


def run_probe(mode: str, packed: str, size: int = 0) -> dict:
    from repro.api.session import Session
    from repro.storage import open_table

    if mode == "pack":
        # Packing a 1M-tuple table peaks >1 GiB, and on Linux
        # ``ru_maxrss`` survives fork+exec — if the *driver* packed,
        # every probe child would inherit that peak as its floor and
        # all deltas would vanish.  So packing is a probe too.
        from repro.datasets.synthetic import (
            MEGroupLayout,
            SyntheticConfig,
            generate_synthetic_table,
        )
        from repro.storage import pack_table

        table = generate_synthetic_table(
            SyntheticConfig(
                tuples=size, me_layout=MEGroupLayout(fraction=0.3)
            ),
            seed=97,
        )
        t0 = time.perf_counter()
        summary = pack_table(table, packed)
        return {
            "mode": mode,
            "bytes": summary["bytes"],
            "pack_s": round(time.perf_counter() - t0, 3),
        }

    table = open_table(packed)
    if mode == "base":
        # Import + open cost only: the RSS floor both query probes
        # share, so deltas isolate what the *query* touched.
        return {"mode": mode, "latency_s": 0.0, "maxrss_kb": _maxrss_kb()}
    if mode == "resident":
        table.tuples  # loads the whole relation
    session = Session({"t": table})
    spec = _spec()
    t0 = time.perf_counter()
    answer = session.execute(spec)
    latency = time.perf_counter() - t0
    return {
        "mode": mode,
        "latency_s": latency,
        "maxrss_kb": _maxrss_kb(),
        "answer_len": len(answer.answers),
        "resident": table.is_resident,
    }


def _probe(mode: str, packed: Path, size: int = 0) -> dict:
    """Best-of-N latency, worst-of-N RSS, each N a fresh process.

    Only the lazy path's latency feeds a bar, so only it repeats;
    base and resident probes run once (RSS is stable per process).
    """
    results = []
    for _ in range(PROBE_ROUNDS if mode == "lazy" else 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", mode,
             "--packed", str(packed), "--size", str(size)],
            capture_output=True,
            text=True,
            env=os.environ,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"probe {mode} failed:\n{proc.stdout}\n{proc.stderr}"
            )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if mode == "pack":
        return results[0]
    return {
        "mode": mode,
        "latency_s": min(r["latency_s"] for r in results),
        "maxrss_kb": max(r["maxrss_kb"] for r in results),
    }


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def _pack(size: int, root: Path) -> tuple[Path, dict]:
    out = root / f"packed-{size}"
    return out, _probe("pack", out, size)


def run_bench(sizes: tuple[int, ...], enforce: bool) -> dict:
    root = Path(tempfile.mkdtemp(prefix="repro-bench-storage-"))
    rows = []
    try:
        for size in sizes:
            packed, summary = _pack(size, root)
            base = _probe("base", packed)
            lazy = _probe("lazy", packed)
            resident = _probe("resident", packed)
            lazy_delta = max(0, lazy["maxrss_kb"] - base["maxrss_kb"])
            res_delta = max(1, resident["maxrss_kb"] - base["maxrss_kb"])
            rows.append(
                {
                    "tuples": size,
                    "packed_bytes": summary["bytes"],
                    "pack_s": summary["pack_s"],
                    "lazy_latency_s": lazy["latency_s"],
                    "resident_latency_s": resident["latency_s"],
                    "base_rss_kb": base["maxrss_kb"],
                    "lazy_rss_kb": lazy["maxrss_kb"],
                    "resident_rss_kb": resident["maxrss_kb"],
                    "lazy_rss_delta_kb": lazy_delta,
                    "resident_rss_delta_kb": res_delta,
                    "rss_fraction": round(lazy_delta / res_delta, 4),
                }
            )
            print(
                f"  {size:>9,} tuples: lazy {lazy['latency_s'] * 1e3:8.2f} ms"
                f"  resident {resident['latency_s'] * 1e3:8.2f} ms"
                f"  rss lazy +{lazy_delta:,} KiB"
                f" vs resident +{res_delta:,} KiB"
                f" ({100 * lazy_delta / res_delta:.1f}%)"
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    growth = rows[-1]["lazy_latency_s"] / max(
        rows[0]["lazy_latency_s"], 1e-9
    )
    fraction = rows[-1]["rss_fraction"]
    document = {
        "benchmark": "storage_depth",
        "k": K,
        "p_tau": P_TAU,
        "depth": DEPTH,
        "sizes": list(sizes),
        "rows": rows,
        "latency_growth": round(growth, 3),
        "latency_growth_bar": LATENCY_GROWTH_BAR,
        "rss_fraction": fraction,
        "rss_fraction_bar": RSS_FRACTION_BAR,
        "enforced": enforce,
    }
    print(
        f"latency growth {sizes[0]:,} -> {sizes[-1]:,} at depth {DEPTH}:"
        f" {growth:.2f}x (bar {LATENCY_GROWTH_BAR}x)"
    )
    print(
        f"lazy RSS delta at {sizes[-1]:,}: {100 * fraction:.1f}% of"
        f" resident (bar {100 * RSS_FRACTION_BAR:.0f}%)"
    )
    if enforce:
        assert growth <= LATENCY_GROWTH_BAR, (
            f"fixed-depth latency grew {growth:.2f}x from {sizes[0]:,}"
            f" to {sizes[-1]:,} tuples (bar {LATENCY_GROWTH_BAR}x):"
            " the pushdown is paging more than the prefix"
        )
        assert fraction < RSS_FRACTION_BAR, (
            f"lazy query RSS is {100 * fraction:.1f}% of the resident"
            f" footprint (bar {100 * RSS_FRACTION_BAR:.0f}%):"
            " the depth-bounded path is materializing the table"
        )
        print("bars: PASS")
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small sizes, bars reported but not enforced (CI smoke)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the results document here"
    )
    parser.add_argument(
        "--probe", choices=("pack", "base", "lazy", "resident")
    )
    parser.add_argument("--packed", help="packed dir (probe mode)")
    parser.add_argument("--size", type=int, default=0)
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(run_probe(args.probe, args.packed, args.size)))
        return 0

    sizes = TINY_SIZES if args.tiny else FULL_SIZES
    print(
        f"bench_storage_depth: sizes={sizes}, k={K}, p_tau={P_TAU},"
        f" depth={DEPTH}"
    )
    document = run_bench(sizes, enforce=not args.tiny)
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
