"""Peak-RSS harness for the record-store backends (docs/PERFORMANCE.md).

Reproduces the measurement behind the "Record-store backends and the
1M-record RSS budget" table: insert N unique ``(fingerprint, location)``
records into ONE store of each backend, each in a fresh subprocess, and
record the subprocess's peak RSS (``resource.getrusage``), the store file
size, and insert throughput.

Usage::

    PYTHONPATH=src python benchmarks/measure_rss.py --records 1000000
    PYTHONPATH=src python benchmarks/measure_rss.py --records 100000 \
        --backends memory wal --json rss.json

A fresh process per backend matters: peak RSS is a high-water mark, so
measuring two backends in one process would charge the second for the
first's peak.  Records are generated in bounded batches (never a full
in-memory list), so the harness itself adds only a few MiB over the
interpreter baseline -- what's measured is the store.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

BATCH = 10_000


def _measure_in_this_process(backend: str, records: int, db_dir: str) -> dict:
    from repro.core.fingerprint import synthetic_fingerprint
    from repro.salad.records import SaladRecord
    from repro.salad.storage import make_record_store

    store = make_record_store(backend, db_dir=db_dir, name="rss")
    start = time.perf_counter()
    for base in range(0, records, BATCH):
        batch = [
            SaladRecord(
                fingerprint=synthetic_fingerprint(1024 + i % 4096, i),
                location=i % 97,
            )
            for i in range(base, min(base + BATCH, records))
        ]
        store.insert_many(batch)
    seconds = time.perf_counter() - start
    stored = len(store)
    store.close()
    file_bytes = (
        store.path.stat().st_size if getattr(store, "path", None) else None
    )
    return {
        "backend": backend,
        "records": records,
        "stored": stored,
        "insert_seconds": seconds,
        "inserts_per_sec": records / seconds if seconds else None,
        "store_file_bytes": file_bytes,
        # ru_maxrss is KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(backend: str, records: int) -> dict:
    """One backend's measurement, isolated in a fresh subprocess."""
    with tempfile.TemporaryDirectory(prefix="rss-") as db_dir:
        out = subprocess.run(
            [
                sys.executable,
                __file__,
                "--worker",
                backend,
                "--records",
                str(records),
                "--db-dir",
                db_dir,
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
    if out.returncode != 0:
        raise RuntimeError(f"{backend} worker failed:\n{out.stderr}")
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=1_000_000)
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help="backends to measure (default: all)",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--worker", metavar="BACKEND", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--db-dir", metavar="DIR", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(_measure_in_this_process(args.worker, args.records, args.db_dir)))
        return 0

    from repro.salad.storage import BACKENDS

    backends = args.backends or list(BACKENDS)
    results = []
    for backend in backends:
        if backend not in BACKENDS:
            parser.error(f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})")
        result = measure(backend, args.records)
        results.append(result)
        file_mib = (
            f"{result['store_file_bytes'] / (1 << 20):.0f} MiB"
            if result["store_file_bytes"]
            else "-"
        )
        print(
            f"{backend:10s}  peak RSS {result['peak_rss_mib']:7.1f} MiB"
            f"  file {file_mib:>9s}"
            f"  {result['inserts_per_sec']:,.0f} ins/s"
            f"  ({result['stored']:,} stored)"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
        print(f"results written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
