"""The flagship-scale SALAD run: 10^5 leaves, ~10^6 records, bounded RSS.

Section 5 of the paper simulates a 10^5-machine deployment; this driver is
the repo's equivalent stress run, exercising every flagship-path
optimization at once:

- **amortized width maintenance** (the leaf's incrementally maintained
  survivor partition -- zero ``survivor_scans``) plus **deferred width
  recalculation** (Fig. 6 coalesced to settle-round boundaries during the
  bulk-join growth storm; opt-out via ``--eager-width``); and
- the **paging WAL backend** (``--db-backend wal-paged``), which keeps
  record bodies on disk behind a key->offset index and a small LRU, so
  peak RSS stays bounded while a million records accumulate.

Growth runs in geometric stages and insert in waves, each under its own
span, so the report shows where the wall-clock went at every scale step.
The environment block records the driver's peak RSS plus the actual scale
reached -- the committed report at ``docs/flagship_report.json`` is
regenerated with this CLI.

Usage::

    python -m repro.experiments.flagship --smoke --metrics-out smoke.json
    python -m repro.experiments.flagship --db-backend wal-paged \
        --metrics-out docs/flagship_report.json
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import sys
import time
from typing import Dict, List, Optional

from repro.core.fingerprint import Fingerprint
from repro.obs import tracing
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    CollectorWatch,
    build_run_report,
    print_summary,
    write_run_report,
)
from repro.obs.spans import phase, reset_spans, span
from repro.salad.records import SaladRecord
from repro.salad.salad import (
    Salad,
    SaladConfig,
    set_detailed_metrics,
    set_trace_sample_rate,
)
from repro.salad.storage import BACKENDS

FULL_LEAVES = 100_000
FULL_RECORDS = 1_000_000
SMOKE_LEAVES = 96
SMOKE_RECORDS = 960

#: Leaves per insert_records call: bounds the record batch the driver
#: materializes at once, regardless of system size.
CHUNK_LEAVES = 4096


def growth_stages(target: int, first: int = 1000) -> List[int]:
    """Geometric growth checkpoints: first, 2*first, ... , target."""
    stages = []
    size = min(first, target)
    while size < target:
        stages.append(size)
        size *= 2
    stages.append(target)
    return stages


def _wave_records(
    identifiers: List[int], wave: int, per_leaf: int, pool: int
) -> Dict[int, List[SaladRecord]]:
    """Deterministic synthetic records: wave x leaf -> per_leaf records.

    Content ids are drawn from a pool of ``pool`` values by a cheap integer
    hash, so duplicate groups form across leaves (the MATCH traffic the
    paper's workload is about) without any RNG state to keep in sync.
    """
    by_leaf: Dict[int, List[SaladRecord]] = {}
    for identifier in identifiers:
        records = []
        for i in range(per_leaf):
            content = ((identifier * 2654435761 + wave * 40503 + i) ^ 0x9E3779B9) % pool
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            records.append(SaladRecord(fingerprint=fingerprint, location=identifier))
        by_leaf[identifier] = records
    return by_leaf


def run_flagship(
    leaves: int,
    records: int,
    seed: int = 0,
    db_backend: Optional[str] = "wal-paged",
    db_dir: Optional[str] = None,
    eager_width: bool = False,
    reference_width: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Grow to *leaves*, insert ~*records*; returns run facts for the report.

    The return dict carries the observables the committed report and the
    bench section read; wall-clock per phase comes from the span tree, not
    from here.
    """
    config = SaladConfig(
        dimensions=2,
        seed=seed,
        db_backend=db_backend,
        db_dir=db_dir,
        reference_width=reference_width,
        deferred_width_recalc=not eager_width and not reference_width,
        detailed_metrics=registry is not None,
    )
    sim = Salad(config)
    per_leaf = max(1, records // leaves)
    waves = min(per_leaf, 4)
    pool = max(records // 4, 16)  # ~4 copies per content => duplicate groups
    try:
        with phase("growth") as growth_span:
            for stage in growth_stages(leaves):
                with span(f"grow_to_{stage}", ops=stage):
                    sim.build(stage)
                tracing.heartbeat("growth", leaves=stage)
            growth_span.set_ops(leaves)

        inserted_total = 0
        with phase("insert") as insert_span:
            identifiers = sorted(sim.alive_identifiers())
            base, extra = divmod(per_leaf, waves)
            for wave in range(waves):
                count = base + (1 if wave < extra else 0)
                if count == 0:
                    continue
                with span(f"wave_{wave}") as wave_span:
                    wave_inserted = 0
                    for start in range(0, len(identifiers), CHUNK_LEAVES):
                        chunk = identifiers[start : start + CHUNK_LEAVES]
                        batch = _wave_records(chunk, wave, count, pool)
                        wave_inserted += sim.insert_records(batch)
                    wave_span.set_ops(wave_inserted)
                inserted_total += wave_inserted
                tracing.heartbeat(
                    "insert", wave=wave, inserted_total=inserted_total
                )
            insert_span.set_ops(inserted_total)

        with phase("harvest"):
            if registry is None:
                registry = MetricsRegistry()
            sim.collect_metrics(registry)
            facts = {
                "leaves": leaves,
                "alive_leaves": sim.alive_count(),
                "records_requested": records,
                "records_inserted": inserted_total,
                "total_stored": sim.total_stored_records(),
                "widths": sim.width_distribution(),
                "trace_events": tracing.take_events(),
            }
    finally:
        sim.shutdown()
    return facts


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Flagship-scale SALAD run (growth + insert, full telemetry)."
    )
    parser.add_argument("--leaves", type=int, default=FULL_LEAVES)
    parser.add_argument("--records", type=int, default=FULL_RECORDS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI tier: {SMOKE_LEAVES} leaves / {SMOKE_RECORDS} records "
        "(overrides --leaves/--records)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--db-backend",
        choices=sorted(BACKENDS),
        default="wal-paged",
        help="record-store backend per leaf (default: wal-paged, the backend "
        "that bounds peak RSS at this scale)",
    )
    parser.add_argument("--db-dir", metavar="DIR", default=None)
    parser.add_argument(
        "--eager-width",
        action="store_true",
        help="disable deferred width recalculation (the flagship default "
        "coalesces Fig. 6 runs to settle-round boundaries)",
    )
    parser.add_argument(
        "--reference-width",
        action="store_true",
        help="commit width changes via the full-table survivor scan (the "
        "pre-change oracle path; implies --eager-width)",
    )
    parser.add_argument("--metrics-out", metavar="PATH", default=None)
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="causal-trace sampling rate in [0,1]: a deterministic hash of "
        "each record's routing id selects the sampled fraction (0 = off; "
        "sampling never perturbs the simulated message trace)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write sampled causal traces as Chrome trace-event JSON "
        "(open in Perfetto: ui.perfetto.dev)",
    )
    parser.add_argument(
        "--flight-recorder",
        metavar="PATH",
        default=None,
        help="append heartbeat + recent-trace-event JSONL here during the "
        "run (watch live with `python -m repro.obs tail PATH`)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.leaves, args.records = SMOKE_LEAVES, SMOKE_RECORDS
    if args.leaves < 1 or args.records < 1:
        parser.error("--leaves and --records must be positive")
    set_detailed_metrics(bool(args.metrics_out))
    # Set even when the flag is absent (0 = off), so a rate from an earlier
    # in-process main() cannot carry into this run.
    try:
        set_trace_sample_rate(args.trace_sample_rate)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    if args.flight_recorder:
        tracing.install_flight_recorder(args.flight_recorder)

    registry = MetricsRegistry() if args.metrics_out else None
    # A CLI run owns the process span buffer: discard anything a previous
    # in-process run left behind so the report covers exactly this run.
    reset_spans()
    start = time.time()
    collector = CollectorWatch() if args.metrics_out else None
    try:
        with collector or contextlib.nullcontext():
            facts = run_flagship(
                args.leaves,
                args.records,
                seed=args.seed,
                db_backend=args.db_backend,
                db_dir=args.db_dir,
                eager_width=args.eager_width,
                reference_width=args.reference_width,
                registry=registry,
            )
        elapsed = time.time() - start
        if args.flight_recorder:
            tracing.heartbeat(
                "done",
                leaves=facts["alive_leaves"],
                records_inserted=facts["records_inserted"],
                wall_seconds=round(elapsed, 2),
            )
    finally:
        # Also on failure: close() writes the ring's pending events, and the
        # ones leading up to a failure are what the recorder is for.
        if args.flight_recorder:
            tracing.uninstall_flight_recorder()
    print(
        f"flagship: {facts['alive_leaves']:,} leaves, "
        f"{facts['records_inserted']:,} records inserted "
        f"({facts['total_stored']:,} stored) in {elapsed:.1f}s"
    )
    trace_rate = args.trace_sample_rate
    trace_events = facts["trace_events"]
    if args.trace_out:
        out = tracing.export_chrome_trace(trace_events, args.trace_out)
        timelines = tracing.build_timelines(trace_events)
        print(
            f"trace: {len(trace_events)} events across {len(timelines)} "
            f"sampled records written to {out} (open in Perfetto)"
        )
    if args.metrics_out:
        report = build_run_report(
            registry,
            env={
                "experiment": "flagship",
                "scale": "smoke" if args.smoke else "full",
                "leaves": facts["alive_leaves"],
                "records_inserted": facts["records_inserted"],
                "seed": args.seed,
                "db_backend": args.db_backend,
                "deferred_width_recalc": not args.eager_width
                and not args.reference_width,
                "reference_width": args.reference_width or None,
                "wall_seconds": elapsed,
                "peak_rss_mib": round(_peak_rss_mib(), 1),
            },
            traces=(
                {"sample_rate": trace_rate, "events": trace_events}
                if trace_rate > 0.0
                else None
            ),
            collector=collector,
        )
        write_run_report(args.metrics_out, report)
        print_summary(report)
        print(f"run report written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
