"""Fail when a fresh benchmark snapshot regresses against committed history.

Usage::

    PYTHONPATH=src python benchmarks/record_trajectory.py --smoke --output /tmp/smoke.json
    python benchmarks/check_regression.py /tmp/smoke.json
    python benchmarks/check_regression.py --trend

Gates every hot-path section -- salad insert routing, indexed routing,
bulk AES-CTR, batched fingerprinting -- against the newest committed
``BENCH_*.json`` in the repo root, exiting nonzero when any gated metric
falls more than ``--tolerance`` (default 30%) below its baseline.  A metric
missing from either side (e.g. a ``--smoke`` snapshot carries only the
salad sections, and older baselines predate some sections) is reported as
skipped, never failed.  The wide tolerance absorbs machine-to-machine
variance (the committed baselines and the CI runner are different
hardware); the gate exists to catch order-of-magnitude regressions -- an
accidental fallback to an O(D) per-record scan, a broken cache, a
de-vectorized kernel -- not single-digit noise.  Snapshot history is
append-only, so the baseline automatically advances whenever a PR commits a
new snapshot.

``--trend`` prints the gated metrics across the whole dated snapshot
series instead of gating, so a slow drift that stays inside the per-PR
tolerance is still visible.

``--metrics REPORT.json`` gates *behavioral* rates derived from a RunReport
(``record_trajectory.py --metrics-out`` / ``repro-experiments
--metrics-out`` / ``repro.experiments.flagship --metrics-out``) rather than
wall-clock throughput: the routing next-hop cache hit rate must stay above
a floor, mean hops per record must stay within the 2D bound of the paper's
Fig. 4 routing, and survivor scans must stay within one per committed width
change (the amortized width path's bound; the flagship configuration scans
zero times).  Absolute counters need no baseline snapshot, so these gates
are machine-independent.  A rate whose inputs are absent from the report is
skipped, never failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Gated metrics as (section, key, short label) -- one per hot path.
GATED_METRICS = (
    ("salad_inserts", "inserts_per_sec", "salad ins/s"),
    ("salad_routing", "indexed_inserts_per_sec", "indexed ins/s"),
    ("topology_traffic", "topology_inserts_per_sec", "topo ins/s"),
    ("flagship", "flagship_joins_per_sec", "flagship joins/s"),
    ("aes_ctr", "bulk_bytes_per_sec", "aes B/s"),
    ("fingerprints", "batched_fingerprints_per_sec", "fprint/s"),
    ("tradeoff", "points_per_sec", "tradeoff pts/s"),
)

#: Absolute floors on snapshot values -- machine-independent behavioral
#: quantities the fresh snapshot must clear regardless of any baseline.
#: (section, key, floor, short label); a key absent from the fresh snapshot
#: is skipped, never failed (e.g. a --smoke snapshot without the section,
#: or baselines that predate it).  The tradeoff floors hold the R=3 dedup
#: arm of the fig-tradeoff frontier honest: availability-driven placement
#: must keep the worst file's availability comfortably above a single
#: host's, and coalescing must actually reclaim duplicate bytes.
ABSOLUTE_FLOORS = (
    ("tradeoff", "min_availability_r3_dedup", 0.55, "minAvail r3 dedup"),
    ("tradeoff", "reclaimed_fraction_r3_dedup", 0.05, "reclaimed r3 dedup"),
)

def snapshot_series(exclude: Optional[Path] = None) -> List[Path]:
    """All committed snapshots, oldest first (dated names sort chronologically)."""
    return sorted(
        p
        for p in REPO_ROOT.glob("BENCH_*.json")
        if exclude is None or p.resolve() != exclude.resolve()
    )


def newest_baseline(exclude: Path) -> Path:
    candidates = snapshot_series(exclude=exclude)
    if not candidates:
        raise FileNotFoundError(f"no BENCH_*.json baselines in {REPO_ROOT}")
    return candidates[-1]


def read_metric(path: Path, section: str, key: str) -> Optional[float]:
    """The metric's value, or None when the snapshot doesn't carry it."""
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    try:
        return float(snapshot.get("results", {}).get(section, {}).get(key))
    except (TypeError, ValueError):
        return None


def check(fresh_path: Path, tolerance: float) -> int:
    baseline_path = newest_baseline(exclude=fresh_path)
    print(f"baseline {baseline_path.name}  vs  fresh {fresh_path.name}")
    failures: List[str] = []
    gated = 0
    for section, key, label in GATED_METRICS:
        fresh = read_metric(fresh_path, section, key)
        baseline = read_metric(baseline_path, section, key)
        name = f"{section}.{key}"
        if fresh is None or baseline is None:
            where = "fresh" if fresh is None else "baseline"
            print(f"  skip  {name} (absent from {where} snapshot)")
            continue
        gated += 1
        floor = baseline * (1.0 - tolerance)
        verdict = "ok  " if fresh >= floor else "FAIL"
        print(
            f"  {verdict}  {name}: {fresh:,.0f}"
            f" (baseline {baseline:,.0f}, floor {floor:,.0f})"
        )
        if fresh < floor:
            failures.append(name)
    for section, key, floor, label in ABSOLUTE_FLOORS:
        fresh = read_metric(fresh_path, section, key)
        name = f"{section}.{key}"
        if fresh is None:
            print(f"  skip  {name} (absent from fresh snapshot)")
            continue
        gated += 1
        verdict = "ok  " if fresh >= floor else "FAIL"
        print(f"  {verdict}  {name}: {fresh:.3f} (absolute floor {floor})")
        if fresh < floor:
            failures.append(name)
    if not gated:
        print("FAIL: no gated metric present in both snapshots")
        return 1
    if failures:
        print(f"FAIL: regressed past {tolerance:.0%} tolerance: {', '.join(failures)}")
        return 1
    print("OK")
    return 0


#: Floor for the indexed-routing next-hop cache hit rate; the cache is the
#: whole point of the indexed routing path, and healthy runs sit above 0.9.
MIN_NEXT_HOP_HIT_RATE = 0.5


def _report_entry(report: dict, section: str, name: str) -> Optional[float]:
    """An unlabeled counter/gauge value from a RunReport, or None if absent."""
    for entry in report.get("metrics", {}).get(section, ()):
        if entry.get("name") == name and not entry.get("labels"):
            return entry.get("value")
    return None


def _labeled_entry(
    report: dict, section: str, name: str, **labels: str
) -> Optional[float]:
    """A labeled counter/gauge value from a RunReport, or None if absent."""
    for entry in report.get("metrics", {}).get(section, ()):
        if entry.get("name") == name and entry.get("labels") == labels:
            return entry.get("value")
    return None


def check_metrics(report_path: Path) -> int:
    """Gate behavioral rates derived from a RunReport (no baseline needed).

    The rates are machine-independent consequences of the routing design:
    Fig. 4 delivers every record within 2D hops, and the next-hop cache
    must actually absorb lookups.  Skip-if-absent mirrors the snapshot
    gates -- a report from a run that never routed records gates nothing.
    """
    report = json.loads(report_path.read_text(encoding="utf-8"))
    print(f"metrics gates on {report_path.name}")
    failures: List[str] = []
    gated = 0

    hits = _report_entry(report, "counters", "salad.routing.next_hop_hits")
    misses = _report_entry(report, "counters", "salad.routing.next_hop_misses")
    if hits is None or misses is None or not hits + misses:
        print("  skip  next_hop_cache_hit_rate (no routing lookups in report)")
    else:
        gated += 1
        rate = hits / (hits + misses)
        verdict = "ok  " if rate >= MIN_NEXT_HOP_HIT_RATE else "FAIL"
        print(
            f"  {verdict}  next_hop_cache_hit_rate: {rate:.3f}"
            f" (floor {MIN_NEXT_HOP_HIT_RATE})"
        )
        if rate < MIN_NEXT_HOP_HIT_RATE:
            failures.append("next_hop_cache_hit_rate")

    hops = _report_entry(report, "counters", "salad.records.hops")
    arrivals = _report_entry(report, "counters", "salad.records.arrivals")
    dimensions = _report_entry(report, "gauges", "salad.config.dimensions")
    if hops is None or not arrivals or not dimensions:
        print("  skip  hops_per_record (no record arrivals in report)")
    else:
        gated += 1
        mean_hops = hops / arrivals
        ceiling = 2.0 * dimensions
        verdict = "ok  " if mean_hops <= ceiling else "FAIL"
        print(
            f"  {verdict}  hops_per_record: {mean_hops:.3f}"
            f" (ceiling 2D = {ceiling:g})"
        )
        if mean_hops > ceiling:
            failures.append("hops_per_record")

    scans = _report_entry(report, "counters", "salad.routing.survivor_scans")
    width_changes = _report_entry(report, "counters", "salad.width.changes")
    if scans is None or width_changes is None:
        print("  skip  survivor_scans_per_width_change (no width telemetry)")
    else:
        # The amortized width path derives the dropped set incrementally, so
        # a healthy run scans at most once per committed width change (the
        # reference oracle's rate) and the flagship path not at all.  A
        # regression to per-join scanning blows past this bound by orders of
        # magnitude at any real scale.
        gated += 1
        bound = max(width_changes, 1)
        verdict = "ok  " if scans <= bound else "FAIL"
        print(
            f"  {verdict}  survivor_scans: {scans:,.0f}"
            f" (bound: width_changes = {width_changes:,.0f})"
        )
        if scans > bound:
            failures.append("survivor_scans")

    # The fig-tradeoff frontier's R=3 dedup arm (reports from runs that
    # include fig-tradeoff or the tradeoff bench carry these gauges).
    for name, floor in (
        ("tradeoff.min_availability", 0.55),
        ("tradeoff.reclaimed_fraction", 0.05),
    ):
        value = _labeled_entry(report, "gauges", name, r="3", dedup="on")
        if value is None:
            print(f"  skip  {name}{{r=3,dedup=on}} (no tradeoff run in report)")
            continue
        gated += 1
        verdict = "ok  " if value >= floor else "FAIL"
        print(f"  {verdict}  {name}{{r=3,dedup=on}}: {value:.3f} (floor {floor})")
        if value < floor:
            failures.append(name)

    if not gated:
        print("OK (nothing to gate in this report)")
        return 0
    if failures:
        print(f"FAIL: metrics gates violated: {', '.join(failures)}")
        return 1
    print("OK")
    return 0


#: Max fractional insert-throughput drop a trace-sampling-enabled run may
#: show against its sampling-off twin.  Deterministic hash sampling costs
#: one predicate per record batch plus event dicts for the sampled few, so
#: anything past 10% means the zero-cost-when-off discipline broke (e.g. an
#: unconditional per-message allocation snuck into the hot path).
MAX_TRACE_OVERHEAD = 0.10


def _phase_rate(report: dict, name: str) -> Optional[float]:
    """A top-level phase's ops_per_second from a RunReport, or None."""
    for entry in report.get("phases", ()):
        if entry.get("name") == name:
            return entry.get("ops_per_second")
    return None


def check_trace_overhead(traced_path: Path, baseline_path: Path) -> int:
    """Gate causal-trace sampling overhead: traced vs sampling-off reports.

    Both paths are RunReports of the *same* run configuration, one with
    ``--trace-sample-rate`` on and one off; the traced run's top-level
    insert throughput must stay within :data:`MAX_TRACE_OVERHEAD` of the
    baseline's.  Skip-if-absent like every other gate -- a report without
    an insert phase rate gates nothing.
    """
    traced = json.loads(traced_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    print(f"trace-overhead gate: {traced_path.name} vs {baseline_path.name}")
    traced_rate = _phase_rate(traced, "insert")
    baseline_rate = _phase_rate(baseline, "insert")
    if not traced_rate or not baseline_rate:
        which = "traced" if not traced_rate else "baseline"
        print(f"  skip  insert ops_per_second absent from {which} report")
        print("OK (nothing to gate)")
        return 0
    floor = baseline_rate * (1.0 - MAX_TRACE_OVERHEAD)
    verdict = "ok  " if traced_rate >= floor else "FAIL"
    print(
        f"  {verdict}  insert rate traced {traced_rate:,.0f}/s vs "
        f"baseline {baseline_rate:,.0f}/s (floor {floor:,.0f}/s, "
        f"max overhead {MAX_TRACE_OVERHEAD:.0%})"
    )
    if traced_rate < floor:
        print("FAIL: trace sampling costs more than the allowed overhead")
        return 1
    print("OK")
    return 0


def trend() -> int:
    """The gated metrics across the whole committed snapshot series."""
    series = snapshot_series()
    if not series:
        print(f"no BENCH_*.json snapshots in {REPO_ROOT}")
        return 1
    labels = [label for _, _, label in GATED_METRICS]
    name_width = max(len(p.stem) for p in series)
    widths = [max(len(label), 14) for label in labels]
    header = "  ".join(
        ["snapshot".ljust(name_width)] + [l.rjust(w) for l, w in zip(labels, widths)]
    )
    print(header)
    print("-" * len(header))
    rows: List[Tuple[Path, List[Optional[float]]]] = [
        (
            path,
            [read_metric(path, section, key) for section, key, _ in GATED_METRICS],
        )
        for path in series
    ]

    def cell(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value:,.2f}" if value < 100 else f"{value:,.0f}"

    for path, values in rows:
        cells = [cell(v).rjust(w) for v, w in zip(values, widths)]
        print("  ".join([path.stem.ljust(name_width)] + cells))
    # Relative change, newest over oldest snapshot that carries each metric.
    deltas = []
    for i in range(len(GATED_METRICS)):
        carried = [v[i] for _, v in rows if v[i] is not None]
        deltas.append(
            f"{carried[-1] / carried[0]:+.1%}".rjust(widths[i])
            if len(carried) >= 2 and carried[0]
            else "-".rjust(widths[i])
        )
    print("-" * len(header))
    print("  ".join(["newest/oldest".ljust(name_width)] + deltas))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "snapshot",
        metavar="PATH",
        nargs="?",
        default=None,
        help="fresh snapshot to check (omit with --trend)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below baseline (default: 0.30)",
    )
    parser.add_argument(
        "--trend",
        action="store_true",
        help="print the gated metrics across all committed snapshots and exit",
    )
    parser.add_argument(
        "--metrics",
        metavar="REPORT",
        default=None,
        help="gate behavioral rates (cache hit-rate floor, 2D hop ceiling) "
        "derived from a --metrics-out RunReport instead of a snapshot",
    )
    parser.add_argument(
        "--trace-baseline",
        metavar="REPORT",
        default=None,
        help="with --metrics: the sampling-off RunReport of the same run; "
        "additionally gates the traced run's insert throughput within "
        f"{MAX_TRACE_OVERHEAD:.0%} of it",
    )
    args = parser.parse_args(argv)
    if args.trend:
        return trend()
    if args.trace_baseline and not args.metrics:
        parser.error("--trace-baseline requires --metrics TRACED_REPORT")
    if args.metrics:
        status = check_metrics(Path(args.metrics))
        if args.trace_baseline:
            status = (
                check_trace_overhead(
                    Path(args.metrics), Path(args.trace_baseline)
                )
                or status
            )
        return status
    if args.snapshot is None:
        parser.error(
            "a fresh snapshot PATH is required unless --trend or --metrics is given"
        )
    return check(Path(args.snapshot), args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
