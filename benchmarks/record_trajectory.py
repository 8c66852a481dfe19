"""Record a performance-trajectory snapshot as ``BENCH_<date>.json``.

Usage::

    PYTHONPATH=src python benchmarks/record_trajectory.py [--output PATH]

Each snapshot captures throughput for the four hot paths the perf work
targets, with the seed's scalar implementations measured alongside the
current fast paths so every snapshot carries its own before/after ratio:

- ``aes_ctr``: bytes/sec encrypting 1 MiB in CTR mode -- the seed path
  (per-byte rounds, one block per call) vs the bulk path on libcrypto;
- ``fingerprints``: fingerprints/sec over 4 KiB blobs;
- ``salad_inserts``: records/sec routed to quiescence through a SALAD,
  plus messages per record (the Fig. 9 currency) under batched routing;
- ``salad_routing``: the same insert workload on a fresh SALAD through the
  indexed (next-hop cache) routing path, with the cache hit rate reported;
- ``flagship``: growth and insert on a growth-heavy workload through the
  shipped width path (eager Fig. 6, amortized width commits), zero survivor
  scans asserted;
- ``topology_traffic``: the fig_topology path -- Zipf x Poisson publish
  waves over the corporate LAN/WAN topology with a mid-run wan cut --
  records/sec to quiescence plus the topology observables (quiescence
  ticks, per-class message split, cut losses, hot-cell stress);
- ``db_backends``: insert/lookup throughput per record-store backend
  (memory vs WAL), contract-identity asserted
  before timing;
- ``tradeoff``: the fig-tradeoff replication x dedup frontier -- reclaimed
  fraction and min file availability per (R, dedup) arm, the replica-set
  kill's blast radius (measured loss asserted equal to the analytic
  at-risk prediction), and the crashed stores' recovery (asserted to meet
  the durability prediction); ``check_regression.py`` holds the R=3 dedup
  arm above absolute floors.

``--smoke`` runs only the salad benchmarks -- inserts, routing, flagship
and topology (the CI regression gate's input) -- plus the tradeoff
frontier, and writes wherever ``--output`` points.

Snapshots are append-only history: commit each new file, never overwrite an
old one -- a second snapshot on the same date gets a ``_2`` suffix.
``docs/PERFORMANCE.md`` explains how to read the numbers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.core.fingerprint import fingerprint_of
from repro.crypto.modes import BLOCK_SIZE, bulk_encrypt_ctr
from repro.obs.registry import MetricsRegistry
from repro.obs.report import build_run_report, print_summary, write_run_report
from repro.obs.spans import phase
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig

# The from-scratch AES is a test oracle: it lives in the repository's tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference_aes import AES, encrypt_ctr_scalar

MIB = 1 << 20

#: Set by main() when --metrics-out is given; benches that can harvest engine
#: telemetry merge one representative run's registry into it.
_BENCH_REGISTRY = None


def _merge_bench_metrics(registry: MetricsRegistry) -> None:
    if _BENCH_REGISTRY is not None:
        _BENCH_REGISTRY.merge(registry)


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall time over *repeats* runs (least-noise estimator)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _seed_encrypt_ctr(key: bytes, plaintext: bytes, nonce: int = 0) -> bytes:
    """The seed's CTR path: per-byte AES rounds, one block per call."""
    cipher = AES(key)
    out = bytearray()
    for offset in range(0, len(plaintext), BLOCK_SIZE):
        counter = (nonce + offset // BLOCK_SIZE) % (1 << 128)
        block = cipher.encrypt_block_scalar(counter.to_bytes(BLOCK_SIZE, "big"))
        chunk = plaintext[offset : offset + BLOCK_SIZE]
        out.extend(b ^ k for b, k in zip(chunk, block))
    return bytes(out)


def bench_aes_ctr() -> dict:
    key = bytes(range(16))
    payload = bytes(MIB)
    expected = encrypt_ctr_scalar(key, payload)
    assert _seed_encrypt_ctr(key, payload[: 4 * BLOCK_SIZE]) == expected[: 4 * BLOCK_SIZE]
    assert bulk_encrypt_ctr(key, payload) == expected

    seed_seconds = _best_of(lambda: _seed_encrypt_ctr(key, payload), repeats=1)

    bulk_seconds = _best_of(lambda: bulk_encrypt_ctr(key, payload))
    return {
        "payload_bytes": MIB,
        "seed_scalar_bytes_per_sec": MIB / seed_seconds,
        "bulk_bytes_per_sec": MIB / bulk_seconds,
        "speedup_bulk_over_seed": seed_seconds / bulk_seconds,
    }


def bench_fingerprints() -> dict:
    blobs = [bytes([i % 256]) * 4096 for i in range(512)]
    per_item = _best_of(lambda: [fingerprint_of(b) for b in blobs])
    return {
        "blob_bytes": 4096,
        "count": len(blobs),
        "per_item_fingerprints_per_sec": len(blobs) / per_item,
    }


def bench_salad_inserts(leaves: int = 64, records: int = 2000) -> dict:
    def build() -> Salad:
        salad = Salad(SaladConfig(dimensions=2, seed=7))
        salad.build(leaves)
        return salad

    salad = build()
    leaf_ids = [leaf.identifier for leaf in salad.alive_leaves()]
    batches = {
        leaf_ids[i % len(leaf_ids)]: [
            SaladRecord(
                fingerprint=fingerprint_of(b"trajectory:%d" % j),
                location=leaf_ids[i % len(leaf_ids)],
            )
            for j in range(i, records, len(leaf_ids))
        ]
        for i in range(len(leaf_ids))
    }

    def run() -> int:
        fresh = build()
        before = sum(fresh.message_totals())
        inserted = fresh.insert_records(batches)
        run.messages = sum(fresh.message_totals()) - before  # type: ignore[attr-defined]
        run.salad = fresh  # type: ignore[attr-defined]
        return inserted

    seconds = _best_of(run, repeats=2)
    _merge_bench_metrics(run.salad.collect_metrics(MetricsRegistry()))
    return {
        "leaves": leaves,
        "records": records,
        "inserts_per_sec": records / seconds,
        "messages_per_record": run.messages / records,
    }


def _insert_batches(salad: Salad, records: int) -> dict:
    """The bench_salad_inserts workload keyed to a built SALAD's leaf ids."""
    leaf_ids = [leaf.identifier for leaf in salad.alive_leaves()]
    return {
        leaf_ids[i % len(leaf_ids)]: [
            SaladRecord(
                fingerprint=fingerprint_of(b"trajectory:%d" % j),
                location=leaf_ids[i % len(leaf_ids)],
            )
            for j in range(i, records, len(leaf_ids))
        ]
        for i in range(len(leaf_ids))
    }


def bench_salad_routing(leaves: int = 64, records: int = 2000) -> dict:
    """Indexed (next-hop cache) routing on a freshly built SALAD.

    Every timed run rebuilds the SALAD, so each insert starts from the same
    state; the next-hop counters come from the harvested telemetry registry
    -- the same numbers a --metrics-out RunReport carries.  Trace identity
    with the seed's per-axis scan is the golden-trace tests' job.
    """

    def build() -> Salad:
        salad = Salad(SaladConfig(dimensions=2, seed=7))
        salad.build(leaves)
        return salad

    batches = _insert_batches(build(), records)
    state: dict = {}

    def run() -> None:
        fresh = build()
        before = sum(fresh.message_totals())
        fresh.insert_records(batches)
        state["messages"] = sum(fresh.message_totals()) - before
        state["registry"] = fresh.collect_metrics(MetricsRegistry())

    seconds = _best_of(run, repeats=2)
    registry = state["registry"]
    _merge_bench_metrics(registry)
    hits = registry.counter_value("salad.routing.next_hop_hits")
    misses = registry.counter_value("salad.routing.next_hop_misses")
    lookups = hits + misses
    return {
        "leaves": leaves,
        "records": records,
        "indexed_inserts_per_sec": records / seconds,
        "messages_per_record": state["messages"] / records,
        "next_hop_cache_hit_rate": hits / lookups if lookups else 0.0,
    }


def bench_flagship(leaves: int = 512, records: int = 2048) -> dict:
    """The flagship width path on a growth-heavy workload.

    One seeded build+insert through the shipped engine: Fig. 6 after every
    leaf-table change, width increases committed from the maintained drop
    bucket.  Growth wall-clock is reported separately from the full run,
    since width maintenance concentrates in the bulk-join storm.  Trace
    identity with the seed's full-table scan is the width-golden tests' job.
    """
    state: dict = {}

    def run() -> None:
        salad = Salad(SaladConfig(dimensions=2, seed=7))
        start = time.perf_counter()
        salad.build(leaves)
        state["growth"] = time.perf_counter() - start
        salad.insert_records(_insert_batches(salad, records))
        state["registry"] = salad.collect_metrics(MetricsRegistry())

    # _best_of re-runs the whole workload; growth time is from the last
    # execution, close enough between identical reruns.
    seconds = _best_of(run, repeats=2)
    registry = state["registry"]
    assert registry.counter_value("salad.routing.survivor_scans") == 0
    _merge_bench_metrics(registry)
    return {
        "leaves": leaves,
        "records": records,
        "wall_seconds": seconds,
        "growth_seconds": state["growth"],
        "flagship_joins_per_sec": leaves / state["growth"],
        "width_recalcs": registry.counter_value("salad.width.recalcs"),
    }


def bench_topology_traffic(leaves: int = 64, waves: int = 10, rate: float = 24.0) -> dict:
    """Skewed Zipf x Poisson traffic over the corporate LAN/WAN topology.

    Times the fig_topology insert path -- per-pair delays from the corporate
    preset (4 sites, wan ticks dominating), a mid-run site-0 wan cut, and a
    Zipf(1.1) publish stream whose hot contents concentrate into a few
    cells.  The headline rate is records/sec to quiescence; the rest of the
    section records the topology observables (quiescence time in virtual
    ticks, per-class message split, cut losses, hot-cell stress) so the
    trend surfaces behavioral drift, not just speed.
    """
    from dataclasses import replace

    from repro.experiments import fig_topology
    from repro.experiments.scales import SMALL
    from repro.workload.traffic import TrafficSpec

    scale = replace(SMALL, name="bench", machines=leaves)
    spec = TrafficSpec(contents=256, arrival_rate=rate, waves=waves)
    state: dict = {}

    def run() -> None:
        state["result"] = fig_topology.run(
            scale, seed=7, topology="corporate", traffic=spec
        )

    seconds = _best_of(run, repeats=2)
    result = state["result"]
    if _BENCH_REGISTRY is not None and result.metrics:
        _BENCH_REGISTRY.merge_dict(result.metrics)
    sent = {name: c["sent"] for name, c in result.class_messages.items()}
    return {
        "leaves": leaves,
        "waves": waves,
        "arrivals": result.arrivals,
        "records": result.records_inserted,
        "topology_inserts_per_sec": result.records_inserted / seconds,
        "quiescence_mean": result.quiescence_mean,
        "quiescence_max": result.quiescence_max,
        "rack_sent": sent.get("rack", 0),
        "lan_sent": sent.get("lan", 0),
        "wan_sent": sent.get("wan", 0),
        "wan_share": result.wan_share,
        "dropped_during_cut": result.dropped_during_cut,
        "hot_content_share": result.hot_content_share,
        "cell_stress": result.cell_stress,
    }


def bench_db_backends(records: int = 5000, lookups: int = 1000) -> dict:
    """Insert/lookup throughput per record-store backend.

    The durable backend trades throughput for crash recovery (and, past its
    byte budget, a bounded RSS); this section records the price so the
    trade stays visible.
    Results are asserted contract-identical before timing.
    """
    import tempfile

    from repro.salad.storage import BACKENDS, make_record_store

    recs = [
        SaladRecord(fingerprint=fingerprint_of(b"db:%d" % i), location=i % 97)
        for i in range(records)
    ]
    probes = [r.fingerprint for r in recs[:lookups]]
    out: dict = {"records": records, "lookups": lookups}
    reference = None
    for backend in BACKENDS:
        with tempfile.TemporaryDirectory() as d:
            store = make_record_store(backend, db_dir=d, name="bench")
            # Inserts mutate, so time a single pass (repeats would measure
            # duplicate no-ops); lookups are pure and take the best-of.
            insert_seconds = _best_of(lambda: store.insert_many(recs), repeats=1)
            lookup_seconds = _best_of(lambda: [store.locations(fp) for fp in probes])
            final = [(r.sort_key(), r.location) for r in store.records()]
            if reference is None:
                reference = final
            assert final == reference, f"{backend} diverged from the contract"
            store.close()
        out[backend] = {
            "inserts_per_sec": records / insert_seconds,
            "lookups_per_sec": lookups / lookup_seconds,
        }
    return out


def bench_tradeoff() -> dict:
    """The fig-tradeoff frontier: replication x dedup durability vs space.

    Runs the full R in 1..4 sweep (both dedup arms) at small scale and
    records the frontier's gated observables.  Two invariants are asserted
    on every arm before anything is recorded: the replica-set kill's
    measured file loss equals the analytic at-risk count (any gap is
    replica bookkeeping corruption), and the crashed stores' recovered
    record fraction meets the durability prediction.
    """
    from repro.experiments import fig_tradeoff
    from repro.experiments.scales import SMALL

    state: dict = {}

    def run() -> None:
        state["result"] = fig_tradeoff.run(SMALL, seed=7)

    seconds = _best_of(run, repeats=1)
    result = state["result"]
    if _BENCH_REGISTRY is not None and result.metrics:
        _BENCH_REGISTRY.merge_dict(result.metrics)
    out: dict = {
        "machines": result.machines,
        "files": result.files,
        "sweep": list(result.sweep),
        "wall_seconds": seconds,
        "points_per_sec": len(result.points) / seconds,
    }
    for p in result.points:
        arm = f"r{p.replication}_{'dedup' if p.dedup else 'nodedup'}"
        assert p.loss_matches_prediction, (
            f"{arm}: measured loss {p.files_lost} != analytic at-risk "
            f"{p.files_at_risk} -- replica bookkeeping diverged"
        )
        assert p.recovery_meets_prediction, (
            f"{arm}: recovered {p.recovered_fraction:.3f} below durability "
            f"prediction {p.predicted_recovery:.3f}"
        )
        out[f"reclaimed_fraction_{arm}"] = p.reclaimed_fraction
        out[f"min_availability_{arm}"] = p.min_availability
        out[f"mean_availability_{arm}"] = p.mean_availability
        out[f"lost_fraction_{arm}"] = p.lost_fraction
        out[f"loss_event_probability_{arm}"] = p.loss_event_probability
    # The headline contrast: at the same R=3 kill budget, dedup loses the
    # whole group where the un-coalesced layout loses almost nothing.
    on, off = result.point(3, True), result.point(3, False)
    out["files_lost_r3_dedup"] = on.files_lost
    out["files_lost_r3_nodedup"] = off.files_lost
    out["blast_radius_ratio_r3"] = (
        on.files_lost / off.files_lost if off.files_lost else float(on.files_lost)
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="snapshot path (default: BENCH_<today>.json in the repo root, "
        "suffixed _2, _3, ... rather than overwriting an existing snapshot)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the salad benchmarks (the CI regression gate's input)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a RunReport (repro.obs: harvested metrics registry, "
        "per-bench phase tree, environment) as JSON and print a summary "
        "table on stderr; check_regression.py --metrics gates on it",
    )
    args = parser.parse_args(argv)
    global _BENCH_REGISTRY
    if args.metrics_out:
        _BENCH_REGISTRY = MetricsRegistry()
    today = datetime.date.today().isoformat()
    if args.output:
        output = Path(args.output)
    else:
        root = Path(__file__).resolve().parent.parent
        output = root / f"BENCH_{today}.json"
        suffix = 2
        while output.exists():  # append-only history: never clobber
            output = root / f"BENCH_{today}_{suffix}.json"
            suffix += 1

    snapshot = {
        "date": today,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "results": {},
    }
    benches = [
        ("aes_ctr", bench_aes_ctr),
        ("fingerprints", bench_fingerprints),
        ("salad_inserts", bench_salad_inserts),
        ("salad_routing", bench_salad_routing),
        ("flagship", bench_flagship),
        ("topology_traffic", bench_topology_traffic),
        ("db_backends", bench_db_backends),
        ("tradeoff", bench_tradeoff),
    ]
    if args.smoke:
        benches = [
            ("salad_inserts", bench_salad_inserts),
            ("salad_routing", bench_salad_routing),
            ("flagship", bench_flagship),
            ("topology_traffic", bench_topology_traffic),
            ("tradeoff", bench_tradeoff),
        ]
    for name, bench in benches:
        print(f"[{name}] ...", flush=True)
        with phase(name):
            snapshot["results"][name] = bench()
        for key, value in snapshot["results"][name].items():
            rendered = f"{value:.3f}" if isinstance(value, float) else value
            print(f"  {key}: {rendered}")

    output.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"snapshot written to {output}")

    if args.metrics_out:
        report = build_run_report(
            _BENCH_REGISTRY,
            env={
                "benchmarks": ",".join(name for name, _ in benches),
                "smoke": args.smoke or None,
                "bench_snapshot": str(output),
            },
        )
        write_run_report(args.metrics_out, report)
        print_summary(report)
        print(f"run report written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
