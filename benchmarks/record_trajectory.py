"""Record a performance-trajectory snapshot as ``BENCH_<date>.json``.

Usage::

    PYTHONPATH=src python benchmarks/record_trajectory.py [--output PATH]

Each snapshot captures throughput for the four hot paths the perf work
targets, with the seed's scalar implementations measured alongside the
current fast paths so every snapshot carries its own before/after ratio:

- ``aes_ctr``: bytes/sec encrypting 1 MiB in CTR mode -- the seed path
  (per-byte rounds, one block per call) vs the bulk vectorized path, plus
  the warm-keystream-cache repeat;
- ``fingerprints``: fingerprints/sec over 4 KiB blobs, per-item vs batched;
- ``salad_inserts``: records/sec routed to quiescence through a SALAD,
  plus messages per record (the Fig. 9 currency) under batched routing;
- ``salad_routing``: the same insert workload under the reference
  (per-axis scan) vs the indexed (next-hop cache) routing path, with the
  message totals asserted equal and the cache hit rate reported;
- ``flagship``: the flagship insert path -- amortized width maintenance and
  deferred (settle-round-coalesced) recalculation -- vs the pre-change
  full-scan path on a growth-heavy workload, trace/settled identity
  asserted before timing;
- ``topology_traffic``: the fig_topology path -- Zipf x Poisson publish
  waves over the corporate LAN/WAN topology with a mid-run wan cut --
  records/sec to quiescence plus the topology observables (quiescence
  ticks, per-class message split, cut losses, hot-cell stress);
- ``db_backends``: insert/lookup throughput per record-store backend
  (memory vs sqlite vs WAL vs the paging WAL), contract-identity asserted
  before timing;
- ``experiment_sweep``: wall seconds for a small threshold sweep, serial vs
  ``--workers 0``, with the consumed-space series asserted identical (the
  speedup only materializes on multi-core machines; ``cpu_count`` is
  recorded so single-core snapshots read honestly);
- ``pipeline``: wall seconds for an end-to-end DfcPipeline pass on a small
  corpus, serial vs parallel workers, with the reclaimed-byte accounting
  asserted identical;
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

from repro.core.fingerprint import fingerprint_many, fingerprint_of
from repro.crypto.aes import AES
from repro.crypto.modes import (
    BLOCK_SIZE,
    bulk_encrypt_ctr,
    encrypt_ctr_scalar,
    keystream_cache,
)
from repro.experiments.dfc_run import DfcConfig
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.obs.registry import MetricsRegistry
from repro.obs.report import build_run_report, print_summary, write_run_report
from repro.obs.spans import phase
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig, set_detailed_metrics
from repro.workload.generator import CorpusSpec, generate_corpus

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

    def bulk_cold() -> bytes:
        keystream_cache().clear()  # else repeats would hit the cache
        return bulk_encrypt_ctr(key, payload)

    bulk_seconds = _best_of(bulk_cold)
    bulk_encrypt_ctr(key, payload)  # warm the (key, nonce) cache entry
    cached_seconds = _best_of(lambda: bulk_encrypt_ctr(key, payload))
    return {
        "payload_bytes": MIB,
        "seed_scalar_bytes_per_sec": MIB / seed_seconds,
        "bulk_bytes_per_sec": MIB / bulk_seconds,
        "bulk_cached_bytes_per_sec": MIB / cached_seconds,
        "speedup_bulk_over_seed": seed_seconds / bulk_seconds,
    }


def bench_fingerprints() -> dict:
    blobs = [bytes([i % 256]) * 4096 for i in range(512)]
    assert fingerprint_many(blobs) == [fingerprint_of(b) for b in blobs]
    per_item = _best_of(lambda: [fingerprint_of(b) for b in blobs])
    batched = _best_of(lambda: fingerprint_many(blobs))
    return {
        "blob_bytes": 4096,
        "count": len(blobs),
        "per_item_fingerprints_per_sec": len(blobs) / per_item,
        "batched_fingerprints_per_sec": len(blobs) / batched,
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
    """Reference (per-axis scan) vs indexed (next-hop cache) routing.

    Both paths run the identical seeded workload; the message totals must
    match exactly (the golden-trace tests assert the stronger ordered
    property), so the ratio is a pure same-work speedup.
    """

    def build(reference: bool) -> Salad:
        salad = Salad(
            SaladConfig(dimensions=2, seed=7, reference_routing=reference)
        )
        salad.build(leaves)
        return salad

    batches = _insert_batches(build(False), records)
    state: dict = {}

    def run(reference: bool) -> None:
        fresh = build(reference)
        before = sum(fresh.message_totals())
        fresh.insert_records(batches)
        state["messages"] = sum(fresh.message_totals()) - before
        if not reference:
            # Rates come from the harvested telemetry registry -- the same
            # numbers a --metrics-out RunReport carries -- not from ad-hoc
            # leaf-attribute sums.
            registry = fresh.collect_metrics(MetricsRegistry())
            state["hits"] = registry.counter_value("salad.routing.next_hop_hits")
            state["misses"] = registry.counter_value("salad.routing.next_hop_misses")
            state["registry"] = registry

    reference_seconds = _best_of(lambda: run(True), repeats=2)
    reference_messages = state["messages"]
    indexed_seconds = _best_of(lambda: run(False), repeats=2)
    assert state["messages"] == reference_messages, "routing paths diverged"
    _merge_bench_metrics(state["registry"])
    lookups = state["hits"] + state["misses"]
    return {
        "leaves": leaves,
        "records": records,
        "reference_inserts_per_sec": records / reference_seconds,
        "indexed_inserts_per_sec": records / indexed_seconds,
        "speedup_indexed_over_reference": reference_seconds / indexed_seconds,
        "messages_per_record": state["messages"] / records,
        "next_hop_cache_hit_rate": state["hits"] / lookups if lookups else 0.0,
    }


def bench_flagship(leaves: int = 512, records: int = 2048) -> dict:
    """Pre-change vs flagship width-maintenance path on a growth-heavy workload.

    Three legs over one seeded build+insert:

    - ``reference``: the pre-change path -- every committed width change
      re-derives its survivor set with a full leaf-table scan
      (``reference_width=True``), recalculation eager;
    - ``amortized``: the incrementally maintained survivor partition
      (today's default) -- trace-identical to ``reference`` (asserted on
      message totals), so the ratio is a pure same-work speedup;
    - ``flagship``: amortized plus ``deferred_width_recalc`` -- Fig. 6
      coalesced to settle-round boundaries, the flagship run's insert-path
      configuration.  Not trace-identical (documented knob), so the assert
      weakens to the settled observables: width distribution and stored
      records must match the eager legs.

    Growth wall-clock is reported separately from the full leg: width
    maintenance concentrates in the bulk-join storm, which is where the
    flagship path pays off.
    """
    state: dict = {}

    def drive(key: str, reference: bool, deferred: bool):
        def run() -> None:
            salad = Salad(
                SaladConfig(
                    dimensions=2,
                    seed=7,
                    reference_width=reference,
                    deferred_width_recalc=deferred,
                )
            )
            start = time.perf_counter()
            salad.build(leaves)
            state[f"{key}_growth"] = time.perf_counter() - start
            salad.insert_records(_insert_batches(salad, records))
            registry = salad.collect_metrics(MetricsRegistry())
            state[f"{key}_registry"] = registry
            state[f"{key}_observed"] = (
                sum(salad.message_totals()),
                salad.total_stored_records(),
            )
            state[f"{key}_widths"] = salad.width_distribution()

        seconds = _best_of(run, repeats=2)
        # _best_of re-runs the whole leg; growth time is from the best run's
        # last execution, close enough for a ratio between identical reruns.
        return seconds

    reference_seconds = drive("reference", reference=True, deferred=False)
    amortized_seconds = drive("amortized", reference=False, deferred=False)
    flagship_seconds = drive("flagship", reference=False, deferred=True)

    # The amortized partition is trace-identical to the scan oracle.
    assert state["amortized_observed"] == state["reference_observed"], (
        "amortized width path diverged from the reference scan"
    )
    # Deferral changes the trace (documented), so the settled cube can
    # differ in individual leaves; it must still be an equivalent-quality
    # cube -- same record placement totals, mean width within noise.
    def mean_width(widths: dict) -> float:
        total = sum(widths.values())
        return sum(w * n for w, n in widths.items()) / total if total else 0.0

    eager_stored = state["amortized_observed"][1]
    deferred_stored = state["flagship_observed"][1]
    assert abs(deferred_stored - eager_stored) <= 0.01 * eager_stored, (
        f"deferred width recalc changed record placement materially "
        f"({deferred_stored} vs {eager_stored} stored)"
    )
    assert (
        abs(mean_width(state["flagship_widths"]) - mean_width(state["amortized_widths"]))
        <= 0.1
    ), "deferred width recalc settled to a materially different cube"

    def counter(key: str, name: str) -> float:
        return state[f"{key}_registry"].counter_value(name) or 0

    assert counter("amortized", "salad.routing.survivor_scans") == 0
    assert counter("reference", "salad.routing.survivor_scans") > 0
    _merge_bench_metrics(state["flagship_registry"])
    return {
        "leaves": leaves,
        "records": records,
        "reference_wall_seconds": reference_seconds,
        "amortized_wall_seconds": amortized_seconds,
        "flagship_wall_seconds": flagship_seconds,
        "reference_growth_seconds": state["reference_growth"],
        "flagship_growth_seconds": state["flagship_growth"],
        "flagship_joins_per_sec": leaves / state["flagship_growth"],
        "speedup_amortized_over_reference": reference_seconds / amortized_seconds,
        "speedup_flagship_over_reference": reference_seconds / flagship_seconds,
        "growth_speedup_flagship_over_reference": state["reference_growth"]
        / state["flagship_growth"],
        "reference_survivor_scans": counter(
            "reference", "salad.routing.survivor_scans"
        ),
        "flagship_survivor_scans": counter(
            "flagship", "salad.routing.survivor_scans"
        ),
        "eager_width_recalcs": counter("amortized", "salad.width.recalcs"),
        "deferred_width_recalcs": counter("flagship", "salad.width.recalcs"),
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


def bench_experiment_sweep() -> dict:
    """Small threshold sweep, serial vs all-core workers.

    Each Lambda is an independent simulation, so the sweep fans out across a
    process pool.  On a single-CPU machine (cpu_count == 1) the two times
    are the same run twice -- the recorded cpu_count says which regime a
    snapshot measured.
    """
    from repro.experiments.scales import SMALL
    from repro.experiments.threshold_sweep import run_threshold_sweep

    start = time.perf_counter()
    serial = run_threshold_sweep(SMALL, seed=0, workers=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_threshold_sweep(SMALL, seed=0, workers=0)
    parallel_seconds = time.perf_counter() - start
    assert serial.consumed_series() == parallel.consumed_series(), (
        "parallel sweep changed the results"
    )
    return {
        "scale": "small",
        "lambdas": len(serial.lambdas),
        "cpu_count": os.cpu_count() or 1,
        "serial_wall_seconds": serial_seconds,
        "parallel_wall_seconds": parallel_seconds,
        "speedup_parallel_over_serial": serial_seconds / parallel_seconds,
    }


def bench_db_backends(records: int = 5000, lookups: int = 1000) -> dict:
    """Insert/lookup throughput per record-store backend.

    The durable backends trade throughput for a bounded RSS and crash
    recovery; this section records the price so the trade stays visible.
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


def bench_pipeline() -> dict:
    spec = CorpusSpec(machines=48, mean_files_per_machine=24.0)
    corpus = generate_corpus(spec, seed=3)

    def run(workers: int):
        pipeline = DfcPipeline(corpus, DfcConfig(seed=3, workers=workers))
        return pipeline.execute()

    start = time.perf_counter()
    serial = run(workers=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run(workers=0)
    parallel_seconds = time.perf_counter() - start
    assert serial == parallel, "parallel pipeline changed the accounting"
    return {
        "machines": spec.machines,
        "total_bytes": serial.total_bytes,
        "physically_reclaimed": serial.physically_reclaimed,
        "serial_wall_seconds": serial_seconds,
        "parallel_wall_seconds": parallel_seconds,
    }


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
        # Record-flow counters are opt-in (they cost hot-path time, which
        # shows up in the recorded rates); asking for a report opts in.
        set_detailed_metrics(True)
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
        ("experiment_sweep", bench_experiment_sweep),
        ("pipeline", bench_pipeline),
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
        # Fold in the module-level collectors (accumulated across benches).
        from repro import perf
        from repro.core import fingerprint as fingerprint_module
        from repro.crypto import modes

        modes.collect_metrics(_BENCH_REGISTRY)
        fingerprint_module.collect_metrics(_BENCH_REGISTRY)
        perf.collect_metrics(_BENCH_REGISTRY)
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
