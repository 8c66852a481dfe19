"""Per-layer metrics of the traced run, derived by name.

:data:`DERIVATIONS` maps every ``per_layer`` name in ``BENCHMARK.json`` to
where its value comes from: a tracer accumulator (self / total seconds,
calls, extra), a counter harvested from the program's ``collect_metrics``,
a simulated statistic, or a value the workload timed itself.  A layer a
workload does not touch reads 0; a layer whose code no longer exists reads
0 *and* is listed as absent, so a PR that deletes a module need not edit
the benchmark first.
"""

from __future__ import annotations

import importlib
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from bench.trace import Installation, Tracer
from bench.workloads.base import Recorder

SELF, TOTAL, CALLS, EXTRA = 2, 1, 0, 3


class Readout:
    """Everything a derivation may read, with 0 for whatever is missing."""

    def __init__(self, rec: Recorder, tracer: Tracer):
        self.rec = rec
        self.keys = tracer.by_key()

    def key(self, key: str, field: int) -> float:
        return self.keys.get(key, (0, 0.0, 0.0, 0.0))[field]

    def counter(self, name: str) -> float:
        return self.rec.counters.get(name, 0)

    def sim(self, name: str) -> float:
        return self.rec.sim.get(name, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _self(key: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return key, lambda r: r.key(key, SELF)


def _total(key: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return key, lambda r: r.key(key, TOTAL)


def _calls(key: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return key, lambda r: r.key(key, CALLS)


def _counter(name: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return None, lambda r: r.counter(name)


def _sim(name: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return None, lambda r: r.sim(name)


#: A value the workload (or the runner) measured itself and stored in
#: ``Recorder.layer`` under the metric's own name.
MEASURED = (None, None)


def _hit_rate(hits: str, misses: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return None, lambda r: _ratio(r.counter(hits), r.counter(hits) + r.counter(misses))


def _mb_per_self_s(key: str) -> Tuple[Optional[str], Callable[[Readout], float]]:
    return key, lambda r: _ratio(r.key(key, EXTRA) / 1e6, r.key(key, SELF))


#: metric name -> (accumulator key whose absence makes the metric absent, derivation).
DERIVATIONS: Dict[str, Tuple[Optional[str], Optional[Callable[[Readout], float]]]] = {
    "sim.network.send_self_s": _self("sim.network.send"),
    "sim.network.deliver_self_s": _self("sim.network.deliver"),
    "sim.network.messages": _sim("sent"),
    "sim.network.dropped": _sim("dropped"),
    "sim.events.self_s": _self("sim.events.run"),
    "sim.events.events": ("sim.events.run", lambda r: r.key("sim.events.run", EXTRA)),
    "salad.leaf.receive_self_s": _self("salad.leaf.receive"),
    "salad.leaf.initiate_self_s": _self("salad.leaf.initiate"),
    "salad.leaf.next_hop_hit_rate": _hit_rate(
        "salad.routing.next_hop_hits", "salad.routing.next_hop_misses"
    ),
    # Record deliveries (forwarding hops plus in-cell replication) per inserted record.
    "salad.leaf.hops_mean": (
        "salad.leaf.receive",
        lambda r: _ratio(r.key("salad.leaf.receive", EXTRA), r.sim("records_inserted")),
    ),
    "salad.leaf.table_mean": MEASURED,
    "salad.leaf.survivor_scans": _counter("salad.routing.survivor_scans"),
    "salad.salad.wave_s_p75": MEASURED,
    "salad.salad.settle_self_s": _self("salad.salad.settle"),
    "salad.join.add_leaf_self_s": _self("salad.join.add_leaf"),
    "salad.join.joins_per_s_at_256": MEASURED,
    "salad.join.joins_per_s_at_512": MEASURED,
    "salad.join.joins_per_s_at_1024": MEASURED,
    "salad.join.joins_per_s_at_2048": MEASURED,
    "salad.join.joins_per_s_at_4096": MEASURED,
    "salad.width.recalcs": _counter("salad.width.recalcs"),
    "salad.maintenance.refresh_round_s": MEASURED,
    "salad.maintenance.entries_flushed": MEASURED,
    "salad.storage.insert_self_s": _self("salad.storage.insert"),
    "salad.storage.flush_self_s": _self("salad.storage.flush"),
    "salad.storage.lookup_self_s": _self("salad.storage.lookup"),
    "salad.storage.lookups_per_s": MEASURED,
    "salad.storage.inserts": _calls("salad.storage.insert"),
    "salad.storage.page_hit_rate": _hit_rate(
        "salad.storage.wal.page_hits", "salad.storage.wal.page_misses"
    ),
    "salad.storage.compactions": _counter("salad.storage.wal.compactions"),
    "salad.storage.disk_bytes_per_record": MEASURED,
    "salad.storage.reopen_s": MEASURED,
    "salad.sharded.wall_ratio_2w": MEASURED,
    "salad.sharded.build_wall_ratio_2w": MEASURED,
    "salad.sharded.exchange_bytes": MEASURED,
    "workload.generator.self_s": _self("workload.generator"),
    "workload.content.self_s": _self("workload.content"),
    "workload.content.mb_per_s": _mb_per_self_s("workload.content"),
    "farsite.dfc_pipeline.load_hosts_s": _total("farsite.dfc_pipeline.load_hosts"),
    "farsite.dfc_pipeline.discover_s": _total("farsite.dfc_pipeline.discover"),
    "farsite.dfc_pipeline.relocate_s": _total("farsite.dfc_pipeline.relocate"),
    "farsite.dfc_pipeline.report_s": _total("farsite.dfc_pipeline.report"),
    "farsite.sis.store_self_s": _self("farsite.sis.store"),
    "farsite.sis.read_self_s": _self("farsite.sis.read"),
    "farsite.sis.coalesce_rate": (
        "farsite.sis.store",
        lambda r: _ratio(r.key("farsite.sis.store", EXTRA), r.key("farsite.sis.store", CALLS)),
    ),
    "farsite.placement.self_s": _self("farsite.placement"),
    "farsite.relocation.plan_self_s": _self("farsite.relocation.plan"),
    # Applying the plan is the body of DfcPipeline.relocate around plan() and the SIS calls.
    "farsite.relocation.apply_self_s": _self("farsite.dfc_pipeline.relocate"),
    "farsite.relocation.migrations": MEASURED,
    "farsite.relocation.bytes_moved": MEASURED,
    "crypto.modes.ctr_self_s": _self("crypto.modes.ctr"),
    "crypto.modes.ctr_mb_per_s": _mb_per_self_s("crypto.modes.ctr"),
    "crypto.modes.keystream_hit_rate": _hit_rate(
        "crypto.ctr.keystream_cache_hits", "crypto.ctr.keystream_cache_misses"
    ),
    "crypto.rsa.self_s": _self("crypto.rsa"),
    "crypto.rsa.ops": _calls("crypto.rsa"),
    "core.convergent.encrypt_self_s": _self("core.convergent.encrypt"),
    "core.convergent.decrypt_self_s": _self("core.convergent.decrypt"),
    "core.fingerprint.self_s": _self("core.fingerprint"),
    "core.fingerprint.ops": _calls("core.fingerprint"),
    "farsite.directory_group.self_s": _self("farsite.directory_group"),
    "farsite.directory_group.ops": _calls("farsite.directory_group"),
    "farsite.client.write_ms_p99": MEASURED,
    "farsite.client.read_ms_p99": MEASURED,
    "analysis.space.self_s": _self("analysis.space"),
    "obs.harvest_s": MEASURED,
    "bench.trace_overhead_share": MEASURED,
    "bench.unattributed_share": MEASURED,
    "bench.sim_digest": MEASURED,
    "bench.workload_digest": MEASURED,
}


def derive(rec: Recorder, tracer: Tracer, installation: Installation) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric's value, and the names whose layer is gone."""
    readout = Readout(rec, tracer)
    gone = set(installation.absent_keys())
    values = {
        name: float(derivation(readout) if derivation else rec.layer.get(name, 0.0))
        for name, (_, derivation) in DERIVATIONS.items()
    }
    absent = sorted(name for name, (key, _) in DERIVATIONS.items() if key in gone)
    return values, absent + rec.absent


def bench_layer(rec: Recorder, tracer: Tracer) -> None:
    """The benchmark's own layer: tracing cost and how much time no span explains.

    ``trace_overhead_share`` here is an estimate -- wrapped calls times the
    cost of one wrapper, measured on the spot, over the timed seconds that
    remain.  ``bench run`` replaces it with the measured wall ratio whenever
    the plain run of the same inputs is at hand.
    """
    timed = [region for region in tracer.regions if region["kind"] == "timed"]
    duration = sum(region["duration_s"] for region in timed)
    unattributed = sum(region["self_s"] for region in timed)
    calls = sum(delta[CALLS] for region in timed for delta in region["layers"].values())
    overhead = calls * tracer.calibrate_overhead()
    rec.layer["bench.unattributed_share"] = _ratio(unattributed, duration)
    rec.layer["bench.trace_overhead_share"] = _ratio(overhead, max(duration - overhead, 1e-9))


def sharded_probe(seed: int, leaves: int, rec: Recorder) -> None:
    """Diagnostic: the 2-worker sharded engine against the single-process one.

    Same inputs on both (a build, then two waves of five records per leaf);
    reports wall ratios (sharded / single, lower is better) and the bytes
    the workers exchanged.  Marks the layer absent if the module is gone.
    """
    try:
        make_salad = importlib.import_module("repro.salad.sharded").make_salad
    except (ImportError, AttributeError):
        rec.absent += [name for name in DERIVATIONS if name.startswith("salad.sharded.")]
        return
    from repro.obs.registry import MetricsRegistry
    from repro.salad.salad import SaladConfig

    from bench import gen
    from bench.workloads.saladkit import ENGINE_SEED, materialize

    def run(workers: int) -> Tuple[float, float, float]:
        engine = make_salad(SaladConfig(dimensions=2, target_redundancy=2.0, seed=ENGINE_SEED,
                                        notify_limit=4, shard_workers=workers))
        try:
            started = time.perf_counter()
            engine.build(leaves)
            built = time.perf_counter()
            identifiers = engine.alive_identifiers()
            rng = random.Random(seed)
            stride = gen.contents_per_wave(leaves, 5)
            for wave in range(2):
                plan = gen.plan_wave(rng, leaves, 5, first_content_id=wave * stride)
                engine.insert_records(materialize(plan, identifiers, seed))
            waves = time.perf_counter() - built
            registry = MetricsRegistry()
            engine.collect_metrics(registry)
            exchanged = registry.counter_totals().get("salad.sharded.exchange_bytes", 0)
            return built - started, waves, exchanged
        finally:
            engine.shutdown()  # stops and joins the worker processes

    single_build, single_waves, _ = run(1)
    sharded_build, sharded_waves, exchanged = run(2)
    rec.layer["salad.sharded.build_wall_ratio_2w"] = _ratio(sharded_build, single_build)
    rec.layer["salad.sharded.wall_ratio_2w"] = _ratio(sharded_waves, single_waves)
    rec.layer["salad.sharded.exchange_bytes"] = exchanged
