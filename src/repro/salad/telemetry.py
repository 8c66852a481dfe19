"""Harvesting SALAD runtime state into a MetricsRegistry.

The leaf/network/storage hot paths keep plain integer attributes (one int
add each); this module turns those attributes into registry entries at
report time: :meth:`repro.salad.salad.Salad.collect_metrics` harvests the
leaves it holds.

Because a harvest is a snapshot of trace-driven attributes, two runs of
the same golden trace harvest bit-identical counter totals.  Wall-clock
quantities (sqlite flush latency) are histograms, never counters, so that
identity stays exact.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.registry import MetricsRegistry


def harvest_salad_metrics(
    registry: MetricsRegistry,
    leaves: Iterable,
    network,
    dimensions: int,
) -> MetricsRegistry:
    """Build registry entries from live SALAD state; returns *registry*.

    *leaves* is any iterable of :class:`~repro.salad.leaf.SaladLeaf`;
    *network* is the engine's :class:`~repro.sim.network.Network`.
    """
    registry.gauge("salad.config.dimensions").set(dimensions)

    hits = misses = scans = width_changes = width_recalcs = 0
    arrivals = hops = notifications = 0
    envelopes = envelope_records = 0
    stored = evictions = rejections = 0
    alive = total = 0
    batch_hist = registry.histogram("salad.routing.batch_size")
    flush_hist = registry.histogram("salad.storage.sqlite.flush_seconds")
    flushes = compactions = sync_writes = 0
    recovered = torn_bytes = log_ops = 0
    page_hits = page_misses = tag_rejects = 0
    for leaf in leaves:
        total += 1
        if leaf.alive:
            alive += 1
        hits += leaf.next_hop_hits
        misses += leaf.next_hop_misses
        scans += leaf.survivor_scans
        width_changes += leaf.width_changes
        width_recalcs += leaf.width_recalcs
        arrivals += leaf.record_arrivals
        hops += leaf.record_hops
        # Notifications *delivered*: the recipient's matches list is already
        # maintained by the protocol, so this costs the hot path nothing.
        notifications += len(leaf.matches)
        envelopes += leaf.batch_envelopes
        envelope_records += leaf.batch_records
        for size, n in leaf.batch_size_counts.items():
            batch_hist.observe_count(size, n)
        db = leaf.database
        stored += len(db)
        evictions += db.evictions
        rejections += db.rejections
        db_flush_hist = getattr(db, "flush_seconds", None)
        if db_flush_hist is not None:  # sqlite backend
            flushes += db.flushes
            flush_hist.merge_from(db_flush_hist)
        if getattr(db, "compactions", None) is not None:  # WAL backends
            compactions += db.compactions
            sync_writes += db.sync_writes
            recovered += db.recovered_records
            torn_bytes += db.torn_bytes_dropped
            log_ops += db.log_ops
        if getattr(db, "page_hits", None) is not None:  # paging WAL backend
            page_hits += db.page_hits
            page_misses += db.page_misses
            tag_rejects += db.tag_rejects

    registry.counter("salad.leaves.total").inc(total)
    registry.counter("salad.leaves.alive").inc(alive)
    registry.counter("salad.routing.next_hop_hits").inc(hits)
    registry.counter("salad.routing.next_hop_misses").inc(misses)
    registry.counter("salad.routing.survivor_scans").inc(scans)
    registry.counter("salad.width.changes").inc(width_changes)
    registry.counter("salad.width.recalcs").inc(width_recalcs)
    registry.counter("salad.records.arrivals").inc(arrivals)
    registry.counter("salad.records.hops").inc(hops)
    registry.counter("salad.records.stored").inc(stored)
    registry.counter("salad.records.match_notifications").inc(notifications)
    registry.counter("salad.routing.envelopes").inc(envelopes)
    registry.counter("salad.routing.envelope_records").inc(envelope_records)
    registry.counter("salad.storage.evictions").inc(evictions)
    registry.counter("salad.storage.rejections").inc(rejections)
    registry.counter("salad.storage.sqlite.flushes").inc(flushes)
    registry.counter("salad.storage.wal.compactions").inc(compactions)
    registry.counter("salad.storage.wal.sync_writes").inc(sync_writes)
    registry.counter("salad.storage.wal.recovered_records").inc(recovered)
    registry.counter("salad.storage.wal.torn_bytes_dropped").inc(torn_bytes)
    registry.counter("salad.storage.wal.log_ops").inc(log_ops)
    registry.counter("salad.storage.wal.page_hits").inc(page_hits)
    registry.counter("salad.storage.wal.page_misses").inc(page_misses)
    registry.counter("salad.storage.wal.tag_rejects").inc(tag_rejects)

    registry.counter("salad.network.messages_sent").inc(network.messages_sent)
    registry.counter("salad.network.messages_delivered").inc(
        network.messages_delivered
    )
    registry.counter("salad.network.messages_dropped").inc(network.messages_dropped)
    # Per-link-class counters, topology mode only (the dicts stay empty on
    # the flat fabric).  Labeled per class -- the raw data behind
    # fig_topology's per-class load table.
    for class_name, count in network.class_sent.items():
        registry.counter("salad.network.class_sent", link_class=class_name).inc(count)
    for class_name, count in network.class_delivered.items():
        registry.counter(
            "salad.network.class_delivered", link_class=class_name
        ).inc(count)
    for class_name, count in network.class_dropped.items():
        registry.counter(
            "salad.network.class_dropped", link_class=class_name
        ).inc(count)
    return registry


def harvest_trace_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Registry entries for this process's causal-trace recorder, if any.

    Lands under ``sim.trace.*``.  No-op when tracing is off, so the
    counters appear only in sampled runs (skip-if-absent downstream).
    """
    from repro.obs import tracing

    recorder = tracing.ACTIVE
    if recorder is None:
        return registry
    registry.counter("sim.trace.records_sampled").inc(recorder.records_sampled)
    registry.counter("sim.trace.events_recorded").inc(
        recorder._seq  # total ever emitted, not just the undrained tail
    )
    registry.gauge("sim.trace.sample_rate").set(recorder.sample_rate)
    return registry


def harvest_tradeoff_metrics(
    registry: MetricsRegistry, points: Iterable
) -> MetricsRegistry:
    """Registry entries for the fig-tradeoff frontier; returns *registry*.

    *points* is any iterable of objects with the
    :class:`repro.experiments.fig_tradeoff.TradeoffPoint` attributes
    (duck-typed so this layer stays import-free of the experiments).
    Everything lands under ``tradeoff.*`` labeled by replication factor
    and dedup arm, which is what the bench section and the
    ``check_regression.py --metrics`` gates read out of a RunReport.
    """
    for p in points:
        labels = {"r": str(p.replication), "dedup": "on" if p.dedup else "off"}
        registry.gauge("tradeoff.reclaimed_fraction", **labels).set(
            p.reclaimed_fraction
        )
        registry.gauge("tradeoff.min_availability", **labels).set(
            p.min_availability
        )
        registry.gauge("tradeoff.mean_availability", **labels).set(
            p.mean_availability
        )
        registry.counter("tradeoff.moved_replicas", **labels).inc(p.moved_replicas)
        registry.counter("tradeoff.copies", **labels).inc(p.copies)
        registry.counter("tradeoff.shortfall", **labels).inc(p.shortfall)
        registry.counter("tradeoff.files_at_risk", **labels).inc(p.files_at_risk)
        registry.counter("tradeoff.files_lost", **labels).inc(p.files_lost)
        registry.gauge("tradeoff.loss_event_probability", **labels).set(
            p.loss_event_probability
        )
        registry.gauge("tradeoff.recovered_fraction", **labels).set(
            p.recovered_fraction
        )
    return registry

