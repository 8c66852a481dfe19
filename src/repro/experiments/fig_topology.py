"""fig_topology: dissemination over a LAN/WAN topology under skewed traffic.

The paper's deployment (section 2) is a corporate network of desktops, but
its measurements assume a flat fabric.  This experiment puts the SALAD on a
site/rack topology (:mod:`repro.sim.topology`) and drives it with the
Zipf x Poisson publish stream (:mod:`repro.workload.traffic`), measuring
three things the flat fabric cannot:

- **dissemination quiescence time** -- virtual time from a wave's inserts
  to network quiescence.  With rack/lan/wan latency classes this is no
  longer a message-hop count times a constant; wan hops dominate.
- **per-link-class message load** -- how many messages cross rack, lan,
  and wan links (and how many die when wan links are cut mid-run).
- **hot-duplicate-cluster stress** -- Zipf popularity concentrates equal
  fingerprints into a few cells; the max/mean database-size ratio and the
  share of the hottest cell quantify the resulting hot spots.

Mid-run, the wan links of site 0 are severed for the middle third of the
waves and healed afterwards, so the drop counters show what a topology cut
costs the dissemination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.scales import ExperimentScale
from repro.obs.registry import MetricsRegistry
from repro.salad.salad import Salad, SaladConfig
from repro.sim.topology import Topology, parse_topology
from repro.workload.traffic import SkewedTraffic, TrafficSpec, parse_traffic

#: Link-class table order in the rendered report.
_CLASS_ORDER = ("rack", "lan", "wan")


@dataclass
class FigTopologyResult:
    topology: str
    traffic: str
    leaves: int
    waves: int
    arrivals: int
    records_inserted: int
    #: Per-wave virtual time from insert to quiescence.
    quiescence_times: List[float]
    quiescence_mean: float
    quiescence_max: float
    #: Insert-phase per-class counters: class -> {sent, delivered, dropped}.
    class_messages: Dict[str, Dict[str, int]]
    #: Fraction of insert-phase sends that crossed a wan link.
    wan_share: float
    #: (first wave, last wave) of the site-0 wan cut, or None (one site).
    cut_waves: Optional[Tuple[int, int]]
    #: Messages dropped while the cut was in force.
    dropped_during_cut: int
    #: Share of arrivals hitting the single most-published content.
    hot_content_share: float
    #: max/mean leaf database size after the run (hot-cell stress).
    cell_stress: float
    #: The hottest cell's share of all stored records.
    top_cell_share: float
    metrics: Optional[dict] = field(default=None, metadata={"telemetry": True})

    def render(self) -> str:
        lines = [
            "fig_topology: dissemination over a LAN/WAN topology, skewed traffic",
            f"  topology: {self.topology}",
            f"  traffic:  {self.traffic}",
            f"  leaves={self.leaves} waves={self.waves} "
            f"arrivals={self.arrivals} records inserted={self.records_inserted}",
            f"  quiescence time per wave (virtual): "
            f"mean={self.quiescence_mean:.1f} max={self.quiescence_max:.1f}",
            "  per-link-class message load (insert phase):",
            f"    {'class':<6} {'sent':>10} {'delivered':>10} {'dropped':>10}",
        ]
        for name in _CLASS_ORDER:
            counts = self.class_messages.get(name)
            if counts is None:
                continue
            lines.append(
                f"    {name:<6} {counts['sent']:>10} "
                f"{counts['delivered']:>10} {counts['dropped']:>10}"
            )
        lines.append(f"  wan share of sends: {self.wan_share:.1%}")
        if self.cut_waves is not None:
            lines.append(
                f"  site-0 wan cut over waves {self.cut_waves[0]}-"
                f"{self.cut_waves[1]}: {self.dropped_during_cut} messages dropped"
            )
        lines.append(
            f"  hot content share (top 1 of catalog): {self.hot_content_share:.1%}"
        )
        lines.append(
            f"  cell stress: max/mean db = {self.cell_stress:.1f}x, "
            f"hottest cell holds {self.top_cell_share:.1%} of records"
        )
        return "\n".join(lines)


def _class_counters(network) -> Dict[str, Dict[str, int]]:
    """The network's per-link-class counters as one nested dict."""
    return {
        name: {
            "sent": network.class_sent.get(name, 0),
            "delivered": network.class_delivered.get(name, 0),
            "dropped": network.class_dropped.get(name, 0),
        }
        for name in _CLASS_ORDER
    }


def _diff_counters(
    after: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    return {
        name: {
            key: after[name][key] - before.get(name, {}).get(key, 0)
            for key in after[name]
        }
        for name in after
    }


def run(
    scale: ExperimentScale,
    seed: int = 0,
    topology: Union[Topology, str, None] = None,
    traffic: Union[TrafficSpec, str, None] = None,
) -> FigTopologyResult:
    """Run the topology experiment at *scale*.

    *topology* and *traffic* accept CLI spec strings (see
    :func:`repro.sim.topology.parse_topology` and
    :func:`repro.workload.traffic.parse_traffic`), parsed objects, or None
    for the defaults (the corporate preset; the default traffic spec).
    """
    if not isinstance(topology, Topology):
        topo = parse_topology(topology if topology is not None else "corporate")
        if topo is None:
            raise ValueError("fig_topology needs a topology (got the flat fabric)")
    else:
        topo = topology
    spec = traffic if isinstance(traffic, TrafficSpec) else parse_traffic(traffic)

    engine = Salad(SaladConfig(seed=seed, topology=topo))
    network = engine.network
    try:
        engine.build(scale.machines, settle_each=True)
        baseline = _class_counters(network)
        driver = SkewedTraffic(spec, engine.alive_identifiers(), seed=seed + 1)

        can_cut = topo.sites > 1  # a cut needs a wan link to sever
        cut_start = spec.waves // 3
        cut_end = 2 * spec.waves // 3  # exclusive: healed before this wave
        cut_waves: Optional[Tuple[int, int]] = None
        dropped_during_cut = 0
        dropped_at_cut_start = 0

        inserted = 0
        quiescence: List[float] = []
        for wave in range(spec.waves):
            if can_cut and wave == cut_start and cut_end > cut_start:
                network.cut(*topo.wan_links(site=0))
                cut_waves = (cut_start, cut_end - 1)
                dropped_at_cut_start = network.messages_dropped
            if can_cut and wave == cut_end and cut_waves is not None:
                dropped_during_cut = (
                    network.messages_dropped - dropped_at_cut_start
                )
                network.heal()
            start = engine.now
            inserted += engine.insert_records(driver.wave(), settle=True)
            quiescence.append(engine.now - start)
        if can_cut and cut_waves is not None and cut_end >= spec.waves:
            dropped_during_cut = network.messages_dropped - dropped_at_cut_start

        class_messages = _diff_counters(_class_counters(network), baseline)
        total_sent = sum(counts["sent"] for counts in class_messages.values())
        wan_sent = class_messages.get("wan", {}).get("sent", 0)

        db_sizes = engine.database_sizes()
        total_records = sum(db_sizes) or 1
        mean_db = total_records / len(db_sizes) if db_sizes else 0.0
        max_db = max(db_sizes) if db_sizes else 0

        registry = MetricsRegistry()
        engine.collect_metrics(registry)

        return FigTopologyResult(
            topology=topo.describe(),
            traffic=(
                f"zipf(alpha={spec.zipf_alpha}, contents={spec.contents}) x "
                f"poisson(rate={spec.arrival_rate}), {spec.waves} waves"
            ),
            leaves=scale.machines,
            waves=spec.waves,
            arrivals=driver.arrivals,
            records_inserted=inserted,
            quiescence_times=quiescence,
            quiescence_mean=sum(quiescence) / len(quiescence),
            quiescence_max=max(quiescence),
            class_messages=class_messages,
            wan_share=wan_sent / total_sent if total_sent else 0.0,
            cut_waves=cut_waves,
            dropped_during_cut=dropped_during_cut,
            hot_content_share=driver.hot_share(top=1),
            cell_stress=max_db / mean_db if mean_db else 0.0,
            top_cell_share=max_db / total_records,
            metrics=registry.to_dict(),
        )
    finally:
        engine.shutdown()
