"""CLI for regenerating every table and figure of the paper's section 5.

Usage::

    repro-experiments --scale default              # everything
    repro-experiments --scale full --only fig07 fig08
    python -m repro.experiments.runner --only dataset fig14

Shared work is reused: Figs. 7, 9, 10, 11, and 12 come from one threshold
sweep per Lambda; Figs. 14 and 15 come from one growth run per Lambda.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from typing import Any, Dict, List

from repro.experiments import (
    ablation_blocks,
    ablation_dimensionality,
    attack_check,
    churn,
    dataset_stats,
    fig07_space_vs_minsize,
    fig08_space_vs_failure,
    fig09_messages_vs_minsize,
    fig10_message_cdf,
    fig11_dbsize_vs_minsize,
    fig12_dbsize_cdf,
    fig13_space_vs_dblimit,
    fig14_leaftable_vs_size,
    fig15_leaftable_cdf,
    fig_topology,
    fig_tradeoff,
    model_check,
)
from repro.experiments.growth import growth_sample_points, run_growth_suite
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    CollectorWatch,
    build_run_report,
    print_summary,
    write_run_report,
)
from repro.obs.spans import reset_spans, span
from repro.perf import set_default_workers
from repro.experiments.scales import PAPER_LAMBDAS, SCALES, get_scale
from repro.experiments.threshold_sweep import run_threshold_sweep
from repro.obs import tracing
from repro.salad.salad import (
    set_detailed_metrics,
    set_trace_invariants,
    set_trace_sample_rate,
)
from repro.salad.storage import BACKENDS, set_default_db_backend

SWEEP_FIGURES = {"fig07", "fig09", "fig10", "fig11", "fig12"}
GROWTH_FIGURES = {"fig14", "fig15"}
ALL_EXPERIMENTS = [
    "dataset",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig-topology",
    "fig-tradeoff",
    "model",
    "attack",
    "ablation-blocks",
    "ablation-dim",
    "churn",
]


def _jsonable(value: Any) -> Any:
    """Recursively convert an experiment result into JSON-compatible data.

    Dataclasses become dicts, non-string dict keys become strings, bytes
    become hex, and anything else unencodable becomes its repr -- enough to
    persist every result type the experiments produce.

    Fields tagged ``metadata={"telemetry": True}`` are skipped: they carry
    harvested registry dumps for the RunReport, which include wall-clock
    histograms -- machine-dependent data that would break the guarantee
    that ``--json`` output is byte-identical across runs and worker counts.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not f.metadata.get("telemetry")
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def run_experiments_raw(names: List[str], scale_name: str, seed: int = 0) -> Dict[str, Any]:
    """Run the named experiments; returns the raw result object per name."""
    rendered = run_experiments(names, scale_name, seed=seed, raw=True)
    return rendered


def run_experiments(
    names: List[str],
    scale_name: str,
    seed: int = 0,
    raw: bool = False,
    db_backend: str = None,
    db_dir: str = None,
    registry: MetricsRegistry = None,
    topology: str = None,
    traffic: str = None,
    replication_factor: int = None,
) -> Dict[str, Any]:
    """Run the named experiments; returns rendered output (or raw results) per name.

    ``db_backend``/``db_dir`` select the per-leaf record-store backend for
    the database-centric experiments (the shared threshold sweep feeding
    Figs. 7/9-12, and Fig. 13's capacity runs); every backend reports
    identical numbers, the durable ones just bound RAM at full scale.
    ``registry`` collects telemetry (repro.obs) from the runs that harvest
    it -- the shared sweep and growth engines, and the topology experiment
    -- for a ``--metrics-out`` RunReport.  ``topology``/``traffic`` are the
    fig-topology spec strings (see repro.sim.topology.parse_topology and
    repro.workload.traffic.parse_traffic); other experiments ignore them.
    ``replication_factor`` restricts the fig-tradeoff sweep to one R
    (None = the default 1..4 sweep); other experiments ignore it.
    """
    scale = get_scale(scale_name)
    outputs: Dict[str, Any] = {}

    sweep = None
    if SWEEP_FIGURES & set(names):
        with span("threshold_sweep"):
            sweep = run_threshold_sweep(
                scale, seed=seed, db_backend=db_backend, db_dir=db_dir
            )
        if registry is not None:
            for dump in sweep.metrics.values():
                registry.merge_dict(dump)

    growth = None
    if GROWTH_FIGURES & set(names):
        sample_sizes = sorted(
            set(growth_sample_points(scale.growth_max_leaves))
            | {scale.fig15_small, scale.fig15_large}
        )
        with span("growth_suite"):
            growth = run_growth_suite(
                PAPER_LAMBDAS, scale.growth_max_leaves, sample_sizes, seed=seed
            )
        if registry is not None:
            for result in growth.values():
                if result.metrics:
                    registry.merge_dict(result.metrics)

    for name in names:
        with span(name):
            if name == "dataset":
                result = dataset_stats.run(scale, seed=seed)
            elif name == "fig07":
                result = fig07_space_vs_minsize.run(scale, seed, sweep)
            elif name == "fig08":
                result = fig08_space_vs_failure.run(scale, seed=seed)
            elif name == "fig09":
                result = fig09_messages_vs_minsize.run(scale, seed, sweep)
            elif name == "fig10":
                result = fig10_message_cdf.run(scale, seed, sweep)
            elif name == "fig11":
                result = fig11_dbsize_vs_minsize.run(scale, seed, sweep)
            elif name == "fig12":
                result = fig12_dbsize_cdf.run(
                    scale, seed, sweep, db_backend=db_backend, db_dir=db_dir
                )
            elif name == "fig13":
                result = fig13_space_vs_dblimit.run(
                    scale, seed=seed, db_backend=db_backend, db_dir=db_dir
                )
            elif name == "fig14":
                result = fig14_leaftable_vs_size.run(scale, PAPER_LAMBDAS, seed, growth)
            elif name == "fig15":
                result = fig15_leaftable_cdf.run(scale, PAPER_LAMBDAS, seed, growth)
            elif name == "fig-topology":
                result = fig_topology.run(
                    scale, seed=seed, topology=topology, traffic=traffic
                )
                if registry is not None and result.metrics:
                    registry.merge_dict(result.metrics)
            elif name == "fig-tradeoff":
                result = fig_tradeoff.run(
                    scale, seed=seed, replication=replication_factor
                )
                if registry is not None and result.metrics:
                    registry.merge_dict(result.metrics)
            elif name == "model":
                result = model_check.run(scale, seed=seed)
            elif name == "attack":
                result = attack_check.run(scale, seed=seed)
            elif name == "ablation-blocks":
                result = ablation_blocks.run(scale, seed=seed)
            elif name == "ablation-dim":
                result = ablation_dimensionality.run(scale, seed=seed)
            elif name == "churn":
                result = churn.run(scale, seed=seed)
            else:
                raise ValueError(f"unknown experiment {name!r}")
        outputs[name] = result if raw else result.render()
    return outputs


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the tables/figures of Douceur et al. (ICDCS 2002)."
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="experiment scale (see repro.experiments.scales)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=ALL_EXPERIMENTS,
        default=None,
        help="run only these experiments (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for batch-parallel phases (0 = one per CPU); "
        "results are byte-identical at any worker count",
    )
    parser.add_argument(
        "--db-backend",
        choices=sorted(BACKENDS),
        default="memory",
        help="record-store backend per leaf (memory = all-RAM; sqlite, wal "
        "and wal-paged spill to disk with crash recovery; results are "
        "identical)",
    )
    parser.add_argument(
        "--db-dir",
        metavar="DIR",
        default=None,
        help="directory for durable record stores (default: a tempdir)",
    )
    parser.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help="network topology for the fig-topology experiment: a preset "
        "(one-site, campus, corporate) or 'sites=4,racks=2,rack=1,lan=2,"
        "wan=10,quantum=1.0' (default: corporate); other experiments keep "
        "the flat fabric",
    )
    parser.add_argument(
        "--traffic",
        metavar="SPEC",
        default=None,
        help="skewed traffic for the fig-topology experiment: "
        "'alpha=1.1,contents=512,rate=16,waves=20,median=8000,sigma=2.1' "
        "(Zipf popularity x Poisson arrivals; defaults shown)",
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=None,
        metavar="R",
        help="restrict the fig-tradeoff sweep to one replication factor "
        "(default: sweep R in 1..4); other experiments ignore this",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the raw result data (series, not just tables) as JSON",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a RunReport (repro.obs: merged metrics registry, phase "
        "tree, environment) as JSON and print a summary table on stderr",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="causal-trace sampling rate in [0,1] for every simulation the "
        "run builds (deterministic per-record hash; 0 = off, the default); "
        "sampled timelines land in the RunReport's traces section",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write sampled causal traces as Chrome trace-event JSON "
        "(open in Perfetto: ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-invariants",
        action="store_true",
        help="run the opt-in invariant tracer inside every simulation and "
        "feed violation counters into the metrics (retains every message "
        "in memory: meant for small/smoke scales)",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0 (0 = auto): {args.workers}")
    if args.replication_factor is not None and args.replication_factor < 1:
        parser.error(
            f"--replication-factor must be >= 1: {args.replication_factor}"
        )
    # Fail fast on malformed topology/traffic specs (the experiment parses
    # them again itself; this just turns typos into argparse errors).
    from repro.sim.topology import parse_topology
    from repro.workload.traffic import parse_traffic

    try:
        parse_topology(args.topology)
        parse_traffic(args.traffic)
    except ValueError as exc:
        parser.error(str(exc))
    set_default_workers(args.workers)
    # Session default so every Salad built anywhere in the run (including
    # experiments that build their own) picks up the chosen backend; the
    # database-centric experiments additionally get it threaded explicitly.
    set_default_db_backend(args.db_backend, args.db_dir)
    set_trace_invariants(args.trace_invariants)
    # Set even when the flag is absent (0 = off), so a rate from an earlier
    # in-process main() cannot carry into this run.
    try:
        set_trace_sample_rate(args.trace_sample_rate)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    # Detailed record-flow counters cost hot-path time, so only runs that
    # actually write a report pay for them.
    set_detailed_metrics(bool(args.metrics_out))

    registry = MetricsRegistry() if args.metrics_out else None
    names = args.only or ALL_EXPERIMENTS
    # A CLI run owns the process span buffer: discard anything a previous
    # in-process run left behind (library callers invoking main() twice)
    # so the report's phase tree covers exactly this run.
    reset_spans()
    start = time.time()
    # With a report, also watch the cyclic collector (environment.gc): its
    # time is otherwise invisible, charged to whichever frame allocated.
    collector = CollectorWatch() if args.metrics_out else None
    with collector or contextlib.nullcontext():
        results = run_experiments(
            names,
            args.scale,
            seed=args.seed,
            raw=bool(args.json),
            db_backend=args.db_backend,
            db_dir=args.db_dir,
            registry=registry,
            topology=args.topology,
            traffic=args.traffic,
            replication_factor=args.replication_factor,
        )
    if args.json:
        outputs = {name: result.render() for name, result in results.items()}
        payload = {
            "scale": args.scale,
            "seed": args.seed,
            "results": {name: _jsonable(result) for name, result in results.items()},
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"raw results written to {args.json}")
    else:
        outputs = results
    for name in names:
        print(f"\n{'=' * 72}\n[{name}]")
        print(outputs[name])
    print(f"\ncompleted {len(names)} experiments in {time.time() - start:.1f}s")
    trace_rate = args.trace_sample_rate
    trace_events = tracing.take_events() if trace_rate > 0.0 else []
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
                "scale": args.scale,
                "seed": args.seed,
                "experiments": ",".join(names),
                "workers": args.workers,
                "db_backend": args.db_backend,
                "topology": args.topology,
                "traffic": args.traffic,
                "trace_invariants": args.trace_invariants or None,
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
