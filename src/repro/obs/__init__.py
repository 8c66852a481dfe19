"""repro.obs: zero-dependency telemetry (metrics, spans, run reports).

See ``docs/OBSERVABILITY.md`` for the metric catalog, span conventions,
and the RunReport JSON schema.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_of,
    disable,
    enable,
    enabled,
    get_registry,
)
from repro.obs.report import (
    SCHEMA,
    CollectorWatch,
    build_run_report,
    print_summary,
    summary_table,
    validate_run_report,
    write_run_report,
)
from repro.obs.spans import Span, current_span, phase, span, take_phases
from repro.obs.tracing import (
    FlightRecorder,
    TraceRecorder,
    build_timelines,
    export_chrome_trace,
    heartbeat,
    install_flight_recorder,
    trace_id_for,
    uninstall_flight_recorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "bucket_of",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "SCHEMA",
    "CollectorWatch",
    "build_run_report",
    "print_summary",
    "summary_table",
    "validate_run_report",
    "write_run_report",
    "Span",
    "current_span",
    "phase",
    "span",
    "take_phases",
    "FlightRecorder",
    "TraceRecorder",
    "build_timelines",
    "export_chrome_trace",
    "heartbeat",
    "install_flight_recorder",
    "trace_id_for",
    "uninstall_flight_recorder",
]
