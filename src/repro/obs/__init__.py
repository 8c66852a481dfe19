"""repro.obs: zero-dependency telemetry (metrics, spans, run reports).

See ``docs/OBSERVABILITY.md`` for the metric catalog, span conventions,
and the RunReport JSON schema.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_of,
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
from repro.obs.spans import Span, phase, span, take_phases
from repro.obs.tracing import (
    FlightRecorder,
    TraceRecorder,
    build_timelines,
    export_chrome_trace,
    trace_id_for,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_of",
    "SCHEMA",
    "CollectorWatch",
    "build_run_report",
    "print_summary",
    "summary_table",
    "validate_run_report",
    "write_run_report",
    "Span",
    "phase",
    "span",
    "take_phases",
    "FlightRecorder",
    "TraceRecorder",
    "build_timelines",
    "export_chrome_trace",
    "trace_id_for",
]
