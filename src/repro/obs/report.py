"""RunReport: one JSON document per run -- registry + phases + environment.

Every experiment and benchmark CLI accepts ``--metrics-out PATH``; when
given, the run ends by serializing

- the merged :class:`~repro.obs.registry.MetricsRegistry` (counters,
  gauges, histograms),
- the phase tree drained from :mod:`repro.obs.spans`,
- the environment (python, platform, cpu_count, git SHA, plus
  caller-supplied extras such as backend and worker count, and -- when the
  run was wrapped in a :class:`CollectorWatch` -- what CPython's cyclic
  collector did meanwhile)

to a *stable, versioned* JSON schema (:data:`SCHEMA`), and prints a short
human-readable summary table on stderr.  ``benchmarks/check_regression.py
--metrics`` gates on rates derived from the report, and
``tests/obs/test_report_schema.py`` pins the schema via
:func:`validate_run_report` so the format cannot drift silently.

``python -m repro.obs.report PATH`` re-renders the summary table of a
saved report (CI runs it on the smoke artifact after the trend step).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, take_phases

#: Schema identifier; bump the suffix on any breaking layout change.
#: v2 adds the optional ``traces`` section (causal-trace sample rate +
#: drained events) -- purely additive, so v1 documents remain valid and
#: the validator accepts both.
SCHEMA = "repro.run-report/2"

#: Schema ids :func:`validate_run_report` accepts (v1 reports predate the
#: traces section and are otherwise layout-identical).
ACCEPTED_SCHEMAS = ("repro.run-report/1", SCHEMA)


def git_sha() -> Optional[str]:
    """The repo HEAD SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment(extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_sha(),
    }
    if extra:
        env.update(extra)
    return env


class CollectorWatch:
    """What CPython's cyclic collector did while a report session ran.

    A context manager around the measured part of a run::

        with CollectorWatch() as collector:
            run()
        build_run_report(registry, collector=collector)

    Collections and objects freed per generation are ``gc.get_stats()``
    deltas; collector seconds come from a ``gc.callbacks`` start/stop pair
    that is installed only between enter and exit.  Outside-in tracers and
    cProfile cannot see the collector: a collection runs inside whichever
    allocation tripped the threshold, so its time is charged to that frame
    (``Network.send`` carried seconds of it once).  This entry is where it
    shows instead.  Covers this process only, not a sweep's pool processes.
    """

    def __init__(self) -> None:
        self.collections: List[int] = []
        self.collected: List[int] = []
        self.seconds = 0.0
        self._before: List[dict] = []
        self._started: Optional[float] = None

    def __enter__(self) -> "CollectorWatch":
        self._before = gc.get_stats()
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._on_collection)
        after = gc.get_stats()
        generations = list(zip(self._before, after))
        self.collections = [b["collections"] - a["collections"] for a, b in generations]
        self.collected = [b["collected"] - a["collected"] for a, b in generations]

    def _on_collection(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "collections": self.collections,
            "collected": self.collected,
            "seconds": self.seconds,
        }


def build_run_report(
    registry: MetricsRegistry,
    phases: Optional[Sequence[Span]] = None,
    env: Optional[Dict[str, Any]] = None,
    traces: Optional[dict] = None,
    collector: Optional[CollectorWatch] = None,
) -> dict:
    """Assemble the report dict.

    *phases* defaults to draining :func:`repro.obs.spans.take_phases`;
    *env* entries extend (and may override) the probed environment.
    *traces*, when given, becomes the schema-v2 ``traces`` section --
    ``{"sample_rate": float, "events": [...]}``  with the causal-trace
    events drained from :mod:`repro.obs.tracing`.
    *collector*, an exited :class:`CollectorWatch`, becomes the optional
    ``environment.gc`` entry.
    """
    if phases is None:
        phases = take_phases()
    report = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "environment": environment(env),
        "metrics": registry.to_dict(),
        "phases": [p.to_dict() for p in phases],
    }
    if traces is not None:
        report["traces"] = traces
    if collector is not None:
        report["environment"]["gc"] = collector.to_dict()
    return report


def write_run_report(path: os.PathLike, report: dict) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return out


def validate_run_report(data: Any) -> List[str]:
    """Structural schema check; returns problems (empty = valid).

    Deliberately a hand-rolled validator (no jsonschema dependency) that
    pins exactly what downstream consumers read: the schema id, the
    environment keys, the metrics triple with its entry shapes, the phase
    tree, and the optional traces section.
    """
    problems: List[str] = []

    def check(cond: bool, message: str) -> bool:
        if not cond:
            problems.append(message)
        return cond

    if not check(isinstance(data, dict), "report is not an object"):
        return problems
    check(
        data.get("schema") in ACCEPTED_SCHEMAS,
        f"schema is not one of {ACCEPTED_SCHEMAS!r}: {data.get('schema')!r}",
    )
    check(isinstance(data.get("created_unix"), (int, float)), "created_unix missing")

    env = data.get("environment")
    if check(isinstance(env, dict), "environment missing"):
        for key in ("python", "platform", "machine", "cpu_count"):
            check(key in env, f"environment.{key} missing")
        if "gc" in env:
            collector = env["gc"]
            if check(isinstance(collector, dict), "environment.gc is not an object"):
                for key in ("collections", "collected"):
                    check(
                        isinstance(collector.get(key), list)
                        and all(
                            isinstance(n, int) and not isinstance(n, bool)
                            for n in collector[key]
                        ),
                        f"environment.gc.{key} is not a list of counts",
                    )
                check(
                    isinstance(collector.get("seconds"), (int, float))
                    and not isinstance(collector.get("seconds"), bool),
                    "environment.gc.seconds missing",
                )

    metrics = data.get("metrics")
    if check(isinstance(metrics, dict), "metrics missing"):
        for section, value_keys in (
            ("counters", ("value",)),
            ("gauges", ("value",)),
            ("histograms", ("count", "total", "buckets")),
        ):
            entries = metrics.get(section)
            if not check(isinstance(entries, list), f"metrics.{section} missing"):
                continue
            for i, entry in enumerate(entries):
                where = f"metrics.{section}[{i}]"
                if not check(isinstance(entry, dict), f"{where} is not an object"):
                    continue
                check(isinstance(entry.get("name"), str), f"{where}.name missing")
                check(isinstance(entry.get("labels"), dict), f"{where}.labels missing")
                for key in value_keys:
                    check(key in entry, f"{where}.{key} missing")

    phases = data.get("phases")
    if check(isinstance(phases, list), "phases missing"):
        _check_sibling_names(phases, "phases", problems)
        for i, entry in enumerate(phases):
            _validate_phase(entry, f"phases[{i}]", problems)

    if "traces" in data:
        traces = data["traces"]
        if check(isinstance(traces, dict), "traces is not an object"):
            check(
                isinstance(traces.get("sample_rate"), (int, float))
                and not isinstance(traces.get("sample_rate"), bool),
                "traces.sample_rate missing",
            )
            events = traces.get("events")
            if check(isinstance(events, list), "traces.events missing"):
                for i, event in enumerate(events):
                    where = f"traces.events[{i}]"
                    if not check(isinstance(event, dict), f"{where} is not an object"):
                        continue
                    check(isinstance(event.get("kind"), str), f"{where}.kind missing")
                    check(
                        isinstance(event.get("t"), (int, float)),
                        f"{where}.t missing",
                    )
    return problems


def _check_sibling_names(entries: Any, where: str, problems: List[str]) -> None:
    """Reject duplicate phase names at one nesting level.

    :func:`summary_table` renders siblings by name and downstream gates
    look phases up by name, so two same-named siblings would silently
    shadow each other -- a duplicate in a report deserves a loud error.
    """
    seen: Dict[str, int] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        if not isinstance(name, str):
            continue
        seen[name] = seen.get(name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            problems.append(
                f"{where} has {count} sibling phases named {name!r} "
                "(same-level phase names must be unique)"
            )


def _validate_phase(entry: Any, where: str, problems: List[str]) -> None:
    if not isinstance(entry, dict):
        problems.append(f"{where} is not an object")
        return
    if not isinstance(entry.get("name"), str):
        problems.append(f"{where}.name missing")
    if not isinstance(entry.get("seconds"), (int, float)):
        problems.append(f"{where}.seconds missing")
    children = entry.get("children", ())
    if isinstance(children, list):
        _check_sibling_names(children, f"{where}.children", problems)
    for i, child in enumerate(children):
        _validate_phase(child, f"{where}.children[{i}]", problems)


# ----------------------------------------------------------------------------
# human-readable summary
# ----------------------------------------------------------------------------


def summary_table(report: dict, top_counters: int = 20) -> str:
    """A compact stderr-friendly rendering of a RunReport."""
    lines: List[str] = []
    env = report.get("environment", {})
    sha = env.get("git_sha")
    lines.append(
        f"run report  python {env.get('python')}  cpus {env.get('cpu_count')}"
        + (f"  git {sha[:12]}" if sha else "")
    )
    extras = {
        k: v
        for k, v in env.items()
        if k not in ("python", "platform", "machine", "cpu_count", "git_sha", "gc")
        and v is not None
    }
    if extras:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in sorted(extras.items())))
    collector = env.get("gc")
    if collector:
        lines.append(
            "gc: collections "
            + "/".join(f"{n:,}" for n in collector["collections"])
            + " (gen 0/1/2)  freed "
            + f"{sum(collector['collected']):,} objects"
            + f"  {collector['seconds']:.3f}s in the collector"
        )

    phases = report.get("phases", [])
    if phases:
        lines.append("phases:")
        for entry in phases:
            _render_phase(entry, lines, indent=1)

    counters = report.get("metrics", {}).get("counters", [])
    if counters:
        lines.append("counters:")
        shown = sorted(counters, key=lambda e: -abs(e["value"]))[:top_counters]
        width = max(len(_entry_name(e)) for e in shown)
        for entry in sorted(shown, key=_entry_name):
            lines.append(f"  {_entry_name(entry).ljust(width)}  {entry['value']:,}")
        if len(counters) > len(shown):
            lines.append(f"  ... {len(counters) - len(shown)} more")

    histograms = report.get("metrics", {}).get("histograms", [])
    if histograms:
        lines.append("histograms:")
        for entry in histograms:
            mean = entry["total"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  {_entry_name(entry)}  n={entry['count']:,}"
                f"  mean={mean:.6g}  min={entry.get('min'):.6g}"
                f"  max={entry.get('max'):.6g}"
            )

    traces = report.get("traces")
    if traces:
        events = traces.get("events") or []
        records = len({e.get("trace_id") for e in events} - {None})
        covered = traces.get("experiments")
        lines.append(
            f"traces: {len(events)} events across {records} sampled records"
            f"  (sample_rate={traces.get('sample_rate')})"
            + ("" if covered is None else f"  from: {', '.join(covered) or 'none'}")
        )
    return "\n".join(lines)


def _entry_name(entry: dict) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{rendered}}}"


def _render_phase(entry: dict, lines: List[str], indent: int) -> None:
    rate = entry.get("ops_per_second")
    suffix = f"  ops={entry['ops']:,}" if "ops" in entry else ""
    if rate is not None:
        suffix += f"  ({rate:,.0f}/s)"
    lines.append(f"{'  ' * indent}{entry['name']}: {entry['seconds']:.3f}s{suffix}")
    for child in entry.get("children", ()):
        _render_phase(child, lines, indent + 1)


def print_summary(report: dict, stream=None) -> None:
    print(summary_table(report), file=stream if stream is not None else sys.stderr)


def main(argv=None) -> int:
    """``python -m repro.obs PATH``: validate + summarize a report.

    Returns 0 for a valid report, 1 for schema problems, 2 for a bad
    argument (``-h``, no path, a path that is missing or not JSON).
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print("usage: python -m repro.obs REPORT.json", file=sys.stderr)
        return 2
    try:
        data = json.loads(Path(args[0]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:  # unreadable, or not JSON
        print(f"cannot read a RunReport from {args[0]}: {error}", file=sys.stderr)
        return 2
    problems = validate_run_report(data)
    if problems:
        for problem in problems:
            print(f"schema problem: {problem}", file=sys.stderr)
        return 1
    print(summary_table(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
