"""The flagship CLI: per-call trace rate and the flight recorder on failure."""

import json

import pytest

from repro.experiments import flagship
from repro.obs import tracing
from repro.salad.salad import (
    resolve_trace_sample_rate,
    set_detailed_metrics,
    set_trace_sample_rate,
)

TINY = ["--leaves", "8", "--records", "16", "--db-backend", "memory"]


@pytest.fixture(autouse=True)
def _reset_session_defaults():
    yield
    set_detailed_metrics(False)
    set_trace_sample_rate(0.0)
    tracing.deactivate()
    tracing.uninstall_flight_recorder()


def _run(tmp_path, *extra):
    path = tmp_path / "report.json"
    assert flagship.main([*TINY, "--metrics-out", str(path), *extra]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def test_trace_rate_does_not_leak_into_the_next_main(tmp_path):
    traced = _run(tmp_path, "--trace-sample-rate", "0.5")
    assert traced["traces"]["sample_rate"] == 0.5
    assert traced["traces"]["events"]
    untraced = _run(tmp_path)  # same process, flag absent
    assert resolve_trace_sample_rate(None) == 0.0
    assert "traces" not in untraced


def test_failing_run_keeps_the_flight_recorder_tail(tmp_path, monkeypatch):
    def failing_run(*args, **kwargs):
        tracing.FLIGHT.note_event({"kind": "insert", "trace_id": "ab", "t": 1.0})
        raise RuntimeError("run failed")

    monkeypatch.setattr(flagship, "run_flagship", failing_run)
    path = tmp_path / "flight.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        flagship.main([*TINY, "--flight-recorder", str(path)])
    assert tracing.FLIGHT is None
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-2]["type"] == "heartbeat" and lines[-2]["label"] == "close"
    assert lines[-1]["type"] == "event" and lines[-1]["trace_id"] == "ab"
