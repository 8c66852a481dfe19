"""The flagship CLI: per-call trace rate and the flight recorder on failure."""

import json

import pytest

from repro.experiments import flagship

TINY = ["--leaves", "8", "--records", "16", "--db-backend", "memory"]


def _run(tmp_path, *extra):
    path = tmp_path / "report.json"
    assert flagship.main([*TINY, "--metrics-out", str(path), *extra]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def test_trace_rate_does_not_leak_into_the_next_main(tmp_path):
    traced = _run(tmp_path, "--trace-sample-rate", "0.5")
    assert traced["traces"]["sample_rate"] == 0.5
    assert traced["traces"]["events"]
    untraced = _run(tmp_path)  # same process, flag absent
    assert "traces" not in untraced
    assert not [
        entry["name"]
        for entry in untraced["metrics"]["counters"]
        if entry["name"].startswith("sim.trace.")
    ]


def test_failing_run_keeps_the_flight_recorder_tail(tmp_path, monkeypatch):
    handed = []

    def failing_run(*args, flight, **kwargs):
        handed.append(flight)
        flight.note_event({"kind": "insert", "trace_id": "ab", "t": 1.0})
        raise RuntimeError("run failed")

    monkeypatch.setattr(flagship, "run_flagship", failing_run)
    path = tmp_path / "flight.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        flagship.main([*TINY, "--flight-recorder", str(path)])
    (flight,) = handed
    assert flight._fh.closed
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-2]["type"] == "heartbeat" and lines[-2]["label"] == "close"
    assert lines[-1]["type"] == "event" and lines[-1]["trace_id"] == "ab"


def test_flight_recorder_receives_the_engines_events(tmp_path):
    path = tmp_path / "flight.jsonl"
    assert flagship.main(
        [*TINY, "--trace-sample-rate", "1.0", "--flight-recorder", str(path)]
    ) == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    labels = [line["label"] for line in lines if line["type"] == "heartbeat"]
    assert labels[0] == "growth" and "insert" in labels and labels[-1] == "done"
    assert any(line.get("kind") == "store" for line in lines)
