"""The experiment CLI's telemetry surface: --metrics-out and the trace flags.

Every experiment CLI must emit a schema-valid RunReport whose registry
carries the harvested engine counters; with ``--trace-invariants`` the
opt-in tracer's violation counters appear (at zero on healthy runs), and
``--trace-sample-rate`` holds for the one ``main()`` call that names it.
"""

import json

import pytest

from repro.experiments import runner
from repro.obs import tracing
from repro.obs.__main__ import main as obs_main
from repro.obs.report import validate_run_report
from repro.salad.salad import (
    resolve_trace_sample_rate,
    set_detailed_metrics,
    set_trace_invariants,
    set_trace_sample_rate,
)


@pytest.fixture(autouse=True)
def _reset_session_defaults():
    yield
    set_trace_invariants(False)
    set_detailed_metrics(False)
    set_trace_sample_rate(0.0)
    tracing.deactivate()


def _run(tmp_path, *extra, only="fig07"):
    path = tmp_path / "report.json"
    code = runner.main(
        ["--scale", "small", "--only", only, "--metrics-out", str(path), *extra]
    )
    assert code == 0
    return json.loads(path.read_text(encoding="utf-8"))


def _counters(report):
    return {
        e["name"]: e["value"]
        for e in report["metrics"]["counters"]
        if not e["labels"]
    }


class TestMetricsOut:
    def test_report_is_schema_valid_with_engine_counters(self, tmp_path):
        report = _run(tmp_path)
        assert validate_run_report(report) == []
        counters = _counters(report)
        assert counters["salad.records.arrivals"] > 0
        assert counters["salad.network.messages_sent"] > 0
        assert counters["salad.leaves.total"] > 0
        # per-experiment phases were recorded
        names = [p["name"] for p in report["phases"]]
        assert "threshold_sweep" in names
        assert "fig07" in names
        # environment extras from the CLI
        assert report["environment"]["scale"] == "small"
        assert "git_sha" in report["environment"]
        # healthy routing: no tracer => no invariant counters
        assert "sim.invariants.messages_traced" not in counters

    def test_growth_runs_report_too(self, tmp_path):
        path = tmp_path / "g.json"
        code = runner.main(
            ["--scale", "small", "--only", "fig14", "--metrics-out", str(path)]
        )
        assert code == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert validate_run_report(report) == []
        assert _counters(report)["salad.leaves.total"] > 0

    def test_tradeoff_arms_nest_under_their_own_span(self, tmp_path):
        """Both arms of one R run ``load_hosts``, whose ``place_replicas``
        span used to land twice under ``fig-tradeoff`` -- a report the
        repo's own validator (and ``python -m repro.obs``) rejected."""
        report = _run(tmp_path, "--replication-factor", "3", only="fig-tradeoff")
        assert validate_run_report(report) == []
        (tradeoff,) = [p for p in report["phases"] if p["name"] == "fig-tradeoff"]
        arms = {child["name"]: child for child in tradeoff["children"]}
        assert set(arms) == {"r3-plain", "r3-dedup"}
        for arm in arms.values():
            assert [c["name"] for c in arm["children"]] == ["place_replicas"]
        assert obs_main([str(tmp_path / "report.json")]) == 0

    def test_no_metrics_out_writes_nothing(self, tmp_path):
        code = runner.main(["--scale", "small", "--only", "dataset"])
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestTraceInvariants:
    def test_tracer_feeds_violation_counters(self, tmp_path):
        report = _run(tmp_path, "--trace-invariants")
        assert validate_run_report(report) == []
        counters = _counters(report)
        assert counters["sim.invariants.messages_traced"] > 0
        labeled = {
            (e["name"], e["labels"].get("check")): e["value"]
            for e in report["metrics"]["counters"]
            if e["name"] == "sim.invariants.violations"
        }
        # all four checks ran and found a healthy trace
        assert set(check for _, check in labeled) == {
            "hop_bound",
            "progress",
            "join_suppression",
            "traffic_conservation",
        }
        assert all(v == 0 for v in labeled.values())
        assert report["environment"]["trace_invariants"] is True


class TestTraceSampleRate:
    def test_rate_does_not_leak_into_the_next_main(self, tmp_path):
        traced = _run(tmp_path, "--trace-sample-rate", "0.5")
        assert traced["traces"]["sample_rate"] == 0.5
        assert traced["traces"]["events"]
        untraced = _run(tmp_path)  # same process, flag absent
        assert resolve_trace_sample_rate(None) == 0.0
        assert "traces" not in untraced
