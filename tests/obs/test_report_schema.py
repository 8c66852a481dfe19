"""RunReport: schema stability, validation, and the summary/CLI surface.

``validate_run_report`` is the contract consumers rely on
(``check_regression.py --metrics``, CI's report step); these tests pin both
directions -- a freshly built report validates clean, and each kind of
corruption is caught.
"""

import gc
import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    ACCEPTED_SCHEMAS,
    SCHEMA,
    CollectorWatch,
    build_run_report,
    environment,
    main as report_main,
    summary_table,
    validate_run_report,
    write_run_report,
)
from repro.obs.spans import span, take_phases


def _registry():
    registry = MetricsRegistry()
    registry.counter("salad.records.arrivals").inc(10)
    registry.counter("salad.routing.next_hop_hits", leaf="0").inc(9)
    registry.gauge("salad.config.dimensions").set(2)
    registry.histogram("salad.routing.batch_size").observe_many([1, 2, 4])
    return registry


def _report(**kwargs):
    take_phases()
    with span("phase_a", ops=10):
        with span("inner"):
            pass
    return build_run_report(_registry(), **kwargs)


class TestBuildAndValidate:
    def test_fresh_report_is_schema_valid(self):
        report = _report()
        assert report["schema"] == SCHEMA
        assert validate_run_report(report) == []

    def test_report_is_json_round_trippable(self):
        report = _report()
        assert validate_run_report(json.loads(json.dumps(report))) == []

    def test_phases_default_to_drained_spans(self):
        report = _report()
        assert [p["name"] for p in report["phases"]] == ["phase_a"]
        assert [c["name"] for c in report["phases"][0]["children"]] == ["inner"]
        # and they were drained: a second report has no phases
        assert build_run_report(_registry())["phases"] == []

    def test_env_extras_land_in_environment(self):
        report = _report(env={"scale": "small", "workers": 4})
        assert report["environment"]["scale"] == "small"
        assert report["environment"]["workers"] == 4
        for key in ("python", "platform", "machine", "cpu_count"):
            assert key in report["environment"]

    def test_environment_probe_has_required_keys(self):
        env = environment()
        for key in ("python", "platform", "machine", "cpu_count", "git_sha"):
            assert key in env

    def test_v1_reports_remain_valid(self):
        # v2 only added the optional traces section: committed v1 artifacts
        # (docs/flagship_report.json, archived CI reports) must still pass.
        report = _report()
        report["schema"] = "repro.run-report/1"
        assert report["schema"] in ACCEPTED_SCHEMAS
        assert validate_run_report(report) == []

    def test_traces_section_builds_and_validates(self):
        events = [
            {"kind": "insert", "trace_id": "ab", "t": 1.0},
            {"kind": "route.hop", "trace_id": "ab", "t": 2.0},
            {"kind": "store", "trace_id": "ab", "t": 2.5},
        ]
        report = _report(traces={"sample_rate": 0.01, "events": events})
        assert validate_run_report(report) == []
        assert validate_run_report(json.loads(json.dumps(report))) == []
        table = summary_table(report)
        assert "traces: 3 events across 1 sampled records" in table
        assert "sample_rate=0.01" in table

    def test_traces_section_is_optional(self):
        report = _report(traces=None)
        assert "traces" not in report
        assert validate_run_report(report) == []


class TestCollectorEntry:
    """``environment.gc``: the cyclic collector made visible in a report."""

    @staticmethod
    def _watched():
        with CollectorWatch() as collector:
            cycle = []
            cycle.append(cycle)
            del cycle
            gc.collect()
        return collector

    def test_watch_counts_collections_freed_objects_and_time(self):
        collector = self._watched()
        assert len(collector.collections) == len(gc.get_stats())
        assert collector.collections[-1] >= 1  # the full collection above
        assert sum(collector.collected) >= 1  # ... which freed the cycle
        assert collector.seconds > 0.0

    def test_callback_is_installed_only_inside_the_session(self):
        before = list(gc.callbacks)
        with CollectorWatch() as collector:
            assert collector._on_collection in gc.callbacks
        assert gc.callbacks == before
        with pytest.raises(RuntimeError):
            with CollectorWatch():
                raise RuntimeError("run failed")
        assert gc.callbacks == before

    def test_entry_builds_validates_and_prints_one_line(self):
        report = _report(collector=self._watched())
        entry = report["environment"]["gc"]
        assert set(entry) == {"collections", "collected", "seconds"}
        assert validate_run_report(report) == []
        assert validate_run_report(json.loads(json.dumps(report))) == []
        lines = [line for line in summary_table(report).splitlines() if line.startswith("gc:")]
        assert len(lines) == 1
        assert "(gen 0/1/2)" in lines[0] and "s in the collector" in lines[0]

    def test_entry_is_optional(self):
        report = _report()
        assert "gc" not in report["environment"]
        assert validate_run_report(report) == []
        assert "gc:" not in summary_table(report)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda e: e.update(gc=[1, 2, 3]), "environment.gc"),
            (lambda e: e["gc"].pop("collections"), "gc.collections"),
            (lambda e: e["gc"].update(collected=[0, "x", 0]), "gc.collected"),
            (lambda e: e["gc"].pop("seconds"), "gc.seconds"),
            (lambda e: e["gc"].update(seconds=True), "gc.seconds"),
        ],
    )
    def test_corrupt_entry_is_caught(self, mutate, fragment):
        report = _report(collector=self._watched())
        mutate(report["environment"])
        problems = validate_run_report(report)
        assert any(fragment in p for p in problems), problems


class TestCorruptionDetection:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda r: r.pop("schema"), "schema"),
            (lambda r: r.update(schema="bogus/9"), "schema"),
            (lambda r: r.pop("created_unix"), "created_unix"),
            (lambda r: r.pop("environment"), "environment"),
            (lambda r: r["environment"].pop("cpu_count"), "cpu_count"),
            (lambda r: r.pop("metrics"), "metrics"),
            (lambda r: r["metrics"].pop("counters"), "counters"),
            (lambda r: r["metrics"]["counters"][0].pop("value"), "value"),
            (lambda r: r["metrics"]["counters"][0].pop("name"), "name"),
            (lambda r: r["metrics"]["histograms"][0].pop("buckets"), "buckets"),
            (lambda r: r.pop("phases"), "phases"),
            (lambda r: r["phases"][0].pop("seconds"), "seconds"),
        ],
    )
    def test_each_corruption_is_caught(self, mutate, fragment):
        report = _report()
        mutate(report)
        problems = validate_run_report(report)
        assert problems, f"corruption not caught: {fragment}"
        assert any(fragment in p for p in problems)

    def test_non_dict_is_rejected(self):
        assert validate_run_report([1, 2]) == ["report is not an object"]

    def test_duplicate_top_level_siblings_rejected(self):
        report = _report()
        report["phases"].append(dict(report["phases"][0]))
        problems = validate_run_report(report)
        assert any(
            "2 sibling phases named 'phase_a'" in p and "phases" in p
            for p in problems
        )

    def test_duplicate_child_siblings_rejected(self):
        report = _report()
        report["phases"][0]["children"].append(
            {"name": "inner", "seconds": 0.1}
        )
        problems = validate_run_report(report)
        assert any(
            "phases[0].children has 2 sibling phases named 'inner'" in p
            for p in problems
        )

    def test_distinct_sibling_names_pass(self):
        report = _report()
        report["phases"].append({"name": "phase_b", "seconds": 0.1})
        assert validate_run_report(report) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.pop("sample_rate"), "sample_rate"),
            (lambda t: t.update(sample_rate=True), "sample_rate"),
            (lambda t: t.pop("events"), "events"),
            (lambda t: t["events"][0].pop("kind"), "kind"),
            (lambda t: t["events"][0].pop("t"), ".t missing"),
            (lambda t: t["events"].append("not-a-dict"), "not an object"),
        ],
    )
    def test_corrupt_traces_are_caught(self, mutate, fragment):
        report = _report(
            traces={
                "sample_rate": 0.5,
                "events": [{"kind": "insert", "trace_id": "ab", "t": 1.0}],
            }
        )
        mutate(report["traces"])
        problems = validate_run_report(report)
        assert problems, f"traces corruption not caught: {fragment}"
        assert any(fragment in p for p in problems)


class TestSummaryAndCli:
    def test_summary_table_mentions_the_content(self):
        table = summary_table(_report(env={"scale": "small"}))
        assert "phase_a" in table
        assert "salad.records.arrivals" in table
        assert "salad.routing.next_hop_hits{leaf=0}" in table
        assert "salad.routing.batch_size" in table
        assert "scale=small" in table

    def test_cli_validates_and_summarizes(self, tmp_path, capsys):
        path = write_run_report(tmp_path / "r.json", _report())
        assert report_main([str(path)]) == 0
        assert "phase_a" in capsys.readouterr().out

    def test_cli_rejects_corrupt_report(self, tmp_path, capsys):
        report = _report()
        del report["metrics"]
        path = write_run_report(tmp_path / "bad.json", report)
        assert report_main([str(path)]) == 1
        assert "schema problem" in capsys.readouterr().err

    def test_cli_usage(self, capsys):
        for argv in ([], ["-h"], ["--help"], ["a.json", "b.json"]):
            assert report_main(argv) == 2
            assert capsys.readouterr().err.startswith("usage:")

    def test_cli_bad_path_is_one_line_not_a_traceback(self, tmp_path, capsys):
        not_json = tmp_path / "notes.txt"
        not_json.write_text("not a report", encoding="utf-8")
        for path in (tmp_path / "missing.json", not_json, tmp_path):
            assert report_main([str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1 and str(path) in err

    def test_write_creates_parent_dirs(self, tmp_path):
        path = write_run_report(tmp_path / "deep" / "nested" / "r.json", _report())
        assert validate_run_report(json.loads(path.read_text())) == []
