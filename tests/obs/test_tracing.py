"""Causal tracing + flight recorder (repro.obs.tracing).

The sampler must be a *pure deterministic predicate* (no RNG consumed, same
verdict in every process), trace ids must be re-derivable from data the
record already carries, timelines must merge causally across workers, the
Chrome export must be structurally loadable by Perfetto, and the flight
recorder must leave a readable JSONL behind even mid-run.
"""

import json

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.obs import tracing
from repro.obs.tracing import (
    FlightRecorder,
    TraceRecorder,
    build_timelines,
    export_chrome_trace,
    render_flight_tail,
    sample_threshold,
    trace_id_for,
)
from repro.salad.records import SaladRecord


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    tracing.deactivate()
    tracing.uninstall_flight_recorder()
    yield
    tracing.deactivate()
    tracing.uninstall_flight_recorder()


def _record(n: int, location: int = 0xABC) -> SaladRecord:
    return SaladRecord(synthetic_fingerprint(1000 + n, n), location)


class TestSampler:
    def test_threshold_endpoints(self):
        assert sample_threshold(0.0) == 0
        assert sample_threshold(-1.0) == 0
        assert sample_threshold(1.0) == 1 << 32
        assert sample_threshold(2.0) == 1 << 32
        assert 0 < sample_threshold(0.5) < (1 << 32)

    def test_rate_zero_samples_nothing_rate_one_everything(self):
        off = TraceRecorder(0.0)
        on = TraceRecorder(1.0)
        ids = [_record(n)._rid for n in range(50)]
        assert not any(off.sampled(rid) for rid in ids)
        assert all(on.sampled(rid) for rid in ids)

    def test_sampling_is_deterministic_across_recorders(self):
        a = TraceRecorder(0.25)
        b = TraceRecorder(0.25)
        ids = [_record(n)._rid for n in range(200)]
        assert [a.sampled(rid) for rid in ids] == [b.sampled(rid) for rid in ids]

    def test_sampled_fraction_tracks_rate(self):
        recorder = TraceRecorder(0.25)
        ids = [_record(n)._rid for n in range(2000)]
        fraction = sum(recorder.sampled(rid) for rid in ids) / len(ids)
        assert 0.15 < fraction < 0.35

    def test_higher_rate_is_a_superset(self):
        # Raising the rate must only add records, never reshuffle the set:
        # the accept condition is hash < threshold with a shared hash.
        low, high = TraceRecorder(0.1), TraceRecorder(0.4)
        for n in range(500):
            rid = _record(n)._rid
            if low.sampled(rid):
                assert high.sampled(rid)


class TestTraceIds:
    def test_stable_and_location_dependent(self):
        record = _record(7)
        assert trace_id_for(record._rid, record.location) == trace_id_for(
            record._rid, record.location
        )
        assert trace_id_for(record._rid, record.location) != trace_id_for(
            record._rid, record.location + 1
        )

    def test_independent_of_sampling_verdict(self):
        # Domain-separated salts: sampled records must not share low bits.
        ids = {
            trace_id_for(_record(n)._rid, 0xABC) & 0xFFFF for n in range(64)
        }
        assert len(ids) > 32

    def test_fits_in_64_bits(self):
        wide = (1 << 160) - 1
        assert 0 <= trace_id_for(wide, wide) < (1 << 64)


class TestRecorderEvents:
    def test_insert_store_flush_chain(self):
        clock = [0.0]
        recorder = TraceRecorder(1.0, now=lambda: clock[0])
        record = _record(3, location=0x5)
        recorder.record_insert(record, 0x5)
        clock[0] = 2.0
        recorder.record_store(record, 0x9, hops=4)
        clock[0] = 3.0
        recorder.record_flush(0x9)
        kinds = [e["kind"] for e in recorder.events]
        assert kinds == ["insert", "store", "store.flush"]
        tid = f"{trace_id_for(record._rid, record.location):016x}"
        assert all(e["trace_id"] == tid for e in recorder.events)
        assert [e["t"] for e in recorder.events] == [0.0, 2.0, 3.0]
        assert recorder.events[1]["hops"] == 4

    def test_flush_without_pending_stores_emits_nothing(self):
        recorder = TraceRecorder(1.0)
        recorder.record_flush(0x9)
        assert recorder.events == []
        # and a second flush after draining the pending set is silent too
        recorder.record_store(_record(1), 0x9, hops=0)
        recorder.record_flush(0x9)
        recorder.record_flush(0x9)
        assert [e["kind"] for e in recorder.events] == ["store", "store.flush"]

    def test_hop_includes_link_annotation_when_available(self):
        recorder = TraceRecorder(
            1.0, link_of=lambda a, b: (f"{a:x}->{b:x}", "wan")
        )
        recorder.record_hop(_record(2), hops=1, sender=0xA, machine=0xB)
        (event,) = recorder.events
        assert event["kind"] == "route.hop"
        assert event["link"] == "a->b"
        assert event["link_class"] == "wan"

    def test_take_events_drains(self):
        recorder = TraceRecorder(1.0)
        recorder.record_insert(_record(1), 0x1)
        assert len(recorder.take_events()) == 1
        assert recorder.take_events() == []


class TestModuleLifecycle:
    def test_activate_rate_zero_clears(self):
        assert tracing.activate(1.0) is not None
        assert tracing.ACTIVE is not None
        assert tracing.activate(0.0) is None
        assert tracing.ACTIVE is None

    def test_activate_orphans_previous_events(self):
        # Engine turnover (a sweep building several engines) must not lose
        # the previous engine's sampled timelines.
        tracing.activate(1.0)
        tracing.ACTIVE.record_insert(_record(1), 0x1)
        tracing.activate(1.0)
        tracing.ACTIVE.record_insert(_record(2), 0x2)
        events = tracing.take_events()
        assert len(events) == 2
        assert tracing.take_events() == []

    def test_deactivate_discards_everything(self):
        tracing.activate(1.0)
        tracing.ACTIVE.record_insert(_record(1), 0x1)
        tracing.activate(1.0)  # moves the event to the orphan buffer
        tracing.deactivate()
        assert tracing.take_events() == []


class TestTimelines:
    def test_groups_by_trace_id_and_sorts_causally(self):
        # Same virtual time: kind order breaks the tie, so the timeline
        # reads insert -> route.hop -> store -> store.flush whatever order
        # the events were emitted in.
        events = [
            {"kind": "store.flush", "trace_id": "aa", "t": 4.0, "seq": 0},
            {"kind": "insert", "trace_id": "aa", "t": 1.0, "seq": 9},
            {"kind": "store", "trace_id": "aa", "t": 4.0, "seq": 1},
            {"kind": "route.hop", "trace_id": "aa", "t": 4.0, "seq": 2},
            {"kind": "route.hop", "trace_id": "bb", "t": 2.0, "seq": 3},
        ]
        timelines = build_timelines(events)
        assert set(timelines) == {"aa", "bb"}
        assert [e["kind"] for e in timelines["aa"]] == [
            "insert",
            "route.hop",
            "store",
            "store.flush",
        ]


class TestChromeExport:
    def _events(self):
        return [
            {"kind": "insert", "trace_id": "ab", "t": 1.0, "seq": 0,
             "machine": "5", "size": 1024},
            {"kind": "store", "trace_id": "ab", "t": 2.0, "seq": 1,
             "machine": "9", "hops": 3},
        ]

    def test_structure_is_perfetto_loadable(self, tmp_path):
        path = export_chrome_trace(self._events(), tmp_path / "t.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "i"}
        for event in events:
            assert event["pid"] == 0
            assert isinstance(event["tid"], int)
            if event["ph"] != "M":
                assert isinstance(event["ts"], float)
        # one named thread lane per machine
        lanes = [e for e in events if e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in lanes} == {"leaf 5", "leaf 9"}
        assert len({e["tid"] for e in lanes}) == 2

    def test_instants_carry_args(self, tmp_path):
        doc = json.loads(
            export_chrome_trace(self._events(), tmp_path / "t.json").read_text()
        )
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"insert", "store"}
        assert all(e["args"]["trace_id"] == "ab" for e in instants)
        assert {e["args"].get("hops") for e in instants} == {None, 3}

    def test_creates_parent_dirs(self, tmp_path):
        path = export_chrome_trace([], tmp_path / "deep" / "t.json")
        assert json.loads(path.read_text()) == {"traceEvents": []}


class TestFlightRecorder:
    def test_heartbeats_and_ring_drain_to_jsonl(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path, ring_size=3)
        for n in range(5):  # ring keeps only the newest 3
            recorder.note_event({"kind": "insert", "trace_id": f"{n:02x}", "t": float(n)})
        recorder.heartbeat("insert", wave=1, inserted_total=100)
        recorder.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "heartbeat"
        assert lines[0]["label"] == "insert"
        assert lines[0]["inserted_total"] == 100
        events = [line for line in lines if line["type"] == "event"]
        assert [e["trace_id"] for e in events] == ["02", "03", "04"]

    def test_module_heartbeat_is_noop_without_recorder(self):
        tracing.heartbeat("anything", x=1)  # must not raise

    def test_install_routes_recorder_events_into_ring(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        tracing.install_flight_recorder(path, ring_size=8)
        tracing.activate(1.0)
        tracing.ACTIVE.record_insert(_record(1), 0x1)
        tracing.heartbeat("stage")
        tracing.uninstall_flight_recorder()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(line.get("kind") == "insert" for line in lines)

    def test_render_tail_is_human_readable(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path)
        recorder.note_event(
            {"kind": "store", "trace_id": "abcd", "t": 1.5, "hops": 2}
        )
        recorder.heartbeat("insert", wave=3)
        recorder.close()
        rendered = "\n".join(render_flight_tail(path))
        assert "insert" in rendered
        assert "wave=3" in rendered
        assert "store" in rendered
        assert "abcd" in rendered

    def test_render_tail_missing_file(self, tmp_path):
        (line,) = render_flight_tail(tmp_path / "nope.jsonl")
        assert "cannot read" in line

    def test_cli_tail(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path)
        recorder.heartbeat("growth", leaves=128)
        recorder.close()
        assert obs_main(["tail", str(path)]) == 0
        assert "leaves=128" in capsys.readouterr().out
