"""The metrics registry: instruments, labels, merges, and the session switch.

The load-bearing property is merge exactness: the experiment runner folds
one registry dump per sweep point and the result must equal observing
everything in one registry, in any merge order.  Hypothesis drives that
over random observation partitions here.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    bucket_of,
    disable,
    enable,
    enabled,
    get_registry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(4)
        assert registry.counter_value("x") == 5

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never") == 0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("ops", kind="a").inc(1)
        registry.counter("ops", kind="b").inc(2)
        assert registry.counter_value("ops", kind="a") == 1
        assert registry.counter_value("ops", kind="b") == 2
        assert registry.counter_value("ops") == 0
        assert registry.counter_totals() == {"ops{kind=a}": 1, "ops{kind=b}": 2}

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("ops", a="1", b="2").inc()
        assert registry.counter_value("ops", b="2", a="1") == 1

    def test_gauge_last_value_and_unset(self):
        registry = MetricsRegistry()
        assert registry.gauge_value("g") is None
        registry.gauge("g").set(3.0)
        registry.gauge("g").set(1.5)
        assert registry.gauge_value("g") == 1.5

    def test_histogram_stats(self):
        h = Histogram()
        h.observe_many([1, 2, 3, 100])
        assert h.count == 4
        assert h.total == 106
        assert h.min == 1
        assert h.max == 100
        assert h.mean == pytest.approx(26.5)

    def test_bucket_of_is_log_spaced(self):
        assert bucket_of(0) == 0
        assert bucket_of(-1) == 0
        # bucket e covers [2**(e-1), 2**e)
        assert bucket_of(1) == 1
        assert bucket_of(1.5) == 1
        assert bucket_of(2) == 2
        assert bucket_of(3.99) == 2
        assert bucket_of(4) == 3


class TestMerge:
    def test_counters_sum_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        a.merge(b)
        assert a.counter_value("c") == 7
        assert a.gauge_value("g") == 2.0

    def test_unset_gauge_does_not_clobber(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(5.0)
        b.gauge("g")  # created but never set
        a.merge(b)
        assert a.gauge_value("g") == 5.0

    def test_round_trip_dict(self):
        a = MetricsRegistry()
        a.counter("c", leaf="0").inc(9)
        a.gauge("g").set(2.5)
        a.histogram("h").observe_many([1, 2, 1024])
        assert MetricsRegistry.from_dict(a.to_dict()).to_dict() == a.to_dict()

    @given(
        observations=st.lists(st.integers(min_value=0, max_value=10**6), max_size=60),
        cuts=st.tuples(st.integers(0, 60), st.integers(0, 60)),
        order=st.permutations([0, 1, 2]),
    )
    def test_any_partition_merges_to_the_whole(self, observations, cuts, order):
        """Split one observation stream across three registries; merging them
        in any order, flat or nested, equals observing everything in one."""

        def observed(values):
            registry = MetricsRegistry()
            for value in values:
                registry.counter("n").inc(value)
                registry.histogram("h").observe(value)
            return registry

        low, high = sorted(min(cut, len(observations)) for cut in cuts)
        whole = observed(observations).to_dict()
        parts = [
            observed(observations[:low]),
            observed(observations[low:high]),
            observed(observations[high:]),
        ]
        a, b, c = (parts[index] for index in order)
        flat = MetricsRegistry().merge(a).merge(b).merge(c)
        inner = MetricsRegistry().merge(b).merge(c)
        nested = MetricsRegistry().merge(a).merge_dict(inner.to_dict())
        assert flat.to_dict() == whole
        assert nested.to_dict() == whole

    def test_merge_dict_equals_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(2)
        b.histogram("h").observe(7)
        via_dict = MetricsRegistry().merge(a).merge_dict(b.to_dict())
        direct = MetricsRegistry().merge(a).merge(b)
        assert via_dict.to_dict() == direct.to_dict()


class TestSerializationStability:
    def test_dump_is_sorted_and_omits_empty(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.gauge("unset")  # never set -> omitted
        registry.histogram("empty")  # never observed -> omitted
        dump = registry.to_dict()
        assert [e["name"] for e in dump["counters"]] == ["a", "z"]
        assert dump["gauges"] == []
        assert dump["histograms"] == []


class TestSessionSwitch:
    def teardown_method(self):
        disable()

    def test_disabled_by_default_and_null_is_free(self):
        disable()
        assert not enabled()
        null = get_registry()
        null.counter("x").inc(100)
        null.gauge("g").set(1.0)
        null.histogram("h").observe(5)
        assert null.counter_value("x") == 0
        assert len(null) == 0

    def test_enable_returns_live_registry(self):
        registry = enable()
        assert enabled()
        get_registry().counter("x").inc(2)
        assert registry.counter_value("x") == 2
        disable()
        assert get_registry().counter_value("x") == 0

    def test_enable_accepts_existing_registry(self):
        mine = MetricsRegistry()
        assert enable(mine) is mine
        assert get_registry() is mine
