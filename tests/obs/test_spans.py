"""Span/phase timers: nesting, rates, and the drain contract."""

from repro.obs.spans import (
    phase,
    span,
    take_phases,
)


def setup_function(_fn):
    take_phases()  # drain anything a previous test left behind


def _assert_nothing_open():
    """A span opened now is a root: no earlier span was left open."""
    with span("probe"):
        pass
    assert [r.name for r in take_phases()] == ["probe"]


class TestNesting:
    def test_children_nest_under_open_parent(self):
        with phase("outer"):
            with span("inner_a"):
                pass
            with span("inner_b"):
                with span("leaf"):
                    pass
        roots = take_phases()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner_a", "inner_b"]
        assert [c.name for c in roots[0].children[1].children] == ["leaf"]

    def test_sequential_roots_all_collected(self):
        with span("one"):
            pass
        with span("two"):
            pass
        assert [r.name for r in take_phases()] == ["one", "two"]

    def test_take_phases_drains(self):
        with span("once"):
            pass
        assert take_phases()
        assert take_phases() == []

    def test_exception_still_closes_and_times(self):
        try:
            with span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        roots = take_phases()
        assert [r.name for r in roots] == ["boom"]
        assert roots[0].seconds >= 0.0
        _assert_nothing_open()


class TestOutOfOrderCloses:
    """Held context managers may close out of order (a driver keeping a
    long-lived span object while inner work opens and closes); the tree and
    its ordering must survive that."""

    def test_enclosing_close_does_not_promote_child_to_root(self):
        outer = span("outer")
        outer.__enter__()
        inner = span("inner")
        inner.__enter__()
        # The *enclosing* span's context exits first; the held inner one
        # closes late.  inner must stay a child, never become a root.
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        roots = take_phases()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        _assert_nothing_open()

    def test_stack_is_sane_after_out_of_order_close(self):
        outer = span("outer")
        outer.__enter__()
        inner = span("inner")
        inner.__enter__()
        outer.__exit__(None, None, None)
        # New work after the early close must open as a fresh root, not
        # nest under the shed-but-unclosed inner span.
        with span("next_root"):
            pass
        inner.__exit__(None, None, None)
        assert [r.name for r in take_phases()] == ["outer", "next_root"]

    def test_roots_drain_in_start_order_not_close_order(self):
        with span("first") as a:
            pass
        with span("second") as b:
            pass
        # Simulate completion stamps arriving out of start order (merged
        # worker trees; held spans recording their close late).
        a.start, b.start = 2.0, 1.0
        assert [r.name for r in take_phases()] == ["second", "first"]

    def test_children_drain_in_start_order_recursively(self):
        with span("root"):
            with span("child_a") as ca:
                with span("grand_a") as ga:
                    pass
                with span("grand_b") as gb:
                    pass
            with span("child_b") as cb:
                pass
        ca.start, cb.start = 5.0, 1.0
        ga.start, gb.start = 4.0, 3.0
        (root,) = take_phases()
        assert [c.name for c in root.children] == ["child_b", "child_a"]
        assert [g.name for g in root.children[1].children] == [
            "grand_b",
            "grand_a",
        ]


class TestOpsAndNotes:
    def test_ops_rate(self):
        with span("work", ops=100) as node:
            pass
        node.seconds = 2.0  # deterministic rate
        assert node.ops_per_second == 50.0
        d = node.to_dict()
        assert d["ops"] == 100
        assert d["ops_per_second"] == 50.0
        take_phases()

    def test_set_ops_after_the_fact(self):
        with span("work") as node:
            node.set_ops(7)
        d = take_phases()[0].to_dict()
        assert d["ops"] == 7

    def test_no_ops_means_no_rate(self):
        with span("idle") as node:
            pass
        assert node.ops_per_second is None
        assert "ops" not in node.to_dict()
        take_phases()
