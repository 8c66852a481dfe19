"""Property tests: the leaf's cellmate/vector index under random churn.

The index is a performance structure over the leaf table; these invariants
keep it truthful:

- every table entry is in exactly one group (cellmates xor one vector);
- every group member is in the table;
- group placement matches the alignment predicates at the current width;
- every group is a strictly ascending tuple, and none is empty (an
  emptied group is deleted);
- every member accessor returns its members in send order, ascending;
- the survivor count equals the oracle's, and a committed width increase
  drops exactly the oracle's non-survivors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.salad.ids import axis_masks, spread_coordinate
from repro.salad.leaf import SaladLeaf
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from tests.reference_engine import mismatching_dimensions, survives_next_width

operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=1, max_value=(1 << 24)),
    ),
    max_size=60,
)


def _ascending(members) -> bool:
    return type(members) is tuple and all(
        left < right for left, right in zip(members, members[1:])
    )


def check_index(leaf: SaladLeaf) -> None:
    table = set(leaf.leaf_table)
    assert _ascending(leaf._cellmates)
    indexed = list(leaf._cellmates)
    for by_key in leaf._vectors.values():
        for members in by_key.values():
            assert members, "an emptied vector group was kept"
            assert _ascending(members), "a group is not an ascending tuple"
            indexed.extend(members)
    assert sorted(indexed) == sorted(table)

    # Send order: every fan-out goes out in ascending identifier order, and
    # the per-group accessors hand out the stored tuple itself.
    assert leaf._cell_members() is leaf._cellmates
    for axis, by_key in leaf._vectors.items():
        assert leaf._axis_members(axis) == sorted(
            set(leaf._cellmates).union(*by_key.values())
        )
        own = leaf.identifier & leaf._axis_masks[axis]
        assert leaf._vector_members_key(axis, own) is leaf._cellmates
        for key, members in by_key.items():
            assert leaf._vector_members_key(axis, key) is members

    # Width-derived routing state must track the current width.
    assert leaf._cell_mask == (1 << leaf.width) - 1
    assert leaf._axis_masks == axis_masks(leaf.width, leaf.dimensions)

    # The width-increase lookahead counter must equal the brute-force count
    # of entries that stay vector-aligned at W+1 (the Fig. 6 growth check
    # reads it instead of rescanning the table), by both oracles.
    assert leaf._next_cell_mask == (1 << (leaf.width + 1)) - 1
    assert leaf._next_axis_masks == axis_masks(leaf.width + 1, leaf.dimensions)
    expected_survivors = sum(
        1
        for other in table
        if len(
            mismatching_dimensions(
                leaf.identifier, other, leaf.width + 1, leaf.dimensions
            )
        )
        <= 1
    )
    assert leaf._next_width_survivors == expected_survivors
    assert expected_survivors == sum(
        1 for other in table if survives_next_width(leaf, other)
    )

    for other in table:
        delta = mismatching_dimensions(
            leaf.identifier, other, leaf.width, leaf.dimensions
        )
        assert len(delta) <= 1
        if len(delta) == 0:
            assert other in leaf._cellmates
        else:
            axis = delta[0]
            # Buckets are keyed by masked axis bits (the bijective image of
            # the axis coordinate), not the extracted coordinate value.
            key = other & leaf._axis_masks[axis]
            assert key == spread_coordinate(
                leaf.coord(other, axis), leaf.dimensions, axis
            )
            assert other in leaf._vectors[axis][key]
            assert other not in leaf._cellmates


def commit_width_increase(leaf: SaladLeaf) -> None:
    """Force the Fig. 6 commit and check it drops the oracle's entries."""
    before = list(leaf.leaf_table)
    survivors = [other for other in before if survives_next_width(leaf, other)]
    leaf.width += 1
    leaf._rebuild_index()
    assert list(leaf.leaf_table) == survivors  # table order kept
    check_index(leaf)


class TestIndexConsistency:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_index_matches_table_under_churn(self, ops):
        network = Network(EventScheduler())
        leaf = SaladLeaf(0xABCDEF, network, target_redundancy=2.0, dimensions=2)
        for op, identifier in ops:
            if op == "add":
                leaf.add_leaf(identifier)
            else:
                leaf.remove_leaf(identifier)
            check_index(leaf)
        commit_width_increase(leaf)

    @settings(max_examples=30, deadline=None)
    @given(operations, st.integers(min_value=0, max_value=10))
    def test_index_survives_forced_width_changes(self, ops, width):
        network = Network(EventScheduler())
        leaf = SaladLeaf(0x123456, network, target_redundancy=2.0, dimensions=2)
        for op, identifier in ops:
            if op == "add":
                leaf.add_leaf(identifier, recalculate=False)
            else:
                leaf.remove_leaf(identifier, recalculate=False)
        # Force an arbitrary width: the rebuild deletes the entries no
        # longer aligned and keeps the others in table order.
        leaf.width = width
        aligned = [
            other
            for other in leaf.leaf_table
            if len(mismatching_dimensions(leaf.identifier, other, width, 2)) <= 1
        ]
        leaf._rebuild_index()
        assert list(leaf.leaf_table) == aligned
        check_index(leaf)
        commit_width_increase(leaf)

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_estimate_is_table_plus_one_over_ratio(self, ops):
        from repro.salad.width import known_leaf_ratio

        network = Network(EventScheduler())
        leaf = SaladLeaf(0x999, network, target_redundancy=2.0, dimensions=2)
        for op, identifier in ops:
            if op == "add":
                leaf.add_leaf(identifier)
            else:
                leaf.remove_leaf(identifier)
        expected = (len(leaf.leaf_table) + 1) / known_leaf_ratio(leaf.width, 2)
        assert abs(leaf.estimated_system_size - expected) < 1e-9
