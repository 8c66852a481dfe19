"""Property tests: the paged store's ``_OffsetIndex`` against a dict model.

The index is the only thing that says where a record lives, so it must be an
exact multimap under any interleaving of adds, removes and rebuilds:

- ``lookup(key)`` returns every offset filed under *key*, no other;
- ``lookup(key, tag)`` returns exactly those whose slot carries *tag*
  -- so "nothing returned" proves "no such record";
- a forced ``_rebuild`` (tombstones dropped, entries re-placed) changes
  nothing observable.

Keys are generated the way one leaf sees them -- all sharing their low 16
bits (the cell-ID at W = 16), a few distinct high parts so keys repeat --
and tags from a handful of values so they collide, including 0 and 1 (the
EMPTY and TOMBSTONE sentinels' bit patterns) and the widest tag.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.salad.storage import _TAG_MASK, _OffsetIndex

CELL_ID = 0xBEEF

keys = st.integers(min_value=0, max_value=11).map(lambda high: high << 16 | CELL_ID)
tags = st.sampled_from([0, 1, 2, _TAG_MASK])

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys, tags),
        st.tuples(st.just("remove"), st.integers(min_value=0), st.none()),
        st.tuples(st.just("lookup"), keys, tags),
        st.tuples(st.just("rebuild"), st.none(), st.none()),
    ),
    max_size=120,
)


def check(index: _OffsetIndex, model: dict) -> None:
    assert len(index) == sum(len(entries) for entries in model.values())
    assert sorted(index.items()) == sorted(
        (key, offset, tag) for key, entries in model.items() for tag, offset in entries
    )


@given(operations)
@settings(max_examples=200, deadline=None)
def test_index_is_an_exact_tagged_multimap(ops):
    index = _OffsetIndex()
    model: dict = {}  # key -> [(tag, offset)]
    next_offset = 10  # real offsets start past the WAL magic
    for op, arg, tag in ops:
        if op == "add":
            index.add(arg, next_offset, tag)
            model.setdefault(arg, []).append((tag, next_offset))
            next_offset += 37
        elif op == "remove":
            live = [(key, entry) for key in sorted(model) for entry in model[key]]
            if not live:
                assert not index.remove(CELL_ID, next_offset)
                continue
            key, entry = live[arg % len(live)]
            assert index.remove(key, entry[1])
            assert not index.remove(key, entry[1])  # gone, and stays gone
            model[key].remove(entry)
        elif op == "lookup":
            entries = model.get(arg, [])
            assert sorted(index.lookup(arg)) == sorted(off for _, off in entries)
            assert sorted(index.lookup(arg, tag)) == sorted(
                off for t, off in entries if t == tag
            )
        else:
            index._rebuild()
        check(index, model)
    for key in {k << 16 | CELL_ID for k in range(12)}:
        assert sorted(index.lookup(key)) == sorted(off for _, off in model.get(key, []))
