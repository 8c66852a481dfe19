"""Property test: ``insert(record, limit)`` is ``insert(record)`` cut to *limit*.

A leaf with a ``notify_limit`` asks its store for at most that many matches
(the lowest locations), and every backend builds only those.  Two stores of
the same mode (``tests/store_modes.py``) -- one asked with a limit, one
without -- go through the same operations; each limited insert must return
exactly the unlimited one's ``(stored, matches[:limit])``, and the two must
end in the same state.
Small content and location domains make duplicate records, capacity
evictions and limits at or above the number of stored copies common.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.records import SaladRecord
from tests.store_modes import MODES, open_store

LIMITS = (1, 2, 4, None)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(min_value=1, max_value=2),  # size
            st.integers(min_value=0, max_value=1),  # content
            st.integers(min_value=1, max_value=9),  # location
            st.sampled_from(LIMITS),
        ),
        st.tuples(st.just("remove"), st.integers(min_value=1, max_value=9)),
    ),
    max_size=80,
)


def state(store):
    return list(store.records()), len(store), store.evictions, store.rejections


@pytest.mark.parametrize("capacity", [None, 6])
@pytest.mark.parametrize("backend", MODES)
@settings(max_examples=50, deadline=None)
@given(ops=operations)
def test_limited_insert_is_a_prefix_of_the_full_one(backend, capacity, ops):
    with tempfile.TemporaryDirectory() as directory:
        limited, full = (
            open_store(backend, directory, capacity=capacity, name=name)
            for name in ("limited", "full")
        )
        try:
            for op in ops:
                if op[0] == "remove":
                    assert limited.remove_location(op[1]) == full.remove_location(op[1])
                    continue
                _, size, content, location, limit = op
                record = SaladRecord(synthetic_fingerprint(size, content), location)
                stored, matches = full.insert(record)
                assert limited.insert(record, limit) == (stored, matches[:limit])
            assert state(limited) == state(full)
        finally:
            limited.close()
            full.close()
