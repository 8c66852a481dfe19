"""Model-based property test: ``RecordDatabase`` against a dict of sets.

The database keeps each fingerprint's locations as a small tuple and evicts
through a lazy heap; the model keeps a plain ``fingerprint -> set`` map and
finds the Fig. 13 victim by a scan.  Random operation sequences -- inserts
with and without a match limit, probes, removals, capacity-bounded
eviction -- must give equal outputs, equal eviction and rejection counts
and the same ``records()`` order.
"""

from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import Fingerprint, synthetic_fingerprint
from repro.salad.database import RecordDatabase
from repro.salad.records import SaladRecord


class ModelDatabase:
    """The contract spelled out as directly as possible."""

    def __init__(self, capacity: Optional[int]):
        self.capacity = capacity
        self.by_fingerprint: Dict[Fingerprint, Set[int]] = {}
        self.evictions = 0
        self.rejections = 0

    def __len__(self) -> int:
        return sum(len(locations) for locations in self.by_fingerprint.values())

    def _lowest(self) -> Tuple[bytes, int, Fingerprint]:
        return min(
            (fingerprint.to_bytes(), location, fingerprint)
            for fingerprint, locations in self.by_fingerprint.items()
            for location in locations
        )

    def _discard(self, fingerprint: Fingerprint, location: int) -> None:
        locations = self.by_fingerprint[fingerprint]
        locations.discard(location)
        if not locations:
            del self.by_fingerprint[fingerprint]

    def insert(self, record: SaladRecord, limit: Optional[int] = None):
        existing = sorted(self.by_fingerprint.get(record.fingerprint, ()))
        matches = existing if limit is None else existing[:limit]
        matches = [(record.fingerprint, location) for location in matches]
        if record.location in existing:
            return False, matches
        if self.capacity is not None and len(self) >= self.capacity:
            lowest_key, location, fingerprint = self._lowest()
            if record.sort_key() <= lowest_key:
                self.rejections += 1
                return False, matches
            self._discard(fingerprint, location)
            self.evictions += 1
        self.by_fingerprint.setdefault(record.fingerprint, set()).add(record.location)
        return True, matches

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        return location in self.by_fingerprint.get(fingerprint, ())

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        return set(self.by_fingerprint.get(fingerprint, ()))

    def remove_location(self, location: int) -> int:
        holding = [fp for fp, locs in self.by_fingerprint.items() if location in locs]
        for fingerprint in holding:
            self._discard(fingerprint, location)
        return len(holding)

    def records(self) -> List[Tuple[Fingerprint, int]]:
        return [
            (fingerprint, location)
            for fingerprint in sorted(self.by_fingerprint, key=Fingerprint.to_bytes)
            for location in sorted(self.by_fingerprint[fingerprint])
        ]


# Few sizes and contents, so fingerprints repeat and share locations.
fingerprints = st.builds(
    synthetic_fingerprint,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
locations = st.integers(min_value=1, max_value=8)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), fingerprints, locations, st.none()),
        st.tuples(
            st.just("insert"), fingerprints, locations, st.integers(0, 4)
        ),
        st.tuples(st.just("has_location"), fingerprints, locations, st.none()),
        st.tuples(st.just("locations"), fingerprints, st.none(), st.none()),
        st.tuples(st.just("remove_location"), st.none(), locations, st.none()),
    ),
    max_size=150,
)


def _observe(db, op, fingerprint, location, limit):
    if op == "insert":
        stored, matches = db.insert(SaladRecord(fingerprint, location), limit=limit)
        if isinstance(db, RecordDatabase):
            matches = [(match.fingerprint, match.location) for match in matches]
        return stored, matches
    if op == "has_location":
        return db.has_location(fingerprint, location)
    if op == "locations":
        return db.locations(fingerprint)
    return db.remove_location(location)


def _dump(db):
    if isinstance(db, RecordDatabase):
        return [(record.fingerprint, record.location) for record in db.records()]
    return db.records()


@settings(max_examples=150, deadline=None)
@given(operations, st.one_of(st.none(), st.integers(min_value=1, max_value=10)))
def test_database_matches_the_model(ops, capacity):
    db, model = RecordDatabase(capacity=capacity), ModelDatabase(capacity)
    for op, fingerprint, location, limit in ops:
        assert _observe(db, op, fingerprint, location, limit) == _observe(
            model, op, fingerprint, location, limit
        )
        assert len(db) == len(model)
        assert (db.evictions, db.rejections) == (model.evictions, model.rejections)
    assert _dump(db) == _dump(model)
