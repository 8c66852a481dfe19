"""Property tests: the reference UnionFind against a naive implementation,
and the shipped union count against the reference's components."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.space import reclaimed_bytes_from_matches
from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.protocol import MatchPayload
from tests.unionfind import UnionFind, reclaimed_bytes_by_components

pairs = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=0, max_size=60
)


def naive_components(edges):
    """Reference: repeated merging of overlapping sets."""
    sets = []
    nodes = set()
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
        merged = {a, b}
        remaining = []
        for s in sets:
            if s & merged:
                merged |= s
            else:
                remaining.append(s)
        remaining.append(merged)
        sets = remaining
    return {frozenset(s) for s in sets}


class TestAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(pairs)
    def test_components_match_reference(self, edges):
        uf = UnionFind()
        for a, b in edges:
            uf.union(a, b)
        ours = {frozenset(v) for v in uf.components().values()}
        assert ours == naive_components(edges)

    @settings(max_examples=50, deadline=None)
    @given(pairs)
    def test_reclaim_count_invariant(self, edges):
        """sum(|component| - 1) == nodes - components, the quantity the
        space accounting is built on."""
        uf = UnionFind()
        for a, b in edges:
            uf.union(a, b)
        components = uf.components()
        nodes = sum(len(v) for v in components.values())
        reclaimed = sum(len(v) - 1 for v in components.values())
        assert reclaimed == nodes - len(components)


#: Two contents of one size, so equal sizes never stand in for equal files.
FINGERPRINTS = [
    synthetic_fingerprint(size, content)
    for size, content in ((0, 1), (10, 2), (100, 3), (100, 4), (4096, 5))
]

match_sets = st.lists(
    st.builds(
        lambda machine, other, fp: (
            machine,
            MatchPayload(fingerprint=FINGERPRINTS[fp], other_machine=other),
        ),
        st.integers(0, 12),
        st.integers(0, 12),
        st.integers(0, len(FINGERPRINTS) - 1),
    ),
    max_size=80,
)


class TestReclaimedBytesAgainstComponents:
    @settings(max_examples=150, deadline=None)
    @given(match_sets, st.sampled_from([0, 1, 10, 11, 100, 101, 5000]))
    def test_union_count_equals_component_sum(self, matches, min_size):
        assert reclaimed_bytes_from_matches(matches, min_size) == (
            reclaimed_bytes_by_components(matches, min_size)
        )
