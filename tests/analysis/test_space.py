"""Space accounting from match notifications."""

from repro.analysis.space import SpaceAccounting, reclaimed_bytes_from_matches
from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.protocol import MatchPayload
from repro.workload.corpus import Corpus, FileStat, MachineScan
from tests.unionfind import UnionFind

FP_BIG = synthetic_fingerprint(1000, 1)
FP_SMALL = synthetic_fingerprint(10, 2)


def match(receiver, other, fingerprint):
    return (receiver, MatchPayload(fingerprint=fingerprint, other_machine=other))


class TestUnionFind:
    def test_components(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        uf.union(10, 11)
        components = {frozenset(v) for v in uf.components().values()}
        assert components == {frozenset({1, 2, 3}), frozenset({10, 11})}

    def test_find_is_idempotent(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.find("a") == uf.find("b")
        assert uf.find("a") == uf.find(uf.find("a"))

    def test_self_union_harmless(self):
        uf = UnionFind()
        uf.union(1, 1)
        assert len(uf.components()) == 1


class TestReclaimedBytes:
    def test_pair_reclaims_one_copy(self):
        matches = [match(1, 2, FP_BIG)]
        assert reclaimed_bytes_from_matches(matches) == 1000

    def test_transitive_chain_reclaims_all_but_one(self):
        matches = [match(1, 2, FP_BIG), match(2, 3, FP_BIG)]
        assert reclaimed_bytes_from_matches(matches) == 2000

    def test_duplicate_notifications_counted_once(self):
        matches = [match(1, 2, FP_BIG)] * 5 + [match(2, 1, FP_BIG)] * 5
        assert reclaimed_bytes_from_matches(matches) == 1000

    def test_disconnected_components_coalesce_separately(self):
        matches = [match(1, 2, FP_BIG), match(3, 4, FP_BIG)]
        assert reclaimed_bytes_from_matches(matches) == 2000  # 4 copies -> 2

    def test_min_size_threshold_filters(self):
        matches = [match(1, 2, FP_BIG), match(1, 2, FP_SMALL)]
        assert reclaimed_bytes_from_matches(matches, min_size=100) == 1000

    def test_different_fingerprints_never_merge(self):
        other = synthetic_fingerprint(1000, 99)
        matches = [match(1, 2, FP_BIG), match(2, 3, other)]
        assert reclaimed_bytes_from_matches(matches) == 2000

    def test_empty(self):
        assert reclaimed_bytes_from_matches([]) == 0


class TestSpaceAccounting:
    def make_corpus(self):
        shared = FileStat(content_id=1, size=1000)
        return Corpus(
            machines=[
                MachineScan(0, [shared, FileStat(2, 500)]),
                MachineScan(1, [shared]),
                MachineScan(2, [shared]),
            ]
        )

    def test_ideal_consumed(self):
        accounting = SpaceAccounting(self.make_corpus())
        assert accounting.total_bytes == 3500
        assert accounting.ideal_consumed_bytes() == 1500  # two copies reclaimed

    def test_consumed_with_partial_discovery(self):
        accounting = SpaceAccounting(self.make_corpus())
        fp = FileStat(1, 1000).fingerprint()
        matches = [match(0, 1, fp)]  # only one pair discovered
        assert accounting.consumed_bytes(matches) == 2500
        assert accounting.reclaimed_fraction(matches) == 1000 / 3500

    def test_full_discovery_reaches_ideal(self):
        accounting = SpaceAccounting(self.make_corpus())
        fp = FileStat(1, 1000).fingerprint()
        matches = [match(0, 1, fp), match(1, 2, fp)]
        assert accounting.consumed_bytes(matches) == accounting.ideal_consumed_bytes()
