"""The partitioned hierarchical namespace."""

import pytest

from repro.farsite.directory_group import DirectoryGroup
from repro.farsite.namespace import Namespace, _normalize, _region_of


def make_namespace(groups=3):
    return Namespace(
        [DirectoryGroup(list(range(g * 10, g * 10 + 4))) for g in range(groups)]
    )


class TestPathHandling:
    def test_normalize(self):
        assert _normalize("/a//b/") == "/a/b"
        assert _normalize("/") == "/"

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            _normalize("a/b")

    def test_region_is_top_level_directory(self):
        assert _region_of("/home/alice/doc.txt") == "home"
        assert _region_of("/") == ""


class TestOperations:
    def test_create_and_lookup(self):
        ns = make_namespace()
        ns.create("/docs/a.txt", "f1", 100, (1, 2, 3), ("alice",))
        entry = ns.lookup("/docs/a.txt")
        assert entry.file_id == "f1"
        assert entry.replica_hosts == (1, 2, 3)

    def test_create_returns_what_it_displaced(self):
        ns = make_namespace()
        assert ns.create("/docs/a.txt", "f1", 100, (1, 2, 3), ("alice",)) is None
        displaced = ns.create("/docs//a.txt/", "f2", 50, (4,), ("alice",))
        assert (displaced.file_id, displaced.replica_hosts) == ("f1", (1, 2, 3))
        assert ns.lookup("/docs/a.txt").file_id == "f2"

    def test_lookup_missing(self):
        assert make_namespace().lookup("/nope") is None

    def test_remove(self):
        ns = make_namespace()
        ns.create("/docs/a.txt", "f1", 100, (1,), ("alice",))
        assert ns.remove("/docs/a.txt")
        assert ns.lookup("/docs/a.txt") is None

    def test_same_region_same_group(self):
        ns = make_namespace()
        assert ns.group_for("/home/alice/x") is ns.group_for("/home/bob/y")

    def test_regions_spread_over_groups(self):
        ns = make_namespace(groups=3)
        groups = {id(ns.group_for(f"/region{i}/f")) for i in range(30)}
        assert len(groups) == 3

    def test_set_replica_hosts(self):
        ns = make_namespace()
        ns.create("/docs/a.txt", "f1", 100, (1, 2), ("alice",))
        ns.set_replica_hosts("/docs/a.txt", (7, 8))
        assert ns.lookup("/docs/a.txt").replica_hosts == (7, 8)

    def test_list_region_and_all_paths(self):
        ns = make_namespace()
        ns.create("/docs/a", "f1", 1, (1,), ())
        ns.create("/docs/b", "f2", 1, (1,), ())
        ns.create("/pics/c", "f3", 1, (1,), ())
        assert ns.group_for("/docs").list("/docs") == ("/docs/a", "/docs/b")
        assert ns.all_paths() == ["/docs/a", "/docs/b", "/pics/c"]

    def test_empty_group_list_rejected(self):
        with pytest.raises(ValueError):
            Namespace([])
