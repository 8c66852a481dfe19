"""Quorum-replicated directory groups tolerating Byzantine members."""

import pytest

from repro.farsite.directory_group import (
    DirectoryEntry,
    DirectoryGroup,
    QuorumFailure,
)


def entry(path="/docs/a", file_id="f1", size=100):
    return DirectoryEntry(
        path=path, file_id=file_id, size=size, replica_hosts=(1, 2, 3), readers=("alice",)
    )


def make_group(members=4, f=1):
    return DirectoryGroup(list(range(1, members + 1)), fault_tolerance=f)


class TestBasicOperations:
    def test_put_get(self):
        group = make_group()
        group.put(entry())
        got = group.get("/docs/a")
        assert got.file_id == "f1"

    def test_get_missing_returns_none(self):
        assert make_group().get("/nope") is None

    def test_put_returns_the_displaced_entry(self):
        group = make_group()
        assert group.put(entry(file_id="f1")) is None
        displaced = group.put(entry(file_id="f2", size=7))
        assert (displaced.file_id, displaced.size) == ("f1", 100)
        assert group.get("/docs/a").file_id == "f2"
        assert group.operations_applied == 3  # the overwrite was one vote

    def test_displaced_entry_survives_a_faulty_member(self):
        group = make_group(members=4, f=1)
        group.put(entry(file_id="f1"))
        group.corrupt_member(2)
        assert group.put(entry(file_id="f2")).file_id == "f1"

    def test_delete(self):
        group = make_group()
        group.put(entry())
        assert group.delete("/docs/a") is True
        assert group.get("/docs/a") is None
        assert group.delete("/docs/a") is False

    def test_list_prefix(self):
        group = make_group()
        group.put(entry("/docs/a", "f1"))
        group.put(entry("/docs/b", "f2"))
        group.put(entry("/other/c", "f3"))
        assert group.list("/docs/") == ("/docs/a", "/docs/b")

    def test_set_replica_hosts(self):
        group = make_group()
        group.put(entry())
        group.set_replica_hosts("/docs/a", (7, 8, 9))
        assert group.get("/docs/a").replica_hosts == (7, 8, 9)

    def test_set_hosts_missing_path(self):
        with pytest.raises(KeyError):
            make_group().set_replica_hosts("/ghost", (1,))


class TestByzantineTolerance:
    def test_f_faulty_members_outvoted(self):
        """The paper's guarantee: correct as long as < 1/3 fail arbitrarily."""
        group = make_group(members=4, f=1)
        group.put(entry())
        group.corrupt_member(1)
        assert group.get("/docs/a").file_id == "f1"  # 3 honest >= quorum 3

    def test_too_many_faulty_members_detected(self):
        group = make_group(members=4, f=1)
        group.put(entry())
        group.corrupt_member(1)
        group.corrupt_member(2)
        with pytest.raises(QuorumFailure):
            group.get("/docs/a")

    def test_undersized_group_rejected(self):
        with pytest.raises(ValueError):
            DirectoryGroup([1, 2, 3], fault_tolerance=1)

    def test_corrupt_unknown_member(self):
        with pytest.raises(KeyError):
            make_group().corrupt_member(99)

    def test_larger_group_larger_quorum(self):
        group = DirectoryGroup(list(range(7)), fault_tolerance=2)
        assert group.quorum_size == 5
        group.put(entry())
        group.corrupt_member(0)
        group.corrupt_member(1)
        assert group.get("/docs/a").file_id == "f1"
