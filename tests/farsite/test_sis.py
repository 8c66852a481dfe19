"""The Single-Instance Store: coalescing with separate-file semantics."""

import pytest

from repro.farsite.sis import NoSuchFileError, SingleInstanceStore


class TestCoalescing:
    def test_identical_content_shares_one_blob(self):
        sis = SingleInstanceStore()
        assert not sis.store("a", b"same bytes")
        assert sis.store("b", b"same bytes")  # coalesced
        assert sis.blob_count() == 1
        assert len(sis) == 2
        assert sis.stats().physical_bytes == len(b"same bytes")

    def test_different_content_does_not_coalesce(self):
        sis = SingleInstanceStore()
        sis.store("a", b"one")
        assert not sis.store("b", b"two")
        assert sis.blob_count() == 2

    def test_space_accounting(self):
        sis = SingleInstanceStore()
        payload = b"x" * 1000
        for name in ("a", "b", "c"):
            sis.store(name, payload)
        stats = sis.stats()
        assert stats.logical_bytes == 3000
        assert stats.physical_bytes == 1000
        assert stats.reclaimed_bytes == 2000


class TestSeparateFileSemantics:
    def test_reads_are_independent(self):
        sis = SingleInstanceStore()
        sis.store("a", b"shared")
        sis.store("b", b"shared")
        assert sis.read("a") == sis.read("b") == b"shared"

    def test_copy_on_write_preserves_other_links(self):
        sis = SingleInstanceStore()
        sis.store("a", b"shared content")
        sis.store("b", b"shared content")
        sis.store("a", b"a's new content")
        assert sis.read("a") == b"a's new content"
        assert sis.read("b") == b"shared content"
        assert sis.blob_count() == 2

    def test_rewriting_back_recoalesces(self):
        sis = SingleInstanceStore()
        sis.store("a", b"shared")
        sis.store("b", b"shared")
        sis.store("a", b"diverged")
        sis.store("a", b"shared")
        assert sis.blob_count() == 1
        assert sis.read("a") == sis.read("b") == b"shared"

    def test_delete_releases_blob_only_when_last(self):
        sis = SingleInstanceStore()
        sis.store("a", b"shared")
        sis.store("b", b"shared")
        sis.delete("a")
        assert sis.read("b") == b"shared"
        assert sis.blob_count() == 1
        sis.delete("b")
        assert sis.blob_count() == 0

    def test_restore_same_name_replaces(self):
        sis = SingleInstanceStore()
        sis.store("a", b"v1")
        sis.store("a", b"v2")
        assert sis.read("a") == b"v2"
        assert sis.blob_count() == 1
        assert len(sis) == 1


class TestErrors:
    def test_read_missing(self):
        with pytest.raises(NoSuchFileError):
            SingleInstanceStore().read("ghost")

    def test_delete_missing(self):
        with pytest.raises(NoSuchFileError):
            SingleInstanceStore().delete("ghost")

    def test_contains(self):
        sis = SingleInstanceStore()
        sis.store("a", b"x")
        assert "a" in sis and "b" not in sis
