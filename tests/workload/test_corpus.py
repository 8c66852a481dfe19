"""Corpus data model and aggregate statistics."""

from repro.core.fingerprint import synthetic_fingerprint
from repro.workload.corpus import Corpus, FileStat, MachineScan


def tiny_corpus():
    shared = FileStat(content_id=1, size=1000)
    return Corpus(
        machines=[
            MachineScan(0, [shared, FileStat(content_id=2, size=500)]),
            MachineScan(1, [shared, FileStat(content_id=3, size=200)]),
            MachineScan(2, [shared]),
        ]
    )


class TestFileStat:
    def test_fingerprint_matches_synthetic(self):
        f = FileStat(content_id=9, size=64)
        assert f.fingerprint() == synthetic_fingerprint(64, 9)

    def test_equal_contents_equal_fingerprints(self):
        assert FileStat(1, 10).fingerprint() == FileStat(1, 10).fingerprint()


class TestMachineScan:
    def test_totals(self):
        scan = MachineScan(0, [FileStat(1, 100), FileStat(2, 50)])
        assert scan.file_count == 2
        assert scan.total_bytes == 150

    def test_files_at_least(self):
        scan = MachineScan(0, [FileStat(1, 100), FileStat(2, 50)])
        assert [f.size for f in scan.files_at_least(60)] == [100]


class TestCorpusStats:
    def test_summary(self):
        summary = tiny_corpus().summary()
        assert summary.machine_count == 3
        assert summary.total_files == 5
        assert summary.total_bytes == 1000 * 3 + 500 + 200
        assert summary.distinct_contents == 3
        assert summary.distinct_bytes == 1700

    def test_duplicate_fractions(self):
        summary = tiny_corpus().summary()
        # duplicates: two extra copies of the 1000-byte content.
        assert summary.duplicate_byte_fraction == 2000 / 3700
        assert summary.duplicate_file_fraction == 2 / 5

    def test_ideal_reclaimable(self):
        corpus = tiny_corpus()
        assert corpus.ideal_reclaimable_bytes() == 2000
        # With a 600-byte threshold only the 1000-byte content qualifies.
        assert corpus.ideal_reclaimable_bytes(min_size=600) == 2000
        assert corpus.ideal_reclaimable_bytes(min_size=1500) == 0

    def test_content_instances(self):
        instances = tiny_corpus().content_instances()
        assert instances[1] == (1000, [0, 1, 2])
        assert instances[2] == (500, [0])

    def test_empty_summary_fractions(self):
        empty = Corpus(machines=[MachineScan(0, [])]).summary()
        assert empty.duplicate_byte_fraction == 0.0
        assert empty.mean_file_size == 0.0
