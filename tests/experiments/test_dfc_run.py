"""The shared DFC pipeline: build/fail/insert phases and the sweep trick."""

import random

import pytest

from repro.crypto.modes import bulk_encrypt_ctr
from repro.experiments.dfc_run import DfcConfig, DfcRun
from repro.obs.registry import MetricsRegistry
from repro.workload.generator import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(machines=40, mean_files_per_machine=15), seed=3)


class TestBuildAndInsert:
    def test_build_maps_every_machine(self, corpus):
        run = DfcRun(corpus, DfcConfig(seed=1))
        run.build()
        assert len(run.leaf_of_machine) == len(corpus)
        assert len(run.salad) == len(corpus)

    def test_double_build_rejected(self, corpus):
        run = DfcRun(corpus, DfcConfig(seed=1))
        run.build()
        with pytest.raises(RuntimeError):
            run.build()

    def test_insert_all_counts_files(self, corpus):
        run = DfcRun(corpus, DfcConfig(seed=2))
        run.build()
        assert run.insert_all() == corpus.total_files

    def test_threshold_limits_insertions(self, corpus):
        run = DfcRun(corpus, DfcConfig(seed=3))
        run.build()
        eligible = sum(len(m.files_at_least(32_768)) for m in corpus.machines)
        assert run.insert_all(min_size=32_768) == eligible

    def test_reclaims_most_duplicate_space(self, corpus):
        run = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=4))
        run.build()
        run.insert_all()
        ideal = corpus.summary().duplicate_byte_fraction
        assert run.reclaimed_fraction() > 0.6 * ideal

    def test_consumed_bounded_by_ideal(self, corpus):
        run = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=5))
        run.build()
        run.insert_all()
        assert run.consumed_bytes() >= run.accounting.ideal_consumed_bytes()
        assert run.consumed_bytes() <= corpus.total_bytes


class TestSweep:
    def test_sweep_matches_fresh_runs(self, corpus):
        """The one-pass descending-bucket sweep must equal independent runs
        at each threshold (same seed => same SALAD and routing)."""
        thresholds = [1, 4096, 1 << 20]
        sweep_run = DfcRun(corpus, DfcConfig(target_redundancy=2.0, seed=6))
        sweep_run.build()
        points = sweep_run.insert_sweep(thresholds)
        assert [p.min_size for p in points] == thresholds

        fresh = DfcRun(corpus, DfcConfig(target_redundancy=2.0, seed=6))
        fresh.build()
        fresh.insert_all(min_size=4096)
        assert points[1].consumed_bytes == fresh.consumed_bytes(min_size=4096)

    def test_consumed_monotone_in_threshold(self, corpus):
        run = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=7))
        run.build()
        points = run.insert_sweep([1, 512, 32_768, 1 << 21])
        consumed = [p.consumed_bytes for p in points]
        assert consumed == sorted(consumed)
        ideal = [p.ideal_consumed_bytes for p in points]
        assert ideal == sorted(ideal)

    def test_messages_and_db_monotone_decreasing_in_threshold(self, corpus):
        run = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=8))
        run.build()
        points = run.insert_sweep([1, 512, 32_768, 1 << 21])
        messages = [p.mean_messages for p in points]
        assert messages == sorted(messages, reverse=True)
        dbsizes = [p.mean_database_records for p in points]
        assert dbsizes == sorted(dbsizes, reverse=True)


class TestFailureModes:
    def test_duty_cycle_failure_degrades_gracefully(self, corpus):
        baseline = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=9))
        baseline.build()
        baseline.insert_all()

        lossy = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=9))
        lossy.build()
        lossy.set_failure_probability(0.5)
        lossy.insert_all()

        assert lossy.reclaimed_fraction() <= baseline.reclaimed_fraction()
        assert lossy.reclaimed_fraction() > 0.25 * baseline.reclaimed_fraction()

    def test_total_failure_reclaims_nothing(self, corpus):
        run = DfcRun(corpus, DfcConfig(seed=10))
        run.build()
        run.set_failure_probability(1.0)
        run.insert_all()
        assert run.reclaimed_fraction() == 0.0

    def test_crash_ablation_is_harsher(self, corpus):
        duty = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=11))
        duty.build()
        duty.set_failure_probability(0.5)
        duty.insert_all()

        crash = DfcRun(corpus, DfcConfig(target_redundancy=2.5, seed=11))
        crash.build()
        crash.salad.crash_fraction(0.5, random.Random(crash.config.seed + 1))
        crash.insert_all()

        assert crash.reclaimed_fraction() <= duty.reclaimed_fraction()

    def test_invalid_probability(self, corpus):
        run = DfcRun(corpus, DfcConfig(seed=12))
        with pytest.raises(ValueError):
            run.set_failure_probability(1.5)


class TestHarvest:
    def test_reports_only_what_this_run_did(self, corpus):
        # A DFC run encrypts nothing: an unrelated CTR call made earlier in
        # the process must not show up in its harvest.
        bulk_encrypt_ctr(bytes(16), bytes(4096), nonce=77)
        run = DfcRun(corpus, DfcConfig(seed=13))
        try:
            run.build()
            run.insert_all()
            registry = MetricsRegistry()
            run.collect_metrics(registry)
        finally:
            run.close()
        names = registry.counter_totals()
        assert names["salad.records.arrivals"] > 0
        assert not [name for name in names if name.startswith("crypto.")]
