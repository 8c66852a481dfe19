"""End-to-end DFC pipeline: SALAD discovery -> relocation -> SIS coalescing."""

import pytest

from repro.experiments.dfc_run import DfcConfig
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.salad.salad import RunSettings
from repro.workload.generator import CorpusSpec, generate_corpus

# Small corpus with capped file sizes: the pipeline materializes bytes.
SPEC = CorpusSpec(
    machines=20,
    mean_files_per_machine=8,
    max_file_size=64 * 1024,
    system_contents=3,
)


@pytest.fixture(scope="module")
def executed_pipeline():
    corpus = generate_corpus(SPEC, seed=5)
    pipeline = DfcPipeline(corpus, DfcConfig(target_redundancy=2.5, seed=5))
    report = pipeline.execute()
    return corpus, pipeline, report


class TestEndToEnd:
    def test_physical_reclaim_at_least_prediction(self, executed_pipeline):
        """The SIS layer must realize every discovered coalescing
        opportunity (it may realize slightly more if discovery was split
        into components the relocation pass merged)."""
        _, _, report = executed_pipeline
        assert report.physically_reclaimed >= report.predicted_reclaimed
        assert report.predicted_reclaimed > 0

    def test_reclaim_bounded_by_ideal(self, executed_pipeline):
        corpus, _, report = executed_pipeline
        assert report.physically_reclaimed <= corpus.ideal_reclaimable_bytes()
        assert report.total_bytes == corpus.total_bytes

    def test_migrations_moved_real_bytes(self, executed_pipeline):
        _, pipeline, report = executed_pipeline
        assert report.migrations > 0
        assert report.bytes_moved > 0

    def test_duplicates_colocated_after_relocation(self, executed_pipeline):
        """Every relocated duplicate group must sit on one host, coalesced."""
        _, pipeline, _ = executed_pipeline
        by_fingerprint = {}
        for file_id, (fingerprint, hosts) in pipeline.replicas.items():
            by_fingerprint.setdefault(fingerprint, []).append((file_id, hosts[0]))
        held = {}
        for fingerprint, placements in by_fingerprint.items():
            for _, host in placements:
                held.setdefault(host, set()).add(fingerprint)
        # One blob per distinct content a host holds: every co-located
        # duplicate shares it.
        for host, fingerprints in held.items():
            assert pipeline.hosts[host].sis.blob_count() == len(fingerprints)

    def test_files_survive_relocation_intact(self, executed_pipeline):
        """Relocation must preserve every file's content exactly."""
        from repro.workload.content import synthetic_content

        corpus, pipeline, _ = executed_pipeline
        for machine in corpus.machines:
            for index, stat in enumerate(machine.files):
                file_id = f"m{machine.machine_index}-f{index}"
                fingerprint, hosts = pipeline.replicas[file_id]
                blob = pipeline.hosts[hosts[0]].sis.read(file_id)
                assert blob == synthetic_content(stat.content_id, stat.size)

    def test_consumed_fraction_reasonable(self, executed_pipeline):
        corpus, _, report = executed_pipeline
        ideal_fraction = corpus.summary().duplicate_byte_fraction
        assert report.reclaimed_fraction > 0.4 * ideal_fraction


class TestReplication:
    """The R >= 2 pipeline: placement, co-location, availability telemetry."""

    @pytest.fixture(scope="class")
    def replicated(self):
        corpus = generate_corpus(SPEC, seed=5)
        pipeline = DfcPipeline(
            corpus,
            DfcConfig(target_redundancy=2.5, seed=5, replication_factor=2),
        )
        report = pipeline.execute()
        return corpus, pipeline, report

    def test_every_file_on_r_distinct_hosts(self, replicated):
        _, pipeline, _ = replicated
        for file_id, (_, hosts) in pipeline.replicas.items():
            assert len(hosts) == 2
            assert len(set(hosts)) == 2

    def test_total_bytes_scale_with_replication(self, replicated):
        corpus, _, report = replicated
        assert report.total_bytes == 2 * corpus.total_bytes
        assert report.replication_factor == 2

    def test_replicas_actually_stored_on_their_hosts(self, replicated):
        _, pipeline, _ = replicated
        for file_id, (_, hosts) in pipeline.replicas.items():
            for host in hosts:
                assert pipeline.hosts[host].sis.read(file_id) is not None

    def test_availability_telemetry_in_report(self, replicated):
        _, pipeline, report = replicated
        assert 0.0 < report.min_availability <= report.mean_availability <= 1.0
        # Two independent replicas beat the worst single host.
        worst_host = min(pipeline.availability.values())
        assert report.min_availability > worst_host

    def test_duplicate_groups_colocated_on_canonical_pair(self, replicated):
        """After relocation each discovered group's files share one host
        set, so every host's SIS coalesces all of its copies."""
        _, pipeline, report = replicated
        assert report.migrations > 0
        by_fingerprint = {}
        for file_id, (fingerprint, hosts) in pipeline.replicas.items():
            by_fingerprint.setdefault(fingerprint, []).append(
                (file_id, frozenset(hosts))
            )
        colocated_groups = 0
        held = {}
        for fingerprint, placements in by_fingerprint.items():
            host_sets = {hosts for _, hosts in placements}
            if len(placements) > 1 and len(host_sets) == 1:
                colocated_groups += 1
            for _, hosts in placements:
                for host in hosts:
                    held.setdefault(host, set()).add(fingerprint)
        assert colocated_groups > 0
        # One blob per distinct content a host holds: every co-located
        # duplicate shares it.
        for host, fingerprints in held.items():
            assert pipeline.hosts[host].sis.blob_count() == len(fingerprints)

    def test_availability_override_used(self):
        corpus = generate_corpus(SPEC, seed=5)
        override = {
            machine.machine_index: 0.42 for machine in corpus.machines
        }
        pipeline = DfcPipeline(
            corpus,
            DfcConfig(target_redundancy=2.5, seed=5, replication_factor=2),
            machine_availability=override,
        )
        pipeline.load_hosts()
        assert set(pipeline.availability.values()) == {0.42}
        pipeline.close_stores()

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError):
            DfcConfig(replication_factor=0)

    def test_replication_beyond_hosts_rejected(self):
        corpus = generate_corpus(
            CorpusSpec(machines=3, mean_files_per_machine=2, max_file_size=4096),
            seed=1,
        )
        pipeline = DfcPipeline(corpus, DfcConfig(seed=1, replication_factor=5))
        with pytest.raises(ValueError):
            pipeline.load_hosts()

    def test_r1_path_unchanged_by_replication_support(self, executed_pipeline):
        """R=1 keeps the seed's owner-hosted single copy: every file's one
        replica starts on its owner machine's leaf (bit-identical loading,
        so every existing figure is untouched)."""
        corpus, pipeline, report = executed_pipeline
        assert report.replication_factor == 1
        assert report.total_bytes == corpus.total_bytes


class TestThreshold:
    def test_min_size_threshold_respected(self):
        corpus = generate_corpus(SPEC, seed=6)
        pipeline = DfcPipeline(corpus, DfcConfig(target_redundancy=2.5, seed=6))
        report = pipeline.execute(min_size=16 * 1024)
        # No match below the threshold may have been acted upon.
        for _, payload in pipeline.run.salad.collected_matches():
            assert payload.fingerprint.size >= 16 * 1024
        assert report.physically_reclaimed >= report.predicted_reclaimed


def _shared_corpus():
    """Six machines whose files share contents every way the loader can meet:
    one content everywhere, one on two machines, one twice on one machine,
    one identity at two sizes (two contents), and a unique file each."""
    from repro.workload.corpus import Corpus, FileStat, MachineScan

    machines = []
    for index in range(6):
        files = [FileStat(content_id=1, size=3000), FileStat(100 + index, 700 + index)]
        if index in (1, 4):
            files.append(FileStat(content_id=2, size=5000))
        if index == 2:
            files += [FileStat(3, 900), FileStat(3, 900), FileStat(3, 901)]
        machines.append(MachineScan(machine_index=index, files=files))
    return Corpus(machines=machines)


def _files(corpus):
    for machine in corpus.machines:
        for index, stat in enumerate(machine.files):
            yield f"m{machine.machine_index}-f{index}", machine.machine_index, stat


class _Counting:
    """A pass-through that records its calls, installed *by name* on the
    pipeline module -- the way ``bench/trace.py`` wraps the same names."""

    def __init__(self, monkeypatch, name):
        from repro.farsite import dfc_pipeline

        self.calls = []
        self._real = getattr(dfc_pipeline, name)
        monkeypatch.setattr(dfc_pipeline, name, self)

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        return self._real(*args, **kwargs)


class TestLoadHostsMaterializesPerContent:
    @pytest.fixture(params=[1, 3])
    def loaded(self, request):
        corpus = _shared_corpus()
        pipeline = DfcPipeline(
            corpus, DfcConfig(seed=4, replication_factor=request.param)
        )
        pipeline.load_hosts()
        yield corpus, pipeline
        pipeline.close_stores()

    def test_one_content_call_per_distinct_content(self, monkeypatch):
        corpus = _shared_corpus()
        content = _Counting(monkeypatch, "synthetic_content")
        fingerprint = _Counting(monkeypatch, "synthetic_fingerprint")
        placed = _Counting(monkeypatch, "place_replicas")
        predicted = _Counting(monkeypatch, "reclaimed_bytes_from_matches")
        pipeline = DfcPipeline(corpus, DfcConfig(seed=4, replication_factor=2))
        pipeline.load_hosts()
        distinct = {(stat.content_id, stat.size) for _, _, stat in _files(corpus)}
        assert 0 < len(distinct) < corpus.total_files
        assert sorted(content.calls) == sorted(distinct)
        assert sorted(fingerprint.calls) == sorted((s, c) for c, s in distinct)
        assert len(placed.calls) == 1
        pipeline.report()
        assert len(predicted.calls) == 1
        pipeline.close_stores()

    def test_loaded_state_equals_per_file_materialization(self, loaded):
        """The reference stores a freshly generated blob per file on the
        hosts placement chose; every observable of every store must agree."""
        from repro.core.fingerprint import synthetic_fingerprint
        from repro.farsite.sis import SingleInstanceStore
        from repro.workload.content import synthetic_content

        corpus, pipeline = loaded
        reference = {host: SingleInstanceStore() for host in pipeline.hosts}
        for file_id, machine_index, stat in _files(corpus):
            fingerprint, hosts = pipeline.replicas[file_id]
            assert fingerprint == synthetic_fingerprint(stat.size, stat.content_id)
            assert pipeline.publishers[file_id] == pipeline.run.leaf_of_machine[machine_index]
            for host in hosts:
                reference[host].store(file_id, synthetic_content(stat.content_id, stat.size))
        assert list(pipeline.replicas) == [file_id for file_id, _, _ in _files(corpus)]
        for host, expected in reference.items():
            sis = pipeline.hosts[host].sis
            assert len(sis) == len(expected)
            assert sis.blob_count() == expected.blob_count()
            assert sis.stats() == expected.stats()
        for file_id, (_, hosts) in pipeline.replicas.items():
            for host in hosts:
                assert pipeline.hosts[host].sis.read(file_id) == reference[host].read(file_id)

    def test_hosts_of_one_content_hold_one_object(self, loaded):
        """Resident content is one copy per distinct content, not one per
        replica: the in-memory stores keep the very object they were given."""
        _, pipeline = loaded
        holders = {}
        for file_id, (fingerprint, hosts) in pipeline.replicas.items():
            for host in hosts:
                holders.setdefault(fingerprint, []).append((host, file_id))
        shared = [h for h in holders.values() if len({host for host, _ in h}) > 1]
        assert shared
        for replicas in shared:
            blobs = [pipeline.hosts[host].sis.read(file_id) for host, file_id in replicas]
            assert all(blob is blobs[0] for blob in blobs)

    def test_r1_is_the_owner_hosted_single_copy(self):
        corpus = _shared_corpus()
        pipeline = DfcPipeline(corpus, DfcConfig(seed=4))
        pipeline.load_hosts()
        for file_id, machine_index, _ in _files(corpus):
            owner = pipeline.run.leaf_of_machine[machine_index]
            assert pipeline.replicas[file_id][1] == [owner]
            assert file_id in pipeline.hosts[owner].sis
        assert sum(len(host.sis) for host in pipeline.hosts.values()) == corpus.total_files
        pipeline.close_stores()


class TestDurableStoreDirectories:
    """A durable pipeline's leaf stores live where its settings say; its
    hosts' SIS blobs stay in RAM and leave no file."""

    @staticmethod
    def _loaded(settings):
        pipeline = DfcPipeline(_shared_corpus(), DfcConfig(seed=4, settings=settings))
        pipeline.load_hosts()
        leaf_dirs = {leaf.database.path.parent for leaf in pipeline.run.salad.leaves.values()}
        return pipeline, leaf_dirs

    def test_own_tempdirs_are_removed_by_close_stores(self):
        pipeline, (leaf_dir,) = self._loaded(RunSettings(db_backend="wal"))
        assert any(leaf_dir.glob("leaf-*.wal"))
        pipeline.close_stores()
        assert not leaf_dir.exists()

    def test_named_db_dir_is_kept(self, tmp_path):
        settings = RunSettings(db_backend="wal", db_dir=str(tmp_path))
        pipeline, (leaf_dir,) = self._loaded(settings)
        pipeline.close_stores()
        assert leaf_dir.parent == tmp_path
        assert [path.name for path in tmp_path.iterdir()] == [leaf_dir.name]
        assert any(leaf_dir.glob("leaf-*.wal"))


class TestRelocationStoresBeforeDeleting:
    def test_a_failed_store_keeps_the_source_replica(self, monkeypatch):
        pipeline = DfcPipeline(
            generate_corpus(SPEC, seed=5), DfcConfig(target_redundancy=2.5, seed=5)
        )
        pipeline.load_hosts()
        pipeline.discover()
        held = {
            (host_id, file_id): pipeline.hosts[host_id].sis.read(file_id)
            for file_id, (_, hosts) in pipeline.replicas.items()
            for host_id in hosts
        }

        def refuse(name, data):
            raise OSError("target disk full")

        for host in pipeline.hosts.values():
            monkeypatch.setattr(host.sis, "store", refuse)
        with pytest.raises(OSError):
            pipeline.relocate()
        for (host_id, file_id), blob in held.items():
            assert pipeline.hosts[host_id].sis.read(file_id) == blob
