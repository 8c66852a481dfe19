"""The full Farsite deployment: nodes, groups, clients, and the DFC cycle."""

import pytest

from repro.farsite.client import NoReplicaAvailableError
from repro.farsite.file_host import HostDownError
from repro.farsite.node import FarsiteDeployment
from repro.obs.registry import MetricsRegistry

DOCUMENT = b"shared workgroup document body " * 200  # ~6 KB
OTHER = b"another popular file, different bytes " * 150


@pytest.fixture(scope="module")
def deployment():
    return FarsiteDeployment(machine_count=16, replication_factor=2, seed=3)


@pytest.fixture(scope="module")
def cycled(deployment):
    """Three users write the same two documents; one DFC cycle runs."""
    users = [deployment.create_user(name) for name in ("ana", "ben", "cho")]
    receipts = []
    for user in users:
        client = deployment.client_for(user)
        receipts.append(client.write_file(f"/home/{user.name}/doc.txt", DOCUMENT))
        receipts.append(client.write_file(f"/home/{user.name}/tool.bin", OTHER))
    report = deployment.run_dfc_cycle()
    return deployment, users, receipts, report


class TestAssembly:
    def test_every_node_is_leaf_and_host(self, deployment):
        for node in deployment.nodes.values():
            assert hasattr(node, "leaf_table")
            assert hasattr(node, "host")

    def test_directory_groups_cover_machines(self, deployment):
        grouped = sum(len(g.replicas) for g in deployment.groups)
        assert grouped == 16

    def test_too_few_machines_rejected(self):
        with pytest.raises(ValueError):
            FarsiteDeployment(machine_count=3)

    def test_salad_actually_joined(self, deployment):
        sizes = [node.table_size for node in deployment.nodes.values()]
        assert sum(sizes) / len(sizes) > 4


class TestDfcCycle:
    def test_duplicates_discovered_and_relocated(self, cycled):
        _, _, _, report = cycled
        # 6 files x 2 replicas = 12 replicas; each host publishes one record
        # per distinct fingerprint it holds, so co-located duplicates dedupe
        # at publication already.
        assert 2 <= report.records_published <= 12
        assert report.duplicate_groups >= 1
        assert report.migrations >= 1

    def test_space_physically_reclaimed(self, cycled):
        _, _, _, report = cycled
        assert report.reclaimed_bytes > 0
        # Best case: 3 copies x 2 replicas coalesce to 2 replicas per doc.
        assert report.physical_bytes < report.logical_bytes

    def test_reads_survive_relocation(self, cycled):
        """After replicas move, every user still reads their own file
        through the updated namespace metadata."""
        deployment, users, _, _ = cycled
        for user in users:
            client = deployment.client_for(user)
            assert client.read_file(f"/home/{user.name}/doc.txt") == DOCUMENT
            assert client.read_file(f"/home/{user.name}/tool.bin") == OTHER

    def test_namespace_hosts_match_reality(self, cycled):
        deployment, _, _, _ = cycled
        for path in deployment.namespace.all_paths():
            entry = deployment.namespace.lookup(path)
            held = sum(
                1
                for host_id in entry.replica_hosts
                if deployment.nodes[host_id].host.replica_info(entry.file_id) is not None
            )
            assert held == len(entry.replica_hosts)

    def test_cycle_is_idempotent(self, cycled):
        """Re-running the cycle with no new files changes nothing."""
        deployment, _, _, first = cycled
        second = deployment.run_dfc_cycle()
        assert second.records_published == 0
        assert second.physical_bytes == first.physical_bytes

    def test_min_size_threshold(self):
        deployment = FarsiteDeployment(machine_count=8, replication_factor=1, seed=9)
        alice = deployment.create_user("alice")
        bob = deployment.create_user("bob")
        small = b"tiny" * 10
        host = list(deployment.nodes)[:1]
        deployment.client_for(alice).write_file("/a/s", small, replica_hosts=host)
        deployment.client_for(bob).write_file("/b/s", small, replica_hosts=host)
        report = deployment.run_dfc_cycle(min_size=10_000)
        assert report.records_published == 0


class TestDeploymentsShareNothing:
    def test_equal_seeds_give_equal_receipts_and_cycles(self):
        """Two deployments in one process number their files independently."""

        def run():
            deployment = FarsiteDeployment(machine_count=16, replication_factor=2, seed=5)
            receipts = []
            for name in ("ana", "ben"):
                client = deployment.client_for(deployment.create_user(name))
                receipts.append(client.write_file(f"/home/{name}/doc.txt", DOCUMENT))
                receipts.append(client.write_file(f"/home/{name}/tool.bin", OTHER))
            report = deployment.run_dfc_cycle()
            deployment.salad.shutdown()
            return receipts, report

        first_receipts, first_report = run()
        second_receipts, second_report = run()
        assert second_receipts == first_receipts
        assert second_report == first_report
        assert first_report.migrations >= 1


class TestLiveness:
    def test_a_failed_node_leaves_the_engine_alive_list(self):
        deployment = FarsiteDeployment(machine_count=16, seed=3)
        salad = deployment.salad
        victim = next(iter(deployment.nodes.values()))
        victim.fail()
        assert salad.alive_count() == 15
        assert victim not in salad.alive_leaves()
        victim.recover()
        assert salad.alive_count() == 16

    def test_a_file_on_failed_nodes_cannot_be_read(self):
        deployment = FarsiteDeployment(machine_count=16, seed=3)
        client = deployment.client_for(deployment.create_user("ana"))
        receipt = client.write_file("/home/ana/doc.txt", DOCUMENT)
        assert len(receipt.replica_hosts) == 3
        for host_id in receipt.replica_hosts:
            deployment.nodes[host_id].fail()
        with pytest.raises(NoReplicaAvailableError):
            client.read_file("/home/ana/doc.txt")
        deployment.nodes[receipt.replica_hosts[-1]].recover()
        assert client.read_file("/home/ana/doc.txt") == DOCUMENT

    def test_a_write_places_no_replica_on_a_failed_node(self):
        deployment = FarsiteDeployment(machine_count=8, seed=3)
        down = sorted(deployment.nodes)[:4]
        for host_id in down:
            deployment.nodes[host_id].fail()
        client = deployment.client_for(deployment.create_user("ana"))
        for index in range(12):
            receipt = client.write_file(f"/home/ana/{index}.txt", DOCUMENT + bytes([index]))
            assert not set(receipt.replica_hosts) & set(down)
        assert all(len(deployment.nodes[host_id].host) == 0 for host_id in down)
        with pytest.raises(HostDownError):
            client.write_file("/home/ana/pinned.txt", DOCUMENT, replica_hosts=down[:1])

    def test_a_migration_to_a_down_target_waits_for_its_recovery(self):
        deployment = TestRelocationRefusesForeignBytes._written()
        plan = deployment.planner.plan
        taken = []

        def plan_then_fail_a_target(groups):
            # The target goes down after discovery, before the moves.
            result = plan(groups)
            if not taken:
                taken.append(next(m for m in result.migrations if not m.copy))
                deployment.nodes[taken[0].target_host].fail()
            return result

        deployment.planner.plan = plan_then_fail_a_target
        deployment.run_dfc_cycle()
        (move,) = taken
        source = deployment.nodes[move.source_host].host
        target = deployment.nodes[move.target_host]
        assert source.replica_info(move.file_id) is not None
        assert target.host.replica_info(move.file_id) is None
        registry = MetricsRegistry()
        deployment.collect_metrics(registry)
        assert registry.counter_value("farsite.relocation.deferred") >= 1

        target.recover()
        deployment.run_dfc_cycle()
        assert source.replica_info(move.file_id) is None
        assert target.host.fetch_replica(move.file_id).data

    def test_a_cycle_reports_only_the_moves_it_made(self):
        deployment = TestRelocationRefusesForeignBytes._written()
        plan = deployment.planner.plan
        planned = []

        def plan_then_fail_a_target(groups):
            result = plan(groups)
            if not planned:
                move = next(m for m in result.migrations if not m.copy)
                deployment.nodes[move.target_host].fail()
            planned.append(result)
            return result

        deployment.planner.plan = plan_then_fail_a_target
        first = deployment.run_dfc_cycle()
        assert planned[0].moved_replicas == 4
        assert first.migrations == 2
        assert first.bytes_moved == 2 * len(DOCUMENT)
        for node in deployment.nodes.values():
            if not node.alive:
                node.recover()
        second = deployment.run_dfc_cycle()
        assert second.migrations == 2
        assert first.migrations + second.migrations == planned[0].moved_replicas


class TestRelocationStoresBeforeDropping:
    def test_a_failed_store_keeps_the_source_replica(self, monkeypatch):
        deployment = FarsiteDeployment(machine_count=16, replication_factor=2, seed=3)
        for name in ("ana", "ben", "cho"):
            client = deployment.client_for(deployment.create_user(name))
            client.write_file(f"/home/{name}/doc.txt", DOCUMENT)
        namespace = deployment.namespace
        held = {
            (identifier, entry.file_id)
            for entry in map(namespace.lookup, namespace.all_paths())
            for identifier in entry.replica_hosts
        }

        def refuse(file_id, ciphertext, expected=None):
            raise OSError("target disk full")

        for node in deployment.nodes.values():
            monkeypatch.setattr(node.host, "store_replica", refuse)
        with pytest.raises(OSError):
            deployment.run_dfc_cycle()
        for identifier, file_id in held:
            host = deployment.nodes[identifier].host
            assert host.replica_info(file_id) is not None
            assert host.fetch_replica(file_id).data


class TestRelocationRefusesForeignBytes:
    @staticmethod
    def _written():
        deployment = FarsiteDeployment(machine_count=16, replication_factor=2, seed=3)
        for name in ("ana", "ben", "cho"):
            client = deployment.client_for(deployment.create_user(name))
            client.write_file(f"/home/{name}/doc.txt", DOCUMENT)
        return deployment

    @staticmethod
    def _recording_plans(deployment):
        plans = []
        plan = deployment.planner.plan
        deployment.planner.plan = lambda groups: plans.append(plan(groups)) or plans[-1]
        return plans

    def test_tampered_replica_stays_where_it_was(self):
        # A same-seed twin shows which replica the cycle's plan moves.
        twin = self._written()
        twin_plans = self._recording_plans(twin)
        twin.run_dfc_cycle()
        move = next(m for m in twin_plans[0].migrations if not m.copy)

        deployment = self._written()
        plans = self._recording_plans(deployment)
        source = deployment.nodes[move.source_host].host
        tampered = b"bytes that are not the group's content"
        source.sis.store(move.file_id, tampered)
        deployment.run_dfc_cycle()

        assert move in plans[0].migrations
        target = deployment.nodes[move.target_host].host
        if target.replica_info(move.file_id) is not None:
            assert target.fetch_replica(move.file_id).data != tampered
        assert source.fetch_replica(move.file_id).data == tampered
        (entry,) = [
            entry
            for entry in map(deployment.namespace.lookup, deployment.namespace.all_paths())
            if entry.file_id == move.file_id
        ]
        assert move.source_host in entry.replica_hosts
        assert move.target_host not in entry.replica_hosts
        registry = MetricsRegistry()
        deployment.collect_metrics(registry)
        assert registry.counter_value("farsite.relocation.refused") == 1
