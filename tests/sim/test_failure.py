"""Failure injection helpers."""

import random

import pytest

from repro.sim.events import EventScheduler
from repro.sim.failure import ChurnSchedule, fail_exact_fraction
from repro.sim.machine import SimMachine
from repro.sim.network import Network
from tests.store_modes import DURABLE, engine_budget


def make_machines(count):
    net = Network(EventScheduler())
    return [SimMachine(i + 1, net) for i in range(count)], net


class TestFailExactFraction:
    def test_exact_count(self):
        machines, _ = make_machines(40)
        failed = fail_exact_fraction(machines, 0.25, random.Random(2))
        assert len(failed) == 10
        assert sum(1 for m in machines if not m.alive) == 10

    def test_deterministic_for_seed(self):
        machines_a, _ = make_machines(10)
        machines_b, _ = make_machines(10)
        failed_a = fail_exact_fraction(machines_a, 0.5, random.Random(3))
        failed_b = fail_exact_fraction(machines_b, 0.5, random.Random(3))
        assert [m.identifier for m in failed_a] == [m.identifier for m in failed_b]


class TestChurnSchedule:
    def test_scheduled_fail_and_recover(self):
        machines, net = make_machines(1)
        churn = ChurnSchedule(net.scheduler)
        churn.at(1.0, "fail", machines[0])
        churn.at(2.0, "recover", machines[0])
        net.scheduler.run(until=1.5)
        assert not machines[0].alive
        net.scheduler.run()
        assert machines[0].alive
        assert [e.action for e in churn.history] == ["fail", "recover"]

    def test_depart_removes_from_network(self):
        machines, net = make_machines(1)
        churn = ChurnSchedule(net.scheduler)
        churn.at(1.0, "depart", machines[0])
        net.scheduler.run()
        # A departed machine is deregistered: a message to it is dropped.
        net.send(0, machines[0].identifier, "ping", None)
        net.run()
        assert net.messages_dropped == 1

    def test_unknown_action_rejected(self):
        machines, net = make_machines(1)
        churn = ChurnSchedule(net.scheduler)
        churn.at(1.0, "explode", machines[0])
        with pytest.raises(ValueError):
            net.scheduler.run()

    def test_poisson_failures_rate(self):
        machines, net = make_machines(50)
        churn = ChurnSchedule(net.scheduler)
        scheduled = churn.poisson_failures(
            machines, rate=0.1, horizon=100.0, rng=random.Random(5)
        )
        # Expect ~50 machines * 0.1 * 100 = 500 failures, +-4 sigma.
        assert 400 < scheduled < 600


class TestCrashRecoveryHarness:
    """Kill machines mid-run, rejoin from disk, measure the recovered fraction."""

    @staticmethod
    def _populated_salad(backend, db_dir, leaves=8, records_per_leaf=60, seed=7):
        from repro.core.fingerprint import synthetic_fingerprint
        from repro.salad.records import SaladRecord
        from repro.salad.salad import Salad, SaladConfig

        salad = Salad(SaladConfig(seed=seed, db_backend=backend, db_dir=db_dir))
        members = [salad.add_leaf() for _ in range(leaves)]
        rng = random.Random(seed)
        batches = {
            leaf.identifier: [
                SaladRecord(
                    fingerprint=synthetic_fingerprint(
                        rng.randrange(1, 1 << 20), rng.randrange(1 << 30)
                    ),
                    location=leaf.identifier,
                )
                for _ in range(records_per_leaf)
            ]
            for leaf in members
        }
        salad.insert_records(batches)
        return salad, members

    @pytest.mark.parametrize(
        "mode, compacted",
        [
            *(pytest.param(mode, False, id=mode) for mode in DURABLE),
            # The settled log is rewritten as a snapshot before the crash,
            # so recovery replays the compacted file, not the original log.
            *(pytest.param(mode, True, id=f"snapshot-{mode}") for mode in DURABLE),
        ],
    )
    def test_durable_backends_recover_all_settled_records(
        self, mode, compacted, tmp_path, monkeypatch
    ):
        from repro.sim.failure import CrashRecoveryHarness

        engine_budget(monkeypatch, mode)
        salad, members = self._populated_salad("wal", tmp_path)
        victims = members[:3]
        if compacted:
            for leaf in victims:
                leaf.database.compact()
                assert leaf.database.compactions == 1
        before = {leaf.identifier: len(leaf.database) for leaf in victims}
        harness = CrashRecoveryHarness()
        harness.crash(victims)
        assert all(not leaf.alive for leaf in victims)
        report = harness.rejoin()
        assert all(leaf.alive for leaf in victims)
        # insert_records settled, so every record had reached disk: the
        # durability prediction is 100% and recovery must meet it.
        assert report.records_before == sum(before.values()) > 0
        assert report.predicted_fraction == 1.0
        assert report.recovered_fraction == 1.0
        assert report.records_recovered >= report.records_durable
        for leaf in victims:
            assert len(leaf.database) == before[leaf.identifier]
        salad.close_databases()

    @pytest.mark.parametrize("mode", DURABLE)
    def test_unflushed_tail_is_lost_but_prediction_still_met(
        self, mode, tmp_path, monkeypatch
    ):
        from repro.core.fingerprint import synthetic_fingerprint
        from repro.salad.records import SaladRecord
        from repro.sim.failure import CrashRecoveryHarness

        engine_budget(monkeypatch, mode)
        salad, members = self._populated_salad("wal", tmp_path)
        victim = members[0]
        settled = len(victim.database)
        rng = random.Random(99)
        for _ in range(10):  # direct inserts: applied but never flushed
            victim.database.insert(
                SaladRecord(
                    fingerprint=synthetic_fingerprint(
                        rng.randrange(1, 1 << 20), rng.randrange(1 << 30)
                    ),
                    location=victim.identifier,
                )
            )
        harness = CrashRecoveryHarness()
        (info,) = harness.crash([victim])
        assert info.records_before == settled + 10
        report = harness.rejoin()
        assert report.records_recovered == settled
        assert report.records_recovered >= report.records_durable
        assert 0.0 < report.predicted_fraction < 1.0
        salad.close_databases()

    def test_memory_backend_recovers_nothing(self, tmp_path):
        from repro.sim.failure import CrashRecoveryHarness

        salad, members = self._populated_salad("memory", tmp_path)
        harness = CrashRecoveryHarness()
        harness.crash(members[:2])
        report = harness.rejoin()
        assert report.records_before > 0
        assert report.records_recovered == 0
        assert report.predicted_fraction == 0.0
        assert report.records_recovered >= report.records_durable  # 0 >= 0

    def test_rejoined_leaf_serves_inserts_again(self, tmp_path):
        from repro.sim.failure import CrashRecoveryHarness

        salad, members = self._populated_salad("wal", tmp_path)
        victim = members[0]
        harness = CrashRecoveryHarness()
        harness.crash([victim])
        harness.rejoin()
        salad.network.run()
        sizes = salad.database_sizes(alive_only=True)
        assert len(sizes) == len(members)
        salad.close_databases()


class TestReplicaSetKill:
    """Correlated outages: crash every host of a file's replica set."""

    def test_crash_replica_sets_kills_union_once(self, tmp_path):
        from repro.sim.failure import CrashRecoveryHarness

        salad, members = TestCrashRecoveryHarness._populated_salad("wal", tmp_path)
        ids = [leaf.identifier for leaf in members]
        harness = CrashRecoveryHarness()
        # Overlapping sets: host ids[1] appears in both, crashes once.
        snapshots = harness.crash_replica_sets(
            salad.leaves, [[ids[0], ids[1]], [ids[1], ids[2]]]
        )
        assert len(snapshots) == 3
        assert harness.total_crashed_leaves == 3
        for identifier in ids[:3]:
            assert not salad.leaves[identifier].alive
        for identifier in ids[3:]:
            assert salad.leaves[identifier].alive
        report = harness.rejoin()
        assert report.crashed_leaves == 3
        assert report.records_recovered >= report.records_durable
        salad.close_databases()

    def test_measured_loss_equals_analytic_prediction(self):
        from repro.sim.failure import measure_replica_loss

        availability = {1: 0.5, 2: 0.8, 3: 0.9}
        replica_hosts = {
            "doomed": [1, 2],  # entirely inside the outage
            "grazed": [2, 3],  # one survivor on host 3
            "safe": [3],
        }
        report = measure_replica_loss(replica_hosts, [1, 2], availability)
        assert report.files_at_risk == 1
        assert report.files_lost == 1
        assert report.lost_fraction == pytest.approx(1 / 3)
        # P(both dead hosts down) = (1-0.5)(1-0.8) = 0.1
        assert report.loss_event_probability == pytest.approx(0.1)

    def test_set_down_probability_is_complement_of_file_availability(self):
        from repro.farsite.placement import file_availability
        from repro.sim.failure import set_down_probability

        availability = {1: 0.35, 2: 0.72, 3: 0.91}
        hosts = [1, 2, 3]
        assert set_down_probability(hosts, availability) == pytest.approx(
            1.0 - file_availability(hosts, availability)
        )

    def test_kill_during_churn_with_durable_recovery(self, tmp_path, monkeypatch):
        """Crash a replica set mid-churn; recovery must meet the prediction."""
        from repro.sim.failure import CrashRecoveryHarness

        engine_budget(monkeypatch, "wal-paged")
        salad, members = TestCrashRecoveryHarness._populated_salad("wal", tmp_path)
        kill_set = [leaf.identifier for leaf in members[:2]]
        before = sum(len(salad.leaves[i].database) for i in kill_set)
        harness = CrashRecoveryHarness()
        harness.crash_replica_sets(salad.leaves, [kill_set])
        # Churn while the set is down: new leaves join the SALAD.
        for _ in range(2):
            salad.add_leaf()
        report = harness.rejoin()
        assert report.records_before == before > 0
        # insert_records settled pre-crash, so everything was durable.
        assert report.predicted_fraction == 1.0
        assert report.recovered_fraction == 1.0
        assert report.records_recovered >= report.records_durable
        salad.close_databases()
