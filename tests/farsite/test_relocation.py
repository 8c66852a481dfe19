"""Duplicate-replica relocation planning."""

from repro.core.fingerprint import synthetic_fingerprint
from repro.farsite.relocation import Migration, RelocationPlan, RelocationPlanner, duplicate_groups
from repro.salad.protocol import MatchPayload


FP = synthetic_fingerprint(10_000, 1)
FP2 = synthetic_fingerprint(20_000, 2)


class TestPlanning:
    def test_disjoint_hosts_migrate_to_common_set(self):
        planner = RelocationPlanner(replication_factor=2)
        plan = planner.plan({FP: {"a": [1, 2], "b": [3, 4]}})
        assert plan.moved_replicas == 2
        canonical = set(plan.canonical_hosts[FP])
        for migration in plan.migrations:
            assert migration.target_host in canonical

    def test_already_colocated_needs_no_moves(self):
        planner = RelocationPlanner(replication_factor=2)
        plan = planner.plan({FP: {"a": [1, 2], "b": [1, 2]}})
        assert plan.moved_replicas == 0

    def test_canonical_hosts_maximize_existing_coverage(self):
        planner = RelocationPlanner(replication_factor=2)
        # Hosts 1 and 2 already hold most replicas; they should be chosen.
        plan = planner.plan({FP: {"a": [1, 2], "b": [1, 2], "c": [1, 5]}})
        assert set(plan.canonical_hosts[FP]) == {1, 2}
        assert plan.moved_replicas == 1  # only c's replica on 5 moves to 2

    def test_multiple_groups_planned_independently(self):
        planner = RelocationPlanner(replication_factor=1)
        plan = planner.plan(
            {
                FP: {"a": [1], "b": [2]},
                FP2: {"c": [3], "d": [3]},
            }
        )
        assert FP in plan.canonical_hosts and FP2 in plan.canonical_hosts
        assert plan.moved_replicas == 1  # only the FP group needs one move

    def test_bytes_moved(self):
        planner = RelocationPlanner(replication_factor=1)
        plan = planner.plan({FP: {"a": [1], "b": [2]}})
        assert plan.bytes_moved() == FP.size * plan.moved_replicas


class TestUnderReplication:
    """Files with fewer replicas than the canonical set is wide.

    The pre-fix planner paired extra sources with missing targets via a
    bare ``zip``: a file holding fewer replicas than R canonical hosts had
    leftover *targets* silently dropped, leaving it under-replicated after
    relocation and never delivering its content to the full canonical set.
    """

    def test_under_replicated_file_reaches_full_canonical_set(self):
        planner = RelocationPlanner(replication_factor=2)
        # "a" pins the canonical set to {1, 2}; "b" holds one replica on 5:
        # its single extra source pairs with one canonical host, and the
        # other canonical host must receive a *copy* (pre-fix: dropped).
        plan = planner.plan({FP: {"a": [1, 2], "b": [5]}})
        replica_hosts = {"a": [1, 2], "b": [5]}
        planner.apply(plan, replica_hosts, lambda migration: True)
        canonical = set(plan.canonical_hosts[FP])
        assert canonical == {1, 2}
        assert set(replica_hosts["b"]) == canonical
        assert plan.moved_replicas == 1
        assert plan.copied_replicas == 1

    def test_copy_sourced_from_a_replica_the_file_keeps(self):
        planner = RelocationPlanner(replication_factor=3)
        plan = planner.plan({FP: {"a": [1, 2, 3], "b": [1]}})
        copies = [m for m in plan.migrations if m.copy]
        assert len(copies) == 2  # b reaches hosts 2 and 3
        final = {1}
        for m in plan.migrations:
            if m.file_id == "b":
                if not m.copy:
                    final.discard(m.source_host)
                # Copies must read from a host that still has the replica.
                if m.copy:
                    assert m.source_host in final
                final.add(m.target_host)
        assert final == set(plan.canonical_hosts[FP])

    def test_apply_handles_copies_without_value_error(self):
        planner = RelocationPlanner(replication_factor=2)
        replica_hosts = {"a": [1, 2], "b": [1]}
        plan = planner.plan({FP: {k: list(v) for k, v in replica_hosts.items()}})
        # A move-style apply would hosts.remove() the copy's source -- a
        # replica the file keeps -- leaving it off its own canonical set.
        planner.apply(plan, replica_hosts, lambda migration: True)
        assert set(replica_hosts["b"]) == set(plan.canonical_hosts[FP])
        assert 1 in replica_hosts["b"]  # the copy's source replica survives

    def test_group_spanning_fewer_hosts_than_r_records_shortfall(self):
        planner = RelocationPlanner(replication_factor=3)
        # Both files live solely on host 1: no migration can conjure two
        # more distinct hosts, so the plan must say so explicitly.
        plan = planner.plan({FP: {"a": [1], "b": [1]}})
        assert plan.shortfalls == {FP: 2}
        assert plan.total_shortfall({FP: 2}) == 4  # 2 files x 2 missing slots
        assert plan.migrations == []

    def test_full_groups_report_no_shortfall(self):
        planner = RelocationPlanner(replication_factor=2)
        plan = planner.plan({FP: {"a": [1, 2], "b": [3, 4]}})
        assert plan.shortfalls == {}
        assert plan.total_shortfall({FP: 2}) == 0


class TestApply:
    def test_apply_updates_host_map(self):
        planner = RelocationPlanner(replication_factor=2)
        replica_hosts = {"a": [1, 2], "b": [3, 4]}
        plan = planner.plan({FP: {k: list(v) for k, v in replica_hosts.items()}})
        planner.apply(plan, replica_hosts, lambda migration: True)
        canonical = set(plan.canonical_hosts[FP])
        assert set(replica_hosts["a"]) == canonical
        assert set(replica_hosts["b"]) == canonical

    def test_a_move_drops_its_source(self):
        move = Migration("a", FP, source_host=1, target_host=3)
        replica_hosts = {"a": [1, 2]}
        plan = RelocationPlan(canonical_hosts={}, migrations=[move])
        applied = RelocationPlanner().apply(plan, replica_hosts, lambda m: True)
        assert applied == [move]
        assert replica_hosts == {"a": [2, 3]}

    def test_a_copy_keeps_its_source(self):
        copy = Migration("a", FP, source_host=1, target_host=3, copy=True)
        replica_hosts = {"a": [1, 2]}
        plan = RelocationPlan(canonical_hosts={}, migrations=[copy])
        assert RelocationPlanner().apply(plan, replica_hosts, lambda m: True) == [copy]
        assert replica_hosts == {"a": [1, 2, 3]}

    def test_a_refused_transfer_leaves_the_map_and_is_not_returned(self):
        refused = Migration("a", FP, source_host=1, target_host=3)
        taken = Migration("b", FP, source_host=4, target_host=3)
        replica_hosts = {"a": [1, 2], "b": [4, 2]}
        plan = RelocationPlan(canonical_hosts={}, migrations=[refused, taken])
        seen = []

        def transfer(migration):
            seen.append(migration)
            return migration is not refused

        assert RelocationPlanner().apply(plan, replica_hosts, transfer) == [taken]
        assert seen == [refused, taken]
        assert replica_hosts == {"a": [1, 2], "b": [2, 3]}

    def test_invalid_replication_factor(self):
        import pytest

        with pytest.raises(ValueError):
            RelocationPlanner(replication_factor=0)


def _match(machine, other, fingerprint=FP):
    return machine, MatchPayload(fingerprint=fingerprint, other_machine=other)


class TestDuplicateGroups:
    def test_a_file_whose_only_publisher_got_no_match_stays_out(self):
        groups = duplicate_groups(
            [_match(10, 11)],
            [("a", FP, [1], (10,)), ("b", FP, [2], (11,)), ("c", FP, [3], (12,))],
        )
        assert groups == {FP: {"a": [1], "b": [2]}}

    def test_one_matched_replica_host_brings_its_file_in(self):
        groups = duplicate_groups(
            [_match(10, 7)],
            [("a", FP, [5, 6, 7], (5, 6, 7)), ("b", FP, [10], (10,))],
        )
        assert groups == {FP: {"a": [5, 6, 7], "b": [10]}}

    def test_a_match_counts_only_for_its_own_fingerprint(self):
        groups = duplicate_groups(
            [_match(10, 11)],
            [("a", FP2, [1], (10,)), ("b", FP2, [2], (11,))],
        )
        assert groups == {}

    def test_a_singleton_group_is_dropped(self):
        groups = duplicate_groups(
            [_match(10, 11), _match(20, 21, FP2)],
            [("a", FP, [1], (10,)), ("b", FP, [2], (11,)), ("c", FP2, [3], (20,))],
        )
        assert groups == {FP: {"a": [1], "b": [2]}}
