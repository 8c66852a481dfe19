"""Failure injection and crash-recovery measurement.

Fig. 8 of the paper "tested the resilience of the DFC system to machine
failure by randomly failing the simulated machines" and plotting consumed
space versus the machine failure probability.  That model is a duty cycle,
not a crash: :meth:`repro.experiments.dfc_run.DfcRun.set_failure_probability`
loses each message with probability p.  This module holds the crash-stop
models: :func:`fail_exact_fraction` permanently crashes an exact fraction
of machines (a harsher ablation), and :class:`ChurnSchedule` drives
join/leave churn over virtual time for the maintenance protocols (sections
4.4-4.5).

:class:`CrashRecoveryHarness` extends the crash-stop model to the record
*databases*: with the durable backend (``--db-backend wal``), killing a
machine mid-run abandons its store without flushing (exactly what a process
crash does), and rejoining reopens the same backing file and recovers every
record that had reached disk.  The harness measures the recovered fraction
against the store's own durability prediction (records minus the unflushed
tail), which is the floor the recovery must meet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine


def fail_exact_fraction(
    machines: Sequence[SimMachine],
    fraction: float,
    rng: random.Random,
) -> List[SimMachine]:
    """Crash an exact fraction of machines, chosen uniformly at random.

    Lower-variance variant used when sweeping failure rates with few
    machines, so each sweep point reflects its nominal rate.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"failure fraction must be in [0,1]: {fraction}")
    count = round(len(machines) * fraction)
    failed = rng.sample(list(machines), count)
    for machine in failed:
        machine.fail()
    return failed


@dataclass
class ChurnEvent:
    """One scheduled churn action."""

    time: float
    action: str  # "fail" | "recover" | "depart"
    machine: SimMachine


class ChurnSchedule:
    """Drives scheduled machine failures/recoveries/departures over time."""

    def __init__(self, scheduler: EventScheduler):
        self.scheduler = scheduler
        self.history: List[ChurnEvent] = []

    def _apply(self, event: ChurnEvent) -> None:
        if event.action == "fail":
            event.machine.fail()
        elif event.action == "recover":
            event.machine.recover()
        elif event.action == "depart":
            event.machine.depart()
        else:
            raise ValueError(f"unknown churn action {event.action!r}")
        self.history.append(event)

    def at(self, time: float, action: str, machine: SimMachine) -> None:
        """Schedule one churn action at absolute virtual time."""
        event = ChurnEvent(time=time, action=action, machine=machine)
        self.scheduler.schedule_at(time, lambda: self._apply(event))

    def poisson_failures(
        self,
        machines: Sequence[SimMachine],
        rate: float,
        horizon: float,
        rng: random.Random,
        recover_after: float = 0.0,
    ) -> int:
        """Schedule memoryless failures at *rate* per machine per time unit.

        If *recover_after* is positive, each failure is followed by recovery
        after that delay (a temporarily-off desktop rather than a dead one).
        The *horizon* is measured from the scheduler's current virtual time.
        Returns the number of failures scheduled.
        """
        scheduled = 0
        start = self.scheduler.now
        for machine in machines:
            t = start
            while True:
                t += rng.expovariate(rate)
                if t >= start + horizon:
                    break
                self.at(t, "fail", machine)
                scheduled += 1
                if recover_after > 0:
                    self.at(t + recover_after, "recover", machine)
        return scheduled


# ----------------------------------------------------------------------------
# correlated replica-set loss
# ----------------------------------------------------------------------------


def set_down_probability(hosts: Sequence[int], availability: Dict[int, float]) -> float:
    """P(every host in the set is down) for failure-independent machines.

    The analytic loss-event probability for one file: its data is gone
    exactly when all replica hosts are down, so this is the complement of
    ``file_availability`` (kept local to the sim layer -- no farsite import).
    """
    down = 1.0
    for host in hosts:
        down *= 1.0 - availability[host]
    return down


@dataclass
class ReplicaLossReport:
    """Measured vs. analytic data loss after a correlated host outage."""

    dead_hosts: Tuple[int, ...]
    #: Files whose replica sets are entirely within the dead hosts
    #: (the analytic prediction of what the outage destroys).
    files_at_risk: int
    #: Files that actually have zero live replicas (the measurement; must
    #: equal files_at_risk -- any gap is a bookkeeping bug).
    files_lost: int
    total_files: int
    #: P(this exact outage) under the availability model: every dead host
    #: down at once, independent machines.
    loss_event_probability: float

    @property
    def lost_fraction(self) -> float:
        return self.files_lost / self.total_files if self.total_files else 0.0


def measure_replica_loss(
    replica_hosts: Dict[str, Sequence[int]],
    dead_hosts: Iterable[int],
    availability: Dict[int, float],
) -> ReplicaLossReport:
    """Count files with no surviving replica after *dead_hosts* crash.

    *replica_hosts* maps each file id to its current replica hosts (the
    DFC pipeline's post-relocation state).  A file is *at risk* when its
    replica set is a subset of the dead hosts and *lost* when it has no
    live replica -- identical predicates, computed independently so the
    report cross-checks the replica bookkeeping.
    """
    dead = frozenset(dead_hosts)
    at_risk = sum(1 for hosts in replica_hosts.values() if set(hosts) <= dead)
    lost = sum(
        1
        for hosts in replica_hosts.values()
        if not any(h not in dead for h in hosts)
    )
    return ReplicaLossReport(
        dead_hosts=tuple(sorted(dead)),
        files_at_risk=at_risk,
        files_lost=lost,
        total_files=len(replica_hosts),
        loss_event_probability=set_down_probability(sorted(dead), availability),
    )


# ----------------------------------------------------------------------------
# database crash recovery
# ----------------------------------------------------------------------------


@dataclass
class CrashedLeaf:
    """What the harness remembers about one crashed machine's database."""

    records_before: int  # live records at the instant of the crash
    records_durable: int  # of those, records that had reached disk
    recovered: Optional[int] = None  # live records after reopening, once rejoined


@dataclass
class CrashRecoveryReport:
    """Aggregate outcome of one crash-and-rejoin cycle."""

    crashed_leaves: int
    records_before: int
    records_durable: int
    records_recovered: int
    per_leaf: Dict[int, CrashedLeaf] = field(default_factory=dict)

    @property
    def recovered_fraction(self) -> float:
        """Fraction of pre-crash records the rejoined stores actually hold."""
        return self.records_recovered / self.records_before if self.records_before else 1.0

    @property
    def predicted_fraction(self) -> float:
        """The durability prediction: records that had reached disk pre-crash.

        Recovery must restore at least this fraction -- a flushed record can
        only be lost to real corruption, which replay detects and bounds to
        the torn tail.
        """
        return self.records_durable / self.records_before if self.records_before else 1.0


class CrashRecoveryHarness:
    """Kill machines mid-run, then rejoin them from their on-disk stores.

    Usage::

        harness = CrashRecoveryHarness()
        harness.crash(leaves)           # leaf.fail() + database.crash()
        ... rest of the run proceeds without them ...
        report = harness.rejoin()       # reopen stores, leaf.recover()

    ``crash`` abandons each leaf's store *without* flushing, so the unsynced
    tail (``pending_records``) is genuinely lost -- for the memory backend
    that is everything, for the WAL store the unwritten buffer.  ``rejoin``
    reopens each durable store from its backing file under the same byte
    budget (replaying the WAL, with any torn tail dropped), reattaches it to
    the leaf, and marks the machine alive again.
    """

    def __init__(self) -> None:
        self._crashed: List[Tuple[object, CrashedLeaf]] = []
        # Lifetime totals across every crash/rejoin cycle, harvested into
        # the metrics registry by collect_metrics().
        self.total_crashed_leaves = 0
        self.total_rejoins = 0
        self.total_records_before = 0
        self.total_records_durable = 0
        self.total_records_recovered = 0

    def collect_metrics(self, registry) -> None:
        """Harvest lifetime crash/recovery totals into *registry*."""
        registry.counter("sim.crash.leaves_crashed").inc(self.total_crashed_leaves)
        registry.counter("sim.crash.rejoin_cycles").inc(self.total_rejoins)
        registry.counter("sim.crash.records_before").inc(self.total_records_before)
        registry.counter("sim.crash.records_durable").inc(self.total_records_durable)
        registry.counter("sim.crash.records_recovered").inc(
            self.total_records_recovered
        )

    def crash_replica_sets(
        self,
        leaves_by_id: Dict[int, object],
        replica_sets: Iterable[Sequence[int]],
    ) -> List[CrashedLeaf]:
        """Crash every host of each given replica set (deduplicated union).

        The adversarial counterpart to :func:`fail_exact_fraction`: instead
        of a uniformly random choice, kill *all* R hosts holding some file's
        replicas -- the exact correlated outage that makes dedup's
        co-location risky (one duplicate group's canonical set going down
        takes the whole group with it).  Hosts appearing in several sets
        crash once.  Returns the per-leaf snapshots, like :meth:`crash`.
        """
        union: List[int] = []
        seen = set()
        for hosts in replica_sets:
            for host in hosts:
                if host not in seen:
                    seen.add(host)
                    union.append(host)
        return self.crash([leaves_by_id[host] for host in union])

    def crash(self, leaves: Iterable) -> List[CrashedLeaf]:
        """Crash-stop each leaf and abandon its database without flushing."""
        snapshots = []
        for leaf in leaves:
            store = leaf.database
            info = CrashedLeaf(
                records_before=len(store),
                records_durable=len(store) - store.pending_records,
            )
            store.crash()
            leaf.fail()
            self._crashed.append((leaf, info))
            snapshots.append(info)
            self.total_crashed_leaves += 1
            self.total_records_before += info.records_before
            self.total_records_durable += info.records_durable
        return snapshots

    def rejoin(self) -> CrashRecoveryReport:
        """Reopen every crashed leaf's store from disk and bring it back up."""
        report = CrashRecoveryReport(
            crashed_leaves=len(self._crashed),
            records_before=0,
            records_durable=0,
            records_recovered=0,
        )
        for leaf, info in self._crashed:
            leaf.database = self._reopen(leaf.database)
            leaf.recover()
            info.recovered = len(leaf.database)
            report.records_before += info.records_before
            report.records_durable += info.records_durable
            report.records_recovered += info.recovered
            report.per_leaf[leaf.identifier] = info
        self._crashed.clear()
        self.total_rejoins += 1
        self.total_records_recovered += report.records_recovered
        return report

    @staticmethod
    def _reopen(store):
        """A fresh store over the same backing file (empty for memory)."""
        if store.path is None:
            return type(store)(capacity=store.capacity)
        return type(store)(
            store.path, capacity=store.capacity, budget_bytes=store.budget_bytes
        )
