"""File-replica placement (paper problem 3 substrate; Douceur-Wattenhofer [14]).

Farsite places R replicas of each file on machines with heterogeneous
availability; the placement goal of [14] is to maximize the worst-case (and
mean) file availability.  We implement the swap-based hill-climbing strategy
from that line of work:

1. start from a capacity-respecting greedy placement;
2. repeatedly *swap* replicas between the currently most-available and
   least-available files when doing so raises the minimum file availability.

File availability for failure-independent machines is
``1 - prod(1 - a_i)`` over the replica hosts' availabilities ``a_i``
(a file is available if any replica host is up).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class PlacementProblem:
    """Machines with availabilities/capacities, files needing R replicas."""

    machine_availability: Dict[int, float]  # machine id -> uptime fraction
    machine_capacity: Dict[int, int]  # machine id -> replica slots
    file_ids: Sequence[str]
    replication_factor: int = 3

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError(
                f"replication factor must be >= 1: {self.replication_factor}"
            )
        for mid, a in self.machine_availability.items():
            # An availability outside (0, 1] (including NaN, which fails
            # every comparison) would make file_availability return
            # out-of-range probabilities and silently corrupt every
            # min/mean-availability figure downstream.
            if not 0.0 < a <= 1.0:
                raise ValueError(f"availability of {mid:#x} must be in (0,1]: {a}")
        for mid, slots in self.machine_capacity.items():
            if slots < 0:
                raise ValueError(f"capacity of {mid:#x} must be >= 0: {slots}")
            if mid not in self.machine_availability:
                raise ValueError(f"machine {mid:#x} has capacity but no availability")
        total_capacity = sum(self.machine_capacity.values())
        demand = len(self.file_ids) * self.replication_factor
        if demand > total_capacity:
            raise ValueError(
                f"demand {demand} replica slots exceeds capacity {total_capacity}"
            )


def file_availability(hosts: Sequence[int], availability: Dict[int, float]) -> float:
    """P(at least one replica host is up), failure-independent machines."""
    down = 1.0
    for host in hosts:
        down *= 1.0 - availability[host]
    return 1.0 - down


@dataclass
class Placement:
    """A replica assignment: file id -> machine identifiers."""

    assignment: Dict[str, Tuple[int, ...]]
    availability: Dict[int, float]

    def file_availabilities(self) -> Dict[str, float]:
        return {
            fid: file_availability(hosts, self.availability)
            for fid, hosts in self.assignment.items()
        }

    @property
    def min_availability(self) -> float:
        avail = self.file_availabilities()
        return min(avail.values()) if avail else 1.0

    @property
    def mean_availability(self) -> float:
        avail = self.file_availabilities()
        return sum(avail.values()) / len(avail) if avail else 1.0


def place_replicas(
    problem: PlacementProblem,
    rng: Optional[random.Random] = None,
    swap_rounds: int = 2000,
) -> Placement:
    """Greedy placement plus min-availability hill climbing."""
    rng = rng or random.Random(0)
    capacity = dict(problem.machine_capacity)
    availability = problem.machine_availability
    r = problem.replication_factor

    # Greedy: place each file on the R highest-availability machines with
    # free capacity, round-robin so early files don't hoard the good hosts.
    machines_by_avail = sorted(availability, key=lambda m: -availability[m])
    assignment: Dict[str, List[int]] = {}
    cursor = 0
    for fid in problem.file_ids:
        hosts: List[int] = []
        scanned = 0
        while len(hosts) < r and scanned < 2 * len(machines_by_avail):
            machine = machines_by_avail[cursor % len(machines_by_avail)]
            cursor += 1
            scanned += 1
            if capacity[machine] > 0 and machine not in hosts:
                capacity[machine] -= 1
                hosts.append(machine)
        if len(hosts) < r:
            # Fall back to any machine with capacity.
            for machine in machines_by_avail:
                if capacity[machine] > 0 and machine not in hosts:
                    capacity[machine] -= 1
                    hosts.append(machine)
                    if len(hosts) == r:
                        break
        if len(hosts) < r:
            raise RuntimeError(f"could not place {r} replicas of {fid}")
        assignment[fid] = hosts

    # Hill climbing: swap one replica between the min-availability file and
    # a random other file when that raises the minimum of the pair.  Only
    # the two swapped files' availabilities change per round, so the minimum
    # is kept, not searched for: a heap of (availability, position in fids)
    # receives the two new values after an accepted swap, and an entry whose
    # availability is no longer its file's is discarded when it surfaces.
    # The smallest tuple is the first file in list order among those of
    # least availability -- the file a scan of every file would return -- and
    # the RNG is drawn from as before, so the assignment is the scan's.
    fids = list(assignment)
    avail = [file_availability(assignment[fid], availability) for fid in fids]
    heap = [(a, position) for position, a in enumerate(avail)]
    heapq.heapify(heap)
    positions = range(len(fids))
    for _ in range(swap_rounds):
        if len(fids) < 2:
            break
        while heap[0][0] != avail[heap[0][1]]:
            heapq.heappop(heap)
        low = heap[0][1]
        high = rng.choice(positions)
        if high == low:
            continue
        low_fid, high_fid = fids[low], fids[high]
        improved = _try_swap(assignment[low_fid], assignment[high_fid], availability)
        if improved is not None:
            assignment[low_fid], assignment[high_fid] = improved
            for position in (low, high):
                avail[position] = file_availability(
                    assignment[fids[position]], availability
                )
                heapq.heappush(heap, (avail[position], position))

    return Placement(
        assignment={fid: tuple(hosts) for fid, hosts in assignment.items()},
        availability=dict(availability),
    )


def _try_swap(
    low_hosts: List[int],
    high_hosts: List[int],
    availability: Dict[int, float],
) -> Optional[Tuple[List[int], List[int]]]:
    """Best single host swap that raises min(pair availability), if any."""
    base = min(
        file_availability(low_hosts, availability),
        file_availability(high_hosts, availability),
    )
    best = None
    best_gain = 0.0
    for i, lo in enumerate(low_hosts):
        for j, hi in enumerate(high_hosts):
            if hi in low_hosts or lo in high_hosts:
                continue
            new_low = low_hosts[:i] + [hi] + low_hosts[i + 1 :]
            new_high = high_hosts[:j] + [lo] + high_hosts[j + 1 :]
            new_min = min(
                file_availability(new_low, availability),
                file_availability(new_high, availability),
            )
            gain = new_min - base
            if gain > best_gain:
                best_gain = gain
                best = (new_low, new_high)
    return best
