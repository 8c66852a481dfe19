"""Property tests: availability-driven replica placement invariants.

Whatever the availabilities, capacities, and RNG seed, a placement must
(a) give every file exactly R distinct hosts and (b) never exceed any
machine's replica-slot capacity -- the two invariants the DFC pipeline's
replication stage leans on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farsite.placement import PlacementProblem, file_availability, place_replicas


@st.composite
def problems(draw):
    machines = draw(st.integers(min_value=2, max_value=12))
    r = draw(st.integers(min_value=1, max_value=machines))
    files = draw(st.integers(min_value=0, max_value=16))
    availability = {
        m: draw(
            st.floats(
                min_value=0.05, max_value=1.0, allow_nan=False, allow_infinity=False
            )
        )
        for m in range(machines)
    }
    # Uniform capacity with enough total slots for the demand, plus the
    # slack the hill climb needs to move replicas around.
    slots = -(-files * r // machines) + r
    capacity = {m: slots for m in range(machines)}
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return (
        PlacementProblem(
            machine_availability=availability,
            machine_capacity=capacity,
            file_ids=[f"f{i}" for i in range(files)],
            replication_factor=r,
        ),
        seed,
    )


class TestPlacementProperties:
    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_every_file_gets_exactly_r_distinct_hosts(self, case):
        problem, seed = case
        placement = place_replicas(problem, rng=random.Random(seed), swap_rounds=100)
        r = problem.replication_factor
        assert set(placement.assignment) == set(problem.file_ids)
        for hosts in placement.assignment.values():
            assert len(hosts) == r
            assert len(set(hosts)) == r
            assert all(h in problem.machine_availability for h in hosts)

    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_capacity_never_exceeded(self, case):
        problem, seed = case
        placement = place_replicas(problem, rng=random.Random(seed), swap_rounds=100)
        usage = {}
        for hosts in placement.assignment.values():
            for host in hosts:
                usage[host] = usage.get(host, 0) + 1
        for host, used in usage.items():
            assert used <= problem.machine_capacity[host]

    @settings(max_examples=30, deadline=None)
    @given(problems())
    def test_availabilities_are_probabilities(self, case):
        problem, seed = case
        placement = place_replicas(problem, rng=random.Random(seed), swap_rounds=50)
        for hosts in placement.assignment.values():
            value = file_availability(hosts, placement.availability)
            assert 0.0 < value <= 1.0
