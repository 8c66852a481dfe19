"""Attack identifier crafting (section 4.7)."""

import random

import pytest

from repro.salad.attack import (
    craft_attack_identifiers,
    craft_vector_aligned_identifier,
    measure_record_redundancy,
)
from repro.salad.salad import Salad, SaladConfig
from tests.reference_engine import vector_aligned

VICTIM = 0xDEADBEEFCAFE


class TestCrafting:
    def test_crafted_identifier_is_vector_aligned(self):
        rng = random.Random(1)
        for width in (2, 4, 8, 12):
            sybil = craft_vector_aligned_identifier(VICTIM, width, 2, rng)
            assert vector_aligned(VICTIM, sybil, width, 2)

    def test_axis_parameter_respected(self):
        rng = random.Random(2)
        from repro.salad.ids import coordinate

        sybil = craft_vector_aligned_identifier(VICTIM, 8, 2, rng, axis=1)
        assert coordinate(sybil, 8, 2, 0) == coordinate(VICTIM, 8, 2, 0)

    def test_batch_spreads_over_axes(self):
        rng = random.Random(3)
        sybils = craft_attack_identifiers(VICTIM, 8, 2, 10, rng)
        assert len(sybils) == 10
        for sybil in sybils:
            assert vector_aligned(VICTIM, sybil, 8, 2)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            craft_vector_aligned_identifier(VICTIM, 0, 2, random.Random(4))


class TestAttackEffect:
    def test_sybils_inflate_victim_table(self):
        salad = Salad(SaladConfig(target_redundancy=2.5, seed=9))
        salad.build(80)
        victim = salad.alive_leaves()[0]
        table_before = victim.table_size
        estimate_before = victim.estimated_system_size
        rng = random.Random(10)
        for identifier in craft_attack_identifiers(
            victim.identifier, victim.width, 2, 30, rng
        ):
            if identifier not in salad.leaves:
                salad.add_leaf(identifier=identifier)
        assert victim.table_size > table_before
        assert victim.estimated_system_size > estimate_before

    def test_measure_redundancy_empty(self):
        salad = Salad(SaladConfig(seed=11))
        salad.build(5)
        assert measure_record_redundancy(salad, []) == 0.0
