"""Targeted-attack model (paper section 4.7).

Because SALAD's record placement is purely statistical, a malicious leaf
cannot appoint itself the store for a chosen fingerprint range; the paper
shows the strongest available attack (for D > 1) is a *sybil inflation*
attack: m malicious leaves choose identifiers vector-aligned with a victim,
inflating the victim's leaf table, hence its system-size estimate L, hence
its cell-ID width W -- which makes the victim's records lossier.  Eq. 20
bounds the damage: the effective redundancy of the victim's records becomes

    lambda' = lambda * (1 - m/L)^D

This module crafts such attacks so simulations can measure lambda' and
compare it with the bound.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.salad.ids import (
    compose_cell_id,
    coordinate,
    coordinate_width,
    coordinates,
)

IDENTIFIER_BITS = 160


def craft_vector_aligned_identifier(
    victim: int,
    width: int,
    dimensions: int,
    rng: random.Random,
    axis: Optional[int] = None,
) -> int:
    """An identifier vector-aligned with *victim* under the given width.

    Copies the victim's coordinates, randomizes the coordinate on one axis
    (chosen at random unless *axis* is given), and randomizes all identifier
    bits above the cell-ID.  The result lands in the victim's axis vector, so
    the victim will admit it to its leaf table.
    """
    if width < 1:
        raise ValueError("cannot craft against a zero-width SALAD")
    if axis is None:
        candidates = [
            d
            for d in range(dimensions)
            if coordinate_width(width, dimensions, d) > 0
        ]
        axis = rng.choice(candidates)
    coords = coordinates(victim, width, dimensions)
    axis_width = coordinate_width(width, dimensions, axis)
    if axis_width == 0:
        raise ValueError(f"axis {axis} has zero width at W={width}")
    coords[axis] = rng.randrange(1 << axis_width)
    low_bits = compose_cell_id(coords, width, dimensions)
    high_bits = rng.getrandbits(IDENTIFIER_BITS - width) << width
    return high_bits | low_bits


def craft_attack_identifiers(
    victim: int,
    width: int,
    dimensions: int,
    count: int,
    rng: random.Random,
) -> List[int]:
    """*count* sybil identifiers spread evenly across the victim's vectors."""
    axes = [
        d for d in range(dimensions) if coordinate_width(width, dimensions, d) > 0
    ]
    out = []
    for i in range(count):
        out.append(
            craft_vector_aligned_identifier(
                victim, width, dimensions, rng, axis=axes[i % len(axes)]
            )
        )
    return out


def measure_record_redundancy(salad, records) -> float:
    """Mean number of alive leaves storing each of the given records.

    This is the empirical effective redundancy lambda' that Eq. 20 bounds.
    """
    total = 0
    records = list(records)
    if not records:
        return 0.0
    for record in records:
        stored_on = sum(
            1
            for leaf in salad.alive_leaves()
            if record.location in leaf.database.locations(record.fingerprint)
        )
        total += stored_on
    return total / len(records)
