"""Alignment predicates (paper Eqs. 11, 12, 15).

Two identifiers are:

- *cell-aligned* if their cell-IDs are equal (all D coordinates match);
- *d-vector-aligned* (Eq. 11) if every coordinate except possibly the d-axis
  matches -- they share a vector of cells parallel to the d-axis;
- *vector-aligned* (Eq. 12) if d-vector-aligned for some d;
- *delta-dimensionally-aligned* (Eq. 15) if they share a delta-dimensional
  hypersquare, i.e. at most delta coordinates mismatch.

Cell-aligned is the delta=0 case and vector-aligned the delta=1 case.
Coordinates of axes with zero bit width (which happens when W < D) always
match, so these predicates automatically respect the effective
dimensionality of Eq. 16.
"""

from __future__ import annotations

from typing import List

from repro.salad.ids import axis_masks, coordinate


def mismatching_dimensions(i: int, j: int, width: int, dimensions: int) -> List[int]:
    """The set Delta of axes on which the two identifiers' coordinates differ.

    This is the workhorse: ``len(...)`` is the lowest dimensional alignment
    delta of the pair, and the Fig. 5 join procedure needs the set itself.

    Implemented with per-axis bit masks: coordinate extraction is a pure bit
    permutation, so coordinate d differs iff the XOR of the identifiers has
    a set bit among axis d's interleaved positions.  One XOR plus D ANDs
    replaces 2*D extraction loops.
    """
    diff = (i ^ j) & ((1 << width) - 1)
    if not diff:
        return []
    masks = axis_masks(width, dimensions)
    return [d for d in range(dimensions) if diff & masks[d]]


def cell_aligned(i: int, j: int, width: int) -> bool:
    """Cell-aligned: equal cell-IDs (zero-dimensionally aligned)."""
    mask = (1 << width) - 1
    return (i & mask) == (j & mask)


def d_vector_aligned(i: int, j: int, width: int, dimensions: int, axis: int) -> bool:
    """Eq. 11: all coordinates except possibly *axis* match."""
    if not 0 <= axis < dimensions:
        raise ValueError(f"axis {axis} out of range for D={dimensions}")
    return all(
        coordinate(i, width, dimensions, d) == coordinate(j, width, dimensions, d)
        for d in range(dimensions)
        if d != axis
    )


def vector_aligned(i: int, j: int, width: int, dimensions: int) -> bool:
    """Eq. 12: d-vector-aligned for some d (one-dimensionally aligned)."""
    return len(mismatching_dimensions(i, j, width, dimensions)) <= 1


def delta_dimensionally_aligned(
    i: int, j: int, width: int, dimensions: int, delta: int
) -> bool:
    """Eq. 15: the identifiers share a delta-dimensional hypersquare."""
    if delta < 0:
        raise ValueError(f"delta cannot be negative: {delta}")
    return len(mismatching_dimensions(i, j, width, dimensions)) <= delta


def lowest_alignment(i: int, j: int, width: int, dimensions: int) -> int:
    """The smallest delta for which the pair is delta-dimensionally aligned.

    0 means cell-aligned, 1 vector-aligned, and so on.  This is the delta of
    the Fig. 5 pseudo-code.
    """
    return len(mismatching_dimensions(i, j, width, dimensions))
