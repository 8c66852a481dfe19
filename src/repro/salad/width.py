"""Cell-ID width recalculation support (paper section 4.6, Fig. 6).

A leaf estimates the system size L from the size T of its own leaf table:
the expected fraction of all leaves that are vector-aligned with it (and
hence in its table) is the *known leaf ratio* r of Eq. 18,

    r = (sum_d 2^(W_d)  -  D + 1) / 2^W

so the leaf inverts ``T ~= r * L`` to get ``L = T / r``, then derives a
target width ``W^ = floor(lg(L / Lambda))`` (Eq. 6).  Decreases use an
attenuated target redundancy ``Lambda' = Lambda / (1 + xi)`` (Eq. 19) --
hysteresis that prevents W from oscillating when T hovers near a threshold.

The stateful parts of Fig. 6 (requesting newly vector-aligned leaves after a
fold, forgetting leaves after an unfold, the stability check before an
increment) live in :meth:`repro.salad.leaf.SaladLeaf._recalculate_width`;
this module holds the pure calculations.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Tuple

from repro.salad.ids import coordinate_width


@lru_cache(maxsize=4096)
def known_leaf_ratio(width: int, dimensions: int) -> float:
    """Eq. 18: expected fraction of all leaves in a leaf's own leaf table.

    A leaf sees the leaves of ``sum_d 2^(W_d)`` cells along its D vectors;
    its own cell is counted once per axis, hence the ``- D + 1``.
    """
    visible_cells = (
        sum(1 << coordinate_width(width, dimensions, d) for d in range(dimensions))
        - dimensions
        + 1
    )
    return visible_cells / (1 << width)


def attenuated_redundancy(target_redundancy: float, damping: float) -> float:
    """Eq. 19: Lambda' = Lambda / (1 + xi)."""
    if damping < 0:
        raise ValueError(f"damping factor cannot be negative: {damping}")
    return target_redundancy / (1.0 + damping)


def target_width(estimated_size: float, redundancy: float) -> int:
    """Eq. 6 applied to an estimate: W^ = floor(lg(L / Lambda)), min 0."""
    if estimated_size <= 0:
        return 0
    ratio = estimated_size / redundancy
    if ratio < 1:
        return 0
    return int(math.floor(math.log2(ratio)))


def estimate_system_size(table_size_with_self: int, width: int, dimensions: int) -> float:
    """Invert Eq. 18: L = T / r, with T counting the leaf itself."""
    r = known_leaf_ratio(width, dimensions)
    return table_size_with_self / r


@lru_cache(maxsize=4096)
def steady_band(
    width: int, dimensions: int, target_redundancy: float, damping: float
) -> Tuple[int, int]:
    """The table sizes (self included) at which Fig. 6 leaves W alone.

    Returns ``[lo, hi)``: for T in it the fold test ``target(Lambda') < W``
    and the growth test ``target(Lambda) > W`` are both false, so the
    procedure neither folds nor tries a tentative width.  Both targets are
    non-decreasing in T (each step is a monotone float operation), so each
    test flips at most once, and a search with the same calls Fig. 6 makes
    finds the exact flip points (tests/property/test_prop_width_band.py).
    The band is empty (lo >= hi) when no T satisfies both.
    """
    reduced = attenuated_redundancy(target_redundancy, damping)

    def target(table_with_self: int, redundancy: float) -> int:
        estimate = estimate_system_size(table_with_self, width, dimensions)
        return target_width(estimate, redundancy)

    lo = _first_true(lambda t: target(t, reduced) >= width)
    hi = _first_true(lambda t: target(t, target_redundancy) > width)
    return lo, hi


def _first_true(predicate: Callable[[int], bool]) -> int:
    """The least T >= 1 where a monotone false-then-true *predicate* holds."""
    if predicate(1):
        return 1
    above = 2
    while not predicate(above):
        above *= 2
    below = above // 2  # predicate(below) is false, predicate(above) true
    while above - below > 1:
        middle = (below + above) // 2
        if predicate(middle):
            above = middle
        else:
            below = middle
    return above
