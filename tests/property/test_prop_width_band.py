"""Property test: Fig. 6's steady band is exact.

``steady_band(W, D, Lambda, xi)`` claims the table sizes T (self included)
in ``[lo, hi)`` are exactly those at which the width procedure neither
folds (``target(Lambda') < W``) nor tries W+1 (``target(Lambda) > W``).  The
claim is checked against the two tests computed straight from
:mod:`repro.salad.width` for every (W, D, Lambda, xi) in the grid below.

Every T from 1 to hi + 8 is checked where that is at most ``EXHAUSTIVE``
values.  Above it -- D = 1 keeps r = 1, so hi reaches ~2^(W+1) * Lambda --
every T within 8 of lo and of hi is checked (the only places a monotone
test can flip), plus an evenly spaced sweep of the interior and the tail;
the sweep also asserts both targets are monotone in T.
"""

import pytest

from repro.salad.width import (
    attenuated_redundancy,
    estimate_system_size,
    steady_band,
    target_width,
)

WIDTHS = range(0, 25)
REDUNDANCIES = (1.5, 2.0, 2.5, 3.0)
DAMPINGS = (0.0, 0.1, 0.5)
EXHAUSTIVE = 4096
SWEEP = 1024


def fig6_is_steady(table_with_self, width, dimensions, redundancy, damping):
    estimate = estimate_system_size(table_with_self, width, dimensions)
    reduced = attenuated_redundancy(redundancy, damping)
    return (
        target_width(estimate, reduced) >= width
        and target_width(estimate, redundancy) <= width
    )


def sizes_to_check(lo, hi):
    top = hi + 8
    if top <= EXHAUSTIVE:
        return range(1, top + 1)
    windows = set(range(max(1, lo - 8), lo + 9)) | set(range(max(1, hi - 8), top + 1))
    step = max(1, top // SWEEP)
    return sorted(windows | set(range(1, top + 1, step)))


@pytest.mark.parametrize("dimensions", [1, 2, 3])
def test_band_is_exactly_where_fig6_does_nothing(dimensions):
    for width in WIDTHS:
        for redundancy in REDUNDANCIES:
            for damping in DAMPINGS:
                lo, hi = steady_band(width, dimensions, redundancy, damping)
                assert lo >= 1
                for table in sizes_to_check(lo, hi):
                    assert (lo <= table < hi) == fig6_is_steady(
                        table, width, dimensions, redundancy, damping
                    ), (width, dimensions, redundancy, damping, table, lo, hi)


@pytest.mark.parametrize("dimensions", [1, 2, 3])
def test_targets_are_monotone_in_table_size(dimensions):
    """The premise of the search: each target is non-decreasing in T."""
    for width in WIDTHS:
        for redundancy in REDUNDANCIES:
            for damping in DAMPINGS:
                reduced = attenuated_redundancy(redundancy, damping)
                _, hi = steady_band(width, dimensions, redundancy, damping)
                previous = (-1, -1)
                for table in sizes_to_check(1, hi):
                    estimate = estimate_system_size(table, width, dimensions)
                    current = (
                        target_width(estimate, reduced),
                        target_width(estimate, redundancy),
                    )
                    assert current[0] >= previous[0] and current[1] >= previous[1]
                    previous = current


def test_band_is_nonempty_for_the_paper_defaults():
    # D = 2, Lambda = 2, xi = 0.1: every width has sizes at which it holds.
    for width in WIDTHS:
        lo, hi = steady_band(width, 2, 2.0, 0.1)
        assert lo < hi
