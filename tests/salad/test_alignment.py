"""Alignment predicates (Eqs. 11, 12, 15) against the Fig. 3 example."""

import pytest

from repro.salad.ids import compose_cell_id
from tests.reference_engine import (
    cell_aligned,
    d_vector_aligned,
    delta_dimensionally_aligned,
    lowest_alignment,
    mismatching_dimensions,
    vector_aligned,
)

# Fig. 3 uses W=4, D=2: cell-IDs wxyz with c0 = xz, c1 = wy.
W, D = 4, 2


def leaf(c0: int, c1: int) -> int:
    """Build an identifier with the given Fig. 3 coordinates."""
    return compose_cell_id([c0, c1], W, D)


# The black leaf has cell-ID 0110 -> c0 = 10b, c1 = 01b.
BLACK = leaf(0b10, 0b01)


class TestFig3Example:
    def test_leaf_a_shares_black_cell(self):
        a = leaf(0b10, 0b01)
        assert cell_aligned(BLACK, a, W)
        assert lowest_alignment(BLACK, a, W, D) == 0

    def test_horizontal_vector(self):
        """Leaves with c0 matching (cell-ID w1y0) are 1-vector-aligned."""
        b = leaf(0b10, 0b11)
        assert d_vector_aligned(BLACK, b, W, D, 1)
        assert vector_aligned(BLACK, b, W, D)
        assert not cell_aligned(BLACK, b, W)

    def test_vertical_vector(self):
        c = leaf(0b01, 0b01)
        assert d_vector_aligned(BLACK, c, W, D, 0)
        assert vector_aligned(BLACK, c, W, D)

    def test_unaligned_leaf(self):
        e = leaf(0b01, 0b10)
        assert not vector_aligned(BLACK, e, W, D)
        assert lowest_alignment(BLACK, e, W, D) == 2
        assert delta_dimensionally_aligned(BLACK, e, W, D, 2)

    def test_paper_cde_alignments(self):
        """Fig. 3 caption: C and D are 0-dimensionally aligned, C and E are
        1-dimensionally aligned, B and E are 2-dimensionally aligned."""
        c = leaf(0b01, 0b10)
        d = leaf(0b01, 0b10)  # same cell as C
        e = leaf(0b11, 0b10)  # same c1 as C, different c0
        b = leaf(0b10, 0b11)
        assert lowest_alignment(c, d, W, D) == 0
        assert lowest_alignment(c, e, W, D) == 1
        assert lowest_alignment(b, e, W, D) == 2


class TestPredicateProperties:
    def test_symmetry(self):
        i, j = 0b1011, 0b0110
        assert vector_aligned(i, j, W, D) == vector_aligned(j, i, W, D)
        assert mismatching_dimensions(i, j, W, D) == mismatching_dimensions(j, i, W, D)

    def test_reflexive(self):
        assert cell_aligned(BLACK, BLACK, W)
        assert vector_aligned(BLACK, BLACK, W, D)

    def test_cell_alignment_implies_vector_alignment(self):
        a = leaf(0b10, 0b01)
        assert cell_aligned(BLACK, a, W)
        assert vector_aligned(BLACK, a, W, D)

    def test_delta_alignment_is_monotone_in_delta(self):
        e = leaf(0b01, 0b10)
        assert not delta_dimensionally_aligned(BLACK, e, W, D, 1)
        assert delta_dimensionally_aligned(BLACK, e, W, D, 2)

    def test_width_zero_aligns_everything(self):
        assert cell_aligned(12345, 67890, 0)
        assert vector_aligned(12345, 67890, 0, 2)

    def test_smaller_width_preserves_alignment(self):
        """Folding (decreasing W) can only merge coordinates, never split."""
        for i, j in [(0b1011, 0b0011), (0b1111, 0b0101), (0xABC, 0xDEF)]:
            for width in range(12, 0, -1):
                if vector_aligned(i, j, width, 2):
                    assert vector_aligned(i, j, width - 1, 2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            d_vector_aligned(1, 2, W, D, 5)
        with pytest.raises(ValueError):
            delta_dimensionally_aligned(1, 2, W, D, -1)
