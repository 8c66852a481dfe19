"""Property tests: alignment predicates (Eqs. 11, 12, 15)."""

from hypothesis import given
from hypothesis import strategies as st

from tests.reference_engine import (
    delta_dimensionally_aligned,
    lowest_alignment,
    mismatching_dimensions,
    vector_aligned,
)

identifiers = st.integers(min_value=0, max_value=(1 << 160) - 1)
widths = st.integers(min_value=0, max_value=20)
dims = st.integers(min_value=1, max_value=4)


class TestAlignmentProperties:
    @given(identifiers, identifiers, widths, dims)
    def test_symmetry(self, i, j, width, dimensions):
        assert mismatching_dimensions(i, j, width, dimensions) == mismatching_dimensions(
            j, i, width, dimensions
        )

    @given(identifiers, widths, dims)
    def test_reflexivity(self, i, width, dimensions):
        assert lowest_alignment(i, i, width, dimensions) == 0

    @given(identifiers, identifiers, widths, dims)
    def test_delta_bounded_by_dimensions(self, i, j, width, dimensions):
        assert 0 <= lowest_alignment(i, j, width, dimensions) <= dimensions

    @given(identifiers, identifiers, widths, dims)
    def test_delta_alignment_monotone(self, i, j, width, dimensions):
        """If delta-aligned, then (delta+1)-aligned (Eq. 15 nests)."""
        delta = lowest_alignment(i, j, width, dimensions)
        for larger in range(delta, dimensions + 1):
            assert delta_dimensionally_aligned(i, j, width, dimensions, larger)
        for smaller in range(0, delta):
            assert not delta_dimensionally_aligned(i, j, width, dimensions, smaller)

    @given(identifiers, identifiers, st.integers(min_value=1, max_value=20), dims)
    def test_folding_never_breaks_alignment(self, i, j, width, dimensions):
        """Decreasing W merges coordinates: mismatches can only vanish."""
        assert lowest_alignment(i, j, width - 1, dimensions) <= lowest_alignment(
            i, j, width, dimensions
        )

    @given(identifiers, identifiers, widths)
    def test_d1_always_vector_aligned(self, i, j, width):
        """In one dimension every pair shares the single vector (Eq. 12)."""
        assert vector_aligned(i, j, width, 1)

    @given(identifiers, identifiers, dims)
    def test_width_zero_always_cell_aligned(self, i, j, dimensions):
        assert lowest_alignment(i, j, 0, dimensions) == 0
