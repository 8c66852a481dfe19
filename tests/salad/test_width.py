"""Cell-ID width recalculation support (Fig. 6, Eqs. 18-19)."""

import pytest

from repro.salad.ids import coordinate_width
from repro.salad.width import (
    attenuated_redundancy,
    estimate_system_size,
    known_leaf_ratio,
    target_width,
)


class TestKnownLeafRatio:
    def test_width_zero_sees_everyone(self):
        assert known_leaf_ratio(0, 2) == 1.0

    def test_d1_sees_everyone(self):
        # In one dimension every leaf is vector-aligned with every other.
        for width in range(8):
            assert known_leaf_ratio(width, 1) == 1.0

    def test_eq18_d2_example(self):
        # W=4, D=2: (2^2 + 2^2 - 2 + 1) / 2^4 = 7/16
        assert known_leaf_ratio(4, 2) == pytest.approx(7 / 16)

    def test_decreases_with_width(self):
        ratios = [known_leaf_ratio(w, 2) for w in range(12)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_paper_consistency_with_eq13(self):
        """r * L tracks the Eq. 13 leaf table size (plus self).

        Eq. 13 approximates each axis vector as (L/lambda)^(1/D) cells;
        Eq. 18 uses the exact per-axis widths 2^(W_d).  The gap between them
        is the W-discretization ripple visible in Fig. 14, so the agreement
        is approximate.
        """
        from repro.salad.model import expected_leaf_table_size

        system_size, lam = 1024, 2.0
        width = 9  # floor(lg(1024/2))
        expected_table = expected_leaf_table_size(system_size, lam, 2)
        assert known_leaf_ratio(width, 2) * system_size == pytest.approx(
            expected_table + 1, rel=0.10
        )


class TestTargetWidth:
    def test_eq6(self):
        assert target_width(585, 2.0) == 8
        assert target_width(585, 2.5) == 7

    def test_floor_at_zero(self):
        assert target_width(1, 2.0) == 0
        assert target_width(0.5, 2.0) == 0
        assert target_width(-3, 2.0) == 0


class TestHysteresis:
    def test_eq19(self):
        assert attenuated_redundancy(2.0, 0.25) == pytest.approx(1.6)

    def test_attenuation_lowers_decrease_threshold(self):
        """With Lambda' < Lambda, a leaf needs a *smaller* estimate to shrink
        W than it needed to grow it -- that gap is the hysteresis band."""
        lam, xi = 2.0, 0.2
        grow_at = lam * 2**6  # estimate that makes target_width = 6
        shrink_at = attenuated_redundancy(lam, xi) * 2**6
        assert shrink_at < grow_at
        assert target_width(grow_at, lam) == 6
        assert target_width(shrink_at, attenuated_redundancy(lam, xi)) == 6

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            attenuated_redundancy(2.0, -0.1)


class TestFoldAxis:
    def test_removed_bit_owns_fold_axis(self):
        # Decrementing W removes bit W-1, which belongs to coordinate
        # (W-1) mod D: that axis, and only it, loses a bit (section 4.6).
        for width, dimensions in ((4, 2), (5, 2), (6, 3)):
            narrowed = [
                axis
                for axis in range(dimensions)
                if coordinate_width(width - 1, dimensions, axis)
                != coordinate_width(width, dimensions, axis)
            ]
            assert narrowed == [(width - 1) % dimensions]


class TestEstimate:
    def test_inverts_ratio(self):
        # With r = 7/16 at W=4, a table of 7 (incl. self) estimates L = 16.
        assert estimate_system_size(7, 4, 2) == pytest.approx(16.0)

    def test_width_zero_estimate_is_table_size(self):
        assert estimate_system_size(5, 0, 2) == 5.0


class TestSteadyBandBypass:
    """A leaf skips Fig. 6 inside the steady band; running it instead must
    change nothing a leaf or the network can observe."""

    @staticmethod
    def _grow(dimensions):
        import random

        from repro.salad.salad import Salad, SaladConfig

        salad = Salad(SaladConfig(dimensions=dimensions, seed=19))
        salad.build(70)
        for identifier in sorted(salad.alive_identifiers())[::6]:
            salad.depart_leaf(identifier, settle=False)
        salad.run()
        salad.crash_fraction(0.1, random.Random(3))
        for leaf in salad.alive_leaves():
            leaf.send_refreshes()
        salad.run()
        net = salad.network
        return {
            "leaves": {
                leaf.identifier: (
                    leaf.width,
                    sorted(leaf.leaf_table),
                    leaf.width_recalcs,
                    leaf.width_changes,
                )
                for leaf in salad.leaves.values()
            },
            "traffic": {
                identifier: (t.sent, t.received, t.dropped_to)
                for identifier, t in net.traffic.items()
            },
            "sent_by_kind": dict(net.sent_by_kind),
        }

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_skip_matches_running_fig6(self, dimensions, monkeypatch):
        import repro.salad.leaf as leaf_module

        skipped = self._grow(dimensions)
        monkeypatch.setattr(leaf_module, "steady_band", lambda *args: (1, 1))
        ran = self._grow(dimensions)
        assert skipped == ran
        assert any(changes for _, _, _, changes in skipped["leaves"].values())
