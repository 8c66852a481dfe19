"""Every figure experiment at tiny scale: runs, renders, and shows the
paper's qualitative shape."""

import pytest

from repro.experiments import (
    attack_check,
    dataset_stats,
    fig07_space_vs_minsize,
    fig08_space_vs_failure,
    fig09_messages_vs_minsize,
    fig10_message_cdf,
    fig11_dbsize_vs_minsize,
    fig12_dbsize_cdf,
    fig13_space_vs_dblimit,
    fig14_leaftable_vs_size,
    fig15_leaftable_cdf,
    model_check,
)
from repro.experiments.growth import run_growth_suite
from repro.experiments.scales import ExperimentScale
from repro.experiments.threshold_sweep import run_threshold_sweep
from repro.sim.metrics import mean

TINY = ExperimentScale(
    name="tiny",
    machines=40,
    mean_files_per_machine=12,
    growth_max_leaves=80,
    fig15_small=40,
    fig15_large=80,
)

LAMBDAS = (1.5, 2.5)


@pytest.fixture(scope="module")
def sweep():
    return run_threshold_sweep(TINY, lambdas=LAMBDAS, seed=1)


@pytest.fixture(scope="module")
def growth():
    return run_growth_suite(LAMBDAS, TINY.growth_max_leaves, [40, 60, 80], seed=1)


class TestDatasetStats:
    def test_render_contains_paper_reference(self):
        out = dataset_stats.run(TINY, seed=1).render()
        assert "10,514,105" in out  # paper's number shown for comparison
        assert "duplicate byte fraction" in out


class TestFig07:
    def test_consumed_rises_with_threshold(self, sweep):
        result = fig07_space_vs_minsize.run(TINY, sweep=sweep)
        for label, series in sweep.consumed_series().items():
            assert series[-1] >= series[0], label
        assert "Fig. 7" in result.render()

    def test_higher_lambda_reclaims_more(self, sweep):
        low = sweep.points[1.5][0].consumed_bytes
        high = sweep.points[2.5][0].consumed_bytes
        assert high <= low

    def test_dfc_never_beats_ideal(self, sweep):
        for lam in LAMBDAS:
            for point in sweep.points[lam]:
                assert point.consumed_bytes >= point.ideal_consumed_bytes


class TestFig09:
    def test_messages_fall_with_threshold(self, sweep):
        result = fig09_messages_vs_minsize.run(TINY, sweep=sweep)
        for lam in LAMBDAS:
            series = [p.mean_messages for p in sweep.points[lam]]
            assert series[-1] < series[0]
        assert "Fig. 9" in result.render()

    def test_higher_lambda_costs_more_messages(self, sweep):
        assert (
            sweep.points[2.5][0].mean_messages > sweep.points[1.5][0].mean_messages
        )


class TestFig10:
    def test_cov_reported(self, sweep):
        result = fig10_message_cdf.run(TINY, sweep=sweep)
        assert set(result.cov) == set(LAMBDAS)
        for value in result.cov.values():
            assert 0 < value < 2.0
        assert "CoV" in result.render()


class TestFig11:
    def test_database_size_falls_with_threshold(self, sweep):
        result = fig11_dbsize_vs_minsize.run(TINY, sweep=sweep)
        for lam in LAMBDAS:
            series = [p.mean_database_records for p in sweep.points[lam]]
            assert series[-1] < series[0]
        assert "Fig. 11" in result.render()


class TestFig12:
    def test_renders_with_cov(self, sweep):
        result = fig12_dbsize_cdf.run(TINY, sweep=sweep)
        assert "Fig. 12" in result.render()
        assert set(result.cov) == set(LAMBDAS)


class TestFig08:
    def test_failure_sweep_shape(self):
        result = fig08_space_vs_failure.run(
            TINY, lambdas=(2.5,), probabilities=(0.0, 0.5, 0.9), seed=2
        )
        series = result.consumed[2.5]
        assert series[0] <= series[1] <= series[2]
        assert result.reclaimed_at_half[2.5] > 0
        assert "Fig. 8" in result.render()


class TestFig13:
    def test_tight_limits_cost_space(self):
        result = fig13_space_vs_dblimit.run(
            TINY, lambdas=(2.5,), limit_fractions=(1 / 8, 4), seed=3
        )
        consumed = result.consumed[2.5]
        assert consumed[0] >= consumed[-1]  # tighter limit -> more space used
        assert "Fig. 13" in result.render()

    def test_generous_limit_matches_unlimited(self):
        result = fig13_space_vs_dblimit.run(
            TINY, lambdas=(2.5,), limit_fractions=(8,), seed=4
        )
        assert result.consumed[2.5][0] == pytest.approx(
            result.unlimited_consumed[2.5], rel=0.02
        )


class TestFig14:
    def test_leaf_tables_grow_sublinearly(self, growth):
        result = fig14_leaftable_vs_size.run(TINY, lambdas=LAMBDAS, growth=growth)
        series = result.mean_series()["Lambda=2.5"]
        assert series[-1] > series[0]  # grows
        ratio = series[-1] / series[0]
        assert ratio < 80 / 40  # sublinear in L
        assert "Fig. 14" in result.render()


class TestFig15:
    def test_larger_system_larger_tables(self, growth):
        result = fig15_leaftable_cdf.run(TINY, lambdas=LAMBDAS, growth=growth)
        for lam in LAMBDAS:
            assert (
                mean(result.cdfs_large[lam].samples)
                >= mean(result.cdfs_small[lam].samples) * 0.8
            )
        assert "Fig. 15a" in result.render() and "Fig. 15b" in result.render()

    def test_low_lambda_has_more_empty_tables(self, growth):
        result = fig15_leaftable_cdf.run(TINY, lambdas=LAMBDAS, growth=growth)
        assert result.nearly_empty_fraction(1.5) >= result.nearly_empty_fraction(2.5)


class TestModelCheck:
    def test_measurements_near_predictions(self):
        result = model_check.run(TINY, seed=5, record_count=600)
        assert result.measured_table_mean == pytest.approx(
            result.predicted_table_mean, rel=0.6
        )
        assert result.measured_loss <= max(3 * result.predicted_loss, 0.3)
        assert "Eq. 13" in result.render()


class TestAttackCheck:
    def test_attack_reduces_redundancy(self):
        result = attack_check.run(TINY, sybil_fraction=0.4, record_count=150, seed=6)
        assert result.attacked_measured < result.baseline_redundancy
        assert result.victim_width_after >= result.victim_width_before
        assert "Eq. 20" in result.render()
