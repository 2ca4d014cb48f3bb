"""Tests for the performance and cost models (Fig 6b, §7.3)."""

import pytest

from benchmarks.perfmodel import ClusterPerformanceModel
from repro.cluster.costmodel import DeploymentCostModel

HOUR = 3600.0
MONTH = 30 * 24 * HOUR


class TestPerformanceModel:
    @pytest.fixture
    def model(self):
        return ClusterPerformanceModel(per_core_records_per_second=1.5e6)

    def test_single_node_baseline(self, model):
        assert model.max_throughput(1) == pytest.approx(8 * 1.5e6)

    def test_near_linear_scaling(self, model):
        """The paper observes 11.5M -> 225M rec/s over 1 -> 20 nodes,
        i.e. ~98% parallel efficiency; the model must stay near-linear."""
        speedup = model.speedup(20)
        assert 17.0 <= speedup <= 20.0

    def test_monotonically_increasing(self, model):
        sweep = model.sweep([1, 5, 10, 20])
        rates = [r for _n, r in sweep]
        assert rates == sorted(rates)

    def test_efficiency_declines_with_nodes(self, model):
        assert model.efficiency(1) == 1.0
        assert model.efficiency(20) < model.efficiency(2) < 1.0

    def test_paper_shape_ratio_5_to_1(self, model):
        """Fig 6b: 5 nodes give ~5x one node (63M vs 11.5M ~ 5.5x in the
        paper's plot; near-linear either way)."""
        assert model.speedup(5) == pytest.approx(5.0, rel=0.15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ClusterPerformanceModel(0)
        with pytest.raises(ValueError):
            ClusterPerformanceModel(1.0).max_throughput(0)


class TestCostModel:
    @pytest.fixture
    def model(self):
        # Low-volume ETL: 1k records/s arriving, 1M records/s processing.
        return DeploymentCostModel(
            arrival_rate_records_per_second=1_000,
            processing_rate_records_per_second=1_000_000,
            nodes=4, startup_seconds=120.0,
        )

    def test_continuous_cost_is_node_seconds(self, model):
        assert model.continuous_cost(HOUR) == 4 * HOUR

    def test_run_once_cheaper_at_low_duty_cycle(self, model):
        assert model.savings_ratio(MONTH, interval_seconds=4 * HOUR) > 5

    def test_paper_magnitude_10x_reachable(self, model):
        """§7.3: 'up to 10x' savings for low-volume applications."""
        best = max(
            model.savings_ratio(MONTH, interval)
            for interval in (HOUR, 4 * HOUR, 12 * HOUR, 24 * HOUR)
        )
        assert best >= 10

    def test_savings_shrink_with_short_intervals(self, model):
        frequent = model.savings_ratio(MONTH, 10 * 60)
        rare = model.savings_ratio(MONTH, 24 * HOUR)
        assert rare > frequent

    def test_latency_tradeoff_grows_with_interval(self, model):
        assert model.max_latency(24 * HOUR) > model.max_latency(HOUR)

    def test_processing_must_outpace_arrival(self):
        with pytest.raises(ValueError):
            DeploymentCostModel(1000, 500)

    def test_zero_interval_rejected(self, model):
        with pytest.raises(ValueError):
            model.run_once_cost(HOUR, 0)
