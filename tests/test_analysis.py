"""Tests for the availability, durability, and cost models."""

import random

import pytest

from repro.analysis import (
    CostModel,
    DurabilityModel,
    az_failure_survival,
    quorum_availability,
    quorum_availability_under_az_failure,
)
from repro.analysis.availability import monte_carlo_availability
from repro.analysis.cost import ALL_FULL_V6, FULL_TAIL_V6, SegmentMix
from repro.core.quorum import (
    full_tail_config,
    majority_config,
    v6_config,
)
from repro.errors import ConfigurationError

SIX = [f"s{i}" for i in range(6)]
THREE = ["a", "b", "c"]
AZ6 = {m: f"az{i % 3 + 1}" for i, m in enumerate(SIX)}
AZ3 = {"a": "az1", "b": "az2", "c": "az3"}


class TestQuorumAvailability:
    def test_perfect_nodes_always_available(self):
        config = v6_config(SIX)
        assert quorum_availability(config.write_expr, 1.0) == pytest.approx(1.0)

    def test_dead_nodes_never_available(self):
        config = v6_config(SIX)
        assert quorum_availability(config.write_expr, 0.0) == pytest.approx(0.0)

    def test_matches_binomial_closed_form(self):
        """4/6 availability at p=0.9 equals sum_{k>=4} C(6,k) p^k q^(6-k)."""
        import math

        config = v6_config(SIX)
        p = 0.9
        expected = sum(
            math.comb(6, k) * p**k * (1 - p) ** (6 - k) for k in range(4, 7)
        )
        assert quorum_availability(config.write_expr, p) == pytest.approx(
            expected
        )

    def test_read_quorum_more_available_than_write(self):
        config = v6_config(SIX)
        p = 0.85
        assert quorum_availability(config.read_expr, p) > quorum_availability(
            config.write_expr, p
        )

    def test_per_member_probabilities(self):
        config = majority_config(THREE)
        availability = quorum_availability(
            config.write_expr, {"a": 1.0, "b": 1.0, "c": 0.0}
        )
        assert availability == pytest.approx(1.0)  # a+b is a majority

    def test_invalid_probability_rejected(self):
        config = majority_config(THREE)
        with pytest.raises(ConfigurationError):
            quorum_availability(config.write_expr, 1.5)


class TestFigure1:
    """The paper's core availability argument.  The survival table itself
    (2/3 and 4/6 writes, 3/6 reads at AZ, AZ+1, AZ+2) is claim F1's check
    (``repro.claims``), which tier-1 runs."""

    def test_conditional_availability_ordering(self):
        v6 = v6_config(SIX)
        m3 = majority_config(THREE)
        p = 0.99
        v6_read = quorum_availability_under_az_failure(
            v6.read_expr, AZ6, "az1", p
        )
        m3_read = quorum_availability_under_az_failure(
            m3.read_expr, AZ3, "az1", p
        )
        assert v6_read > m3_read

    def test_full_tail_preserves_az_plus_one_reads(self):
        config = full_tail_config(["f0", "f1", "f2"], ["t0", "t1", "t2"])
        az_map = {
            "f0": "az1", "t0": "az1",
            "f1": "az2", "t1": "az2",
            "f2": "az3", "t2": "az3",
        }
        assert az_failure_survival(config.write_expr, az_map, 0)
        # Reads need a full segment: AZ+1 still survivable because one
        # full segment remains outside any AZ + any single extra failure?
        # Worst case: AZ down kills one full; extra failure kills another
        # full; one full left + 3 members total needed.
        assert az_failure_survival(config.read_expr, az_map, 1)

    def test_monte_carlo_agrees_with_exact(self):
        config = v6_config(SIX)
        rng = random.Random(5)
        p_fail = 0.05
        exact = quorum_availability(config.write_expr, 1 - p_fail)
        simulated = monte_carlo_availability(
            config.write_expr, AZ6, p_node_fail=p_fail, p_az_fail=0.0,
            trials=20_000, rng=rng,
        )
        assert simulated == pytest.approx(exact, abs=0.01)


class TestDurabilityModel:
    def test_window_probabilities_are_tiny_and_ordered(self):
        model = DurabilityModel(
            segment_mttf_hours=10_000, repair_window_s=10
        )
        p_write = model.p_write_quorum_loss()
        p_read = model.p_read_quorum_loss()
        assert 0 < p_read < p_write < 1e-9

    def test_longer_repair_window_hurts(self):
        fast = DurabilityModel(repair_window_s=10)
        slow = DurabilityModel(repair_window_s=3600)
        assert slow.p_read_quorum_loss() > fast.p_read_quorum_loss()

    def test_volume_yearly_risk_scales_with_size(self):
        model = DurabilityModel()
        assert model.p_volume_read_loss_per_year(
            64
        ) > model.p_volume_read_loss_per_year(1)

    def test_expected_degraded_quorums_fleet(self):
        """'some small number of quorums will be degraded'"""
        model = DurabilityModel(
            segment_mttf_hours=10_000, repair_window_s=30
        )
        degraded = model.expected_degraded_quorums(fleet_pgs=1_000_000)
        assert 0 < degraded < 10_000  # small relative to the fleet

    def test_az_rate_contributes(self):
        quiet = DurabilityModel(az_failures_per_year=0.0)
        noisy = DurabilityModel(az_failures_per_year=10.0)
        assert noisy.p_read_quorum_loss() > quiet.p_read_quorum_loss()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DurabilityModel(segment_mttf_hours=0)


class TestCostModel:
    def test_full_tail_roughly_halves_cost(self):
        """Section 4.2: 'cost amplification closer to three copies of the
        data rather than a full six'."""
        model = CostModel(log_to_block_ratio=0.1)
        assert model.amplification(ALL_FULL_V6) == pytest.approx(6.6)
        assert model.amplification(FULL_TAIL_V6) == pytest.approx(3.6)
        assert 3.0 <= model.amplification(FULL_TAIL_V6) <= 4.0

    def test_savings_fraction(self):
        model = CostModel(log_to_block_ratio=0.1)
        savings = model.savings_vs_all_full(FULL_TAIL_V6)
        assert 0.4 < savings < 0.5

    def test_zero_log_limit_is_exactly_3x_vs_6x(self):
        model = CostModel(log_to_block_ratio=0.0)
        assert model.amplification(ALL_FULL_V6) == 6.0
        assert model.amplification(FULL_TAIL_V6) == 3.0

    def test_price_per_user_gb(self):
        model = CostModel(log_to_block_ratio=0.1)
        assert model.price_per_user_gb(
            FULL_TAIL_V6, raw_price_per_gb_month=0.10
        ) == pytest.approx(0.36)

    def test_ratio_sweep_is_monotonic(self):
        model = CostModel()
        series = model.sweep_ratios(FULL_TAIL_V6, [0.0, 0.1, 0.2, 0.5])
        amplifications = [a for _r, a in series]
        assert amplifications == sorted(amplifications)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentMix(full_segments=0, tail_segments=6)

    def test_measured_amplification_from_cluster(self):
        """Empirical cross-check on a real simulated cluster."""
        from repro import AuroraCluster
        from repro.analysis.cost import measured_amplification_from_cluster

        def measure(full_tail):
            cluster = AuroraCluster.build(seed=9, full_tail=full_tail)
            db = cluster.session()
            for i in range(60):
                db.write(f"key{i:03d}", "x" * 50)
            cluster.run_for(100)
            for node in cluster.nodes.values():
                node.segment.coalesce()
            return measured_amplification_from_cluster(cluster)

        all_full = measure(False)
        mixed = measure(True)
        assert mixed["block_bytes"] < all_full["block_bytes"]
        assert mixed["amplification"] < all_full["amplification"]


class TestFleetDurability:
    """The C7 arithmetic over measured repair windows
    (``RepairSummary``'s sweep footer; ``fleet_durability`` until PR 24)."""

    @staticmethod
    def fleet(resolution, detection=()):
        from repro.repair import LatencyStats, RepairSummary

        return RepairSummary(
            resolution=LatencyStats(list(resolution)),
            detection=LatencyStats(list(detection)),
        )

    def test_fast_repairs_meet_c7(self):
        from repro.repair.metrics import C7_WINDOW

        fleet = self.fleet([1200.0, 1500.0, 900.0], [550.0, 600.0])
        assert C7_WINDOW.holds(fleet) and fleet.ok
        assert fleet.resolution.count == 3
        assert fleet.resolution.max == 1500.0
        # A shorter observed window can only lower the loss probability.
        p_loss = fleet.p_loss
        assert p_loss["mean"] < p_loss["c7"]
        assert p_loss["mean"] <= p_loss["p95"] <= p_loss["max"]
        assert fleet.detection.max == 600.0
        assert "max=600ms" in fleet.footer_lines(1)[2]

    def test_tail_beyond_c7_flags_exceeded(self):
        fleet = self.fleet([1000.0, 2000.0, 60_000.0])
        assert not fleet.ok
        assert fleet.p_loss["max"] > fleet.p_loss["c7"]
        assert "EXCEEDED" in fleet.footer_lines(1)[-1]
        # A seed's report says why it failed; a met window prints nothing
        # there.
        assert "EXCEEDED" in "\n".join(fleet.render_lines())
        assert "C7" not in "\n".join(self.fleet([1000.0]).render_lines())

    def test_needs_positive_samples(self):
        # Nothing is filtered out of a distribution; a window that is not
        # positive is one the durability model refuses to evaluate.
        with pytest.raises(ConfigurationError):
            self.fleet([0.0, -5.0]).footer_lines(1)
