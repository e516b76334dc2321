"""Tests for fault injection, invariant checking, IFT, and QoS (E19)."""

import numpy as np
import pytest

from repro.crosscut import (
    Application,
    Outcome,
    ProtectionScheme,
    TaintTracker,
    address_range_policy,
    compare_protection_schemes,
    default_schemes,
    equal_partition,
    evaluate_partition,
    execute_registers,
    ift_overhead_model,
    injection_campaign,
    isolation_tax,
    proportional_partition,
    qos_first_partition,
    range_invariant_checker,
)
from repro.processor import Instruction, Opcode, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(300, rng=0)


class TestExecution:
    def test_deterministic(self, trace):
        a, _ = execute_registers(trace)
        b, _ = execute_registers(trace)
        np.testing.assert_array_equal(a, b)

    def test_flip_changes_state_or_not(self, trace):
        golden, _ = execute_registers(trace)
        flipped, _ = execute_registers(trace, flip=(0, 0, 10))
        # May be masked or not, but execution must complete.
        assert flipped.shape == golden.shape

    def test_values_stay_bounded(self, trace):
        regs, _ = execute_registers(trace)
        assert np.all(np.abs(regs) < (1 << 20))

    def test_flip_validation(self, trace):
        with pytest.raises(ValueError):
            execute_registers(trace, flip=(0, 99, 0))
        with pytest.raises(ValueError):
            execute_registers(trace, flip=(0, 0, 70))

    @pytest.mark.parametrize("flip", [
        (300, 3, 10), (-1, 3, 10),  # never reached by the trace
        (300, 99, 0), (-1, 0, 70),  # bad register/bit out there too
        (10, -1, 0), (10, 0, 63), (10, 0, -1),
    ])
    def test_flips_validated_up_front(self, trace, flip):
        with pytest.raises(ValueError):
            execute_registers(trace, flip=flip)
        with pytest.raises(ValueError):
            injection_campaign(trace, flips=[(5, 3, 10), flip])


class TestCampaign:
    def test_outcome_partition(self, trace):
        result = injection_campaign(trace, n_injections=100, rng=0)
        assert result.total == 100
        assert sum(result.outcomes.values()) == 100
        # Without a checker nothing is detected.
        assert result.outcomes[Outcome.DETECTED] == 0

    def test_most_faults_masked(self, trace):
        # Classic ACE-analysis result: most flips hit dead state.
        result = injection_campaign(trace, n_injections=200, rng=1)
        assert result.rate(Outcome.MASKED) > 0.5
        assert result.sdc_rate > 0.0

    def test_checker_detects_high_bit_flips(self, trace):
        result = injection_campaign(
            trace, n_injections=200,
            checker=range_invariant_checker(1 << 20), rng=2,
        )
        assert result.outcomes[Outcome.DETECTED] > 0
        assert result.coverage > 0.5

    def test_unreachable_flips_are_not_masked(self):
        short = generate_trace(50, rng=0)
        with pytest.raises(ValueError, match="outside the 50-instruction"):
            injection_campaign(short, flips=[(500, 3, 10), (-1, 3, 10)])

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            injection_campaign(trace, n_injections=0)
        with pytest.raises(ValueError):
            injection_campaign([], n_injections=1)
        with pytest.raises(ValueError):
            injection_campaign(
                trace, 10,
                checker=lambda r: True,
                checker_factory=lambda: (lambda r: True),
            )


class TestProtectionComparison:
    def test_paper_shape(self, trace):
        out = compare_protection_schemes(trace, n_injections=200, rng=0)
        # DMR: full coverage, no SDC, but 100% energy overhead.
        assert out["dmr"]["sdc_rate"] == 0.0
        assert out["dmr"]["energy_overhead"] == 1.0
        # Invariant checking: most of the SDC reduction at a fraction
        # of the energy — Section 2.4's "lower-overhead approaches".
        tight = out["invariant_tight"]
        assert tight["sdc_rate"] < out["none"]["sdc_rate"]
        assert tight["energy_overhead"] < 0.1
        assert (
            tight["sdc_reduction_per_overhead"]
            > out["dmr"]["sdc_reduction_per_overhead"]
        )

    def test_tight_beats_loose(self, trace):
        out = compare_protection_schemes(trace, n_injections=200, rng=0)
        assert (
            out["invariant_tight"]["coverage"]
            >= out["invariant_loose"]["coverage"]
        )

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            compare_protection_schemes(trace, schemes=[])

    def test_identical_schemes_paired_under_generator(self, trace):
        """A Generator is drawn from once, so every scheme sees the
        same flips, not just under an int seed."""
        tight = default_schemes()[2]
        schemes = [
            ProtectionScheme("none", 0.0, None),
            ProtectionScheme("none_again", 0.0, None),
            tight,
            ProtectionScheme("tight_again", 0.06, tight.checker_factory),
        ]
        out = compare_protection_schemes(
            trace, n_injections=200, schemes=schemes,
            rng=np.random.default_rng(0),
        )
        assert out["none"] == out["none_again"]
        assert out["invariant_tight"] == out["tight_again"]

    def test_efficiency_independent_of_scheme_order(self, trace):
        by_default = compare_protection_schemes(trace, 200, rng=0)
        none, _, tight, dmr = default_schemes()
        reordered = compare_protection_schemes(
            trace, 200, schemes=[tight, none, dmr], rng=0
        )
        without_none = compare_protection_schemes(
            trace, 200, schemes=[tight, dmr], rng=0
        )
        for out in (reordered, without_none):
            for name in ("invariant_tight", "dmr"):
                assert out[name] == by_default[name]
                assert "sdc_reduction_per_overhead" in out[name]

    def test_masked_rate_completes_the_partition(self, trace):
        out = compare_protection_schemes(trace, 200, rng=0)
        for name, row in out.items():
            total = row["masked_rate"] + row["detected_rate"]
            if name != "dmr":  # DMR reports baseline SDC as detected
                total += row["sdc_rate"]
            assert total == pytest.approx(1.0)
        assert out["dmr"]["masked_rate"] == out["none"]["masked_rate"]


class TestIFT:
    def make_trace(self):
        return [
            Instruction(Opcode.LOAD, dst=1, address=100, pc=0),  # tainted
            Instruction(Opcode.ALU, dst=2, srcs=(1, 3), pc=4),  # propagates
            Instruction(Opcode.ALU, dst=4, srcs=(5, 6), pc=8),  # clean
            Instruction(Opcode.STORE, srcs=(2,), address=1 << 20, pc=12),
        ]

    def test_taint_propagates_to_sink(self):
        policy = address_range_policy((0, 4096), (1 << 20, 1 << 21))
        tracker = TaintTracker(policy)
        result = tracker.run(self.make_trace())
        assert result.violated
        assert result.violations == [3]
        assert result.tainted_instructions == 3  # load, alu, store

    def test_clean_flow_no_violation(self):
        policy = address_range_policy((1 << 30, 1 << 31), (1 << 20, 1 << 21))
        tracker = TaintTracker(policy)
        result = tracker.run(self.make_trace())
        assert not result.violated
        assert result.taint_fraction == 0.0

    def test_memory_taint_round_trip(self):
        policy = address_range_policy((0, 64), (1 << 30, 1 << 31))
        trace = [
            Instruction(Opcode.LOAD, dst=1, address=0, pc=0),  # tainted
            Instruction(Opcode.STORE, srcs=(1,), address=8192, pc=4),
            Instruction(Opcode.LOAD, dst=2, address=8192, pc=8),  # re-tainted
        ]
        tracker = TaintTracker(policy)
        result = tracker.run(trace)
        assert tracker.reg_taint[2]
        assert result.tainted_memory_lines == 1

    def test_reset(self):
        policy = address_range_policy((0, 64), (1 << 30, 1 << 31))
        tracker = TaintTracker(policy)
        tracker.run(self.make_trace())
        tracker.reset()
        assert not tracker.reg_taint.any()

    def test_overhead_model(self):
        eager = ift_overhead_model(0.1, lazy_propagation=False)
        lazy = ift_overhead_model(0.1, lazy_propagation=True)
        assert lazy["energy_overhead"] < eager["energy_overhead"]
        assert eager["hardware_advantage"] > 10.0
        with pytest.raises(ValueError):
            ift_overhead_model(2.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            address_range_policy((10, 0), (0, 1))
        with pytest.raises(ValueError):
            TaintTracker(
                address_range_policy((0, 1), (2, 3)), line_bytes=0
            )


class TestQoS:
    def apps(self):
        return [
            Application("critical", 1.0, 0.5, qos_target=0.9),
            Application("batch", 2.0, 0.7),
        ]

    def test_equal_partition(self):
        shares = equal_partition(self.apps())
        np.testing.assert_allclose(shares, [0.5, 0.5])

    def test_proportional(self):
        shares = proportional_partition(self.apps(), [3.0, 1.0])
        np.testing.assert_allclose(shares, [0.75, 0.25])
        with pytest.raises(ValueError):
            proportional_partition(self.apps(), [0.0, 0.0])

    def test_qos_first_meets_target(self):
        apps = self.apps()
        shares = qos_first_partition(apps)
        out = evaluate_partition(apps, shares)
        assert out["all_qos_met"]
        assert shares.sum() == pytest.approx(1.0)

    def test_equal_violates_demanding_target(self):
        apps = self.apps()
        out = evaluate_partition(apps, equal_partition(apps))
        assert not out["qos_met"][0]  # 0.5 share gives perf 0.707 < 0.9

    def test_isolation_tax_positive_under_pressure(self):
        out = isolation_tax(self.apps())
        assert out["qos_meets_qos"] == 1.0
        assert out["equal_meets_qos"] == 0.0
        assert out["tax_fraction"] > 0.0  # throughput paid for isolation

    def test_infeasible_targets_rejected(self):
        apps = [
            Application("a", 1.0, 0.5, qos_target=0.95),
            Application("b", 1.0, 0.5, qos_target=0.95),
        ]
        with pytest.raises(ValueError):
            qos_first_partition(apps)

    def test_share_for_target_inverts(self):
        app = Application("x", 2.0, 0.5, qos_target=1.0)
        share = app.share_for_target()
        assert app.performance(share) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Application("bad", peak_performance=0.0)
        with pytest.raises(ValueError):
            Application("bad", alpha=0.0)
        with pytest.raises(ValueError):
            Application("bad", qos_target=2.0)
        with pytest.raises(ValueError):
            equal_partition([])
        apps = self.apps()
        with pytest.raises(ValueError):
            evaluate_partition(apps, np.array([0.9, 0.9]))
