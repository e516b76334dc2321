"""Differential oracle for the batched fault-injection interpreter.

``execute_registers_batch`` runs every flip of a campaign as one row of
an int64 register matrix.  The oracle below is a frozen copy of the
one-run-at-a-time interpreter it replaced (plain Python ints, a checker
call on the live register list after every instruction, stop at the
first detection), together with frozen copies of the scalar range,
relation and DMR checkers.  Every flip's final registers and detected
flag, and every campaign's outcome counts, must match it exactly.
"""

import warnings

import numpy as np
import pytest

from repro.analysis.paper_experiments import run_e19_verification
from repro.crosscut.faults import (
    Outcome,
    execute_registers,
    execute_registers_batch,
    injection_campaign,
)
from repro.crosscut.invariants import (
    dmr_checker_factory,
    range_invariant_checker,
    relation_invariant_checker,
)
from repro.processor import generate_trace
from repro.processor.isa import NUM_REGISTERS, Instruction, Opcode

_MASK = (1 << 20) - 1


def oracle_execute(trace, flip=None, checker=None):
    """The scalar interpreter, frozen as it was before batching."""
    regs = list(range(1, NUM_REGISTERS + 1))
    detected = False
    flip_idx = flip[0] if flip is not None else -1
    for i, instr in enumerate(trace):
        if i == flip_idx:
            _, reg, bit = flip
            regs[reg] ^= 1 << bit
        srcs = instr.srcs
        n_srcs = len(srcs)
        if n_srcs:
            a = regs[srcs[0]]
            b = regs[srcs[1]] if n_srcs > 1 else 1
        else:
            a = i
            b = 1
        opcode = instr.opcode
        if opcode is Opcode.ALU:
            value = (a + b) & _MASK
        elif opcode is Opcode.MUL:
            value = (a * b) & _MASK
        elif opcode is Opcode.DIV:
            value = a // (abs(b) + 1)
        elif opcode is Opcode.FPU or opcode is Opcode.FMA:
            c = regs[srcs[2]] if n_srcs > 2 else 3
            value = (a * b + c) & _MASK
        elif opcode is Opcode.LOAD:
            value = (instr.address or 0) & _MASK
        else:
            value = None
        if instr.dst is not None and value is not None:
            regs[instr.dst] = value
        if checker is not None and not checker(regs):
            detected = True
            break
    return regs, detected


def oracle_range(bound):
    return lambda regs: -bound < min(regs) and max(regs) < bound


def oracle_relation(max_jump):
    previous = [None]

    def check(regs):
        prev = previous[0]
        ok = True
        if prev is not None:
            for r, p in zip(regs, prev):
                d = r - p
                if d >= max_jump or -d >= max_jump:
                    ok = False
                    break
        previous[0] = list(regs)
        return ok

    return check


def oracle_dmr():
    return lambda regs: True


def oracle_campaign(trace, flips, factory=None):
    golden, _ = oracle_execute(trace)
    counts = {o: 0 for o in Outcome}
    for flip in flips:
        final, detected = oracle_execute(
            trace, flip, factory() if factory else None
        )
        if detected:
            counts[Outcome.DETECTED] += 1
        elif final == golden:
            counts[Outcome.MASKED] += 1
        else:
            counts[Outcome.SDC] += 1
    return counts


def every_opcode_trace(n=240, seed=11):
    """Random instructions over every opcode with 0-3 sources, and
    LOAD/STORE addresses far above 2^20 (the mask must apply)."""
    gen = np.random.default_rng(seed)
    opcodes = list(Opcode)
    trace = []
    for i in range(n):
        opcode = opcodes[i % len(opcodes)] if i < 27 else (
            opcodes[int(gen.integers(len(opcodes)))]
        )
        srcs = tuple(
            int(r) for r in gen.integers(NUM_REGISTERS, size=int(i % 4))
        )
        dst = int(gen.integers(NUM_REGISTERS)) if i % 5 else None
        address = None
        if opcode in (Opcode.LOAD, Opcode.STORE):
            address = int(gen.integers(1 << 40)) | (1 << 21)
        taken = bool(i % 2) if opcode is Opcode.BRANCH else None
        trace.append(Instruction(opcode, dst=dst, srcs=srcs,
                                 address=address, taken=taken))
    return trace


def random_flips(trace, n, seed, bits=63):
    gen = np.random.default_rng(seed)
    return [
        (int(gen.integers(len(trace))), int(gen.integers(NUM_REGISTERS)),
         int(gen.integers(bits)))
        for _ in range(n)
    ]


def assert_batch_matches_oracle(trace, flips, checker, oracle_factory):
    """Each row equals its own oracle run, with a fresh oracle checker."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warnings
        final, detected = execute_registers_batch(trace, flips, checker)
    assert final.dtype == np.int64
    assert final.shape == (len(flips), NUM_REGISTERS)
    for row, flip in enumerate(flips):
        regs, hit = oracle_execute(
            trace, flip, oracle_factory() if oracle_factory else None
        )
        assert final[row].tolist() == regs, f"flip {flip}"
        assert bool(detected[row]) == hit, f"flip {flip}"
    return detected


@pytest.fixture(scope="module")
def mixed_trace():
    return every_opcode_trace()


@pytest.fixture(scope="module")
def paper_trace():
    return generate_trace(300, rng=0)


class TestEveryOpcode:
    def test_trace_covers_every_opcode_and_arity(self, mixed_trace):
        assert {i.opcode for i in mixed_trace} == set(Opcode)
        writers = [i for i in mixed_trace if i.dst is not None]
        arities = {(i.opcode, len(i.srcs)) for i in writers}
        for opcode in (Opcode.ALU, Opcode.MUL, Opcode.DIV, Opcode.FPU,
                       Opcode.FMA):
            for n_srcs in (0, 1, 3):
                assert (opcode, n_srcs) in arities
        assert any(i.opcode is Opcode.LOAD and i.address > _MASK
                   for i in writers)

    def test_unchecked_flips_match(self, mixed_trace):
        flips = random_flips(mixed_trace, 150, seed=1) + [None]
        assert_batch_matches_oracle(mixed_trace, flips, None, None)

    def test_fault_free_run_matches(self, mixed_trace, paper_trace):
        for trace in (mixed_trace, paper_trace):
            final, detected = execute_registers(trace)
            assert final.tolist() == oracle_execute(trace)[0]
            assert detected is False


class TestBit62:
    """Bit 62 makes sums and products wrap int64; the 20-bit mask
    must still give what unbounded integers give."""

    def test_bit62_grid(self, mixed_trace, paper_trace):
        for trace in (mixed_trace, paper_trace):
            flips = [
                (i, r, 62)
                for i in range(0, len(trace), 7)
                for r in range(0, NUM_REGISTERS, 5)
            ]
            assert_batch_matches_oracle(trace, flips, None, None)

    def test_bit62_under_checkers(self, paper_trace):
        flips = [(i, r, 62) for i in range(0, 300, 11) for r in (0, 9, 31)]
        assert_batch_matches_oracle(
            paper_trace, flips, relation_invariant_checker(1 << 24),
            lambda: oracle_relation(1 << 24),
        )


class TestCheckers:
    @pytest.mark.parametrize("bound", [1 << 20, 1 << 26])
    def test_range(self, mixed_trace, paper_trace, bound):
        for trace in (mixed_trace, paper_trace):
            flips = random_flips(trace, 160, seed=bound % 97)
            detected = assert_batch_matches_oracle(
                trace, flips, range_invariant_checker(bound),
                lambda: oracle_range(bound),
            )
            assert 0 < detected.sum() < len(flips)

    @pytest.mark.parametrize("max_jump", [1 << 20, 1 << 24])
    def test_relation(self, mixed_trace, paper_trace, max_jump):
        for trace in (mixed_trace, paper_trace):
            flips = random_flips(trace, 160, seed=max_jump % 89)
            detected = assert_batch_matches_oracle(
                trace, flips, relation_invariant_checker(max_jump),
                lambda: oracle_relation(max_jump),
            )
            assert detected.sum() < len(flips)

    def test_dmr(self, paper_trace):
        flips = random_flips(paper_trace, 80, seed=5)
        detected = assert_batch_matches_oracle(
            paper_trace, flips, dmr_checker_factory(), oracle_dmr
        )
        assert not detected.any()

    def test_custom_scalar_checker(self, mixed_trace):
        def parity(regs):
            return int(regs[7]) % 3 != 2 or int(regs[4]) < 1000

        flips = random_flips(mixed_trace, 120, seed=8)
        detected = assert_batch_matches_oracle(
            mixed_trace, flips, parity, lambda: parity
        )
        assert 0 < detected.sum() < len(flips)

    def test_per_row_stateful_checkers(self, paper_trace):
        """A non-vectorized factory gets one instance per injection."""

        def budget():
            seen = [0]

            def check(regs):
                seen[0] += int(regs[3]) & 1
                return seen[0] < 40

            return check

        flips = random_flips(paper_trace, 60, seed=9)
        checkers = [budget() for _ in flips]
        assert_batch_matches_oracle(paper_trace, flips, checkers, budget)
        assert injection_campaign(
            paper_trace, flips=flips, checker_factory=budget
        ).outcomes == oracle_campaign(paper_trace, flips, budget)

    def test_one_checker_per_row(self, paper_trace):
        with pytest.raises(ValueError, match="one checker per flip"):
            execute_registers_batch(
                paper_trace, [(1, 2, 3), (4, 5, 6)], [oracle_dmr()]
            )


class TestDetectedRowsFreeze:
    """A row caught before its flip is due keeps its registers as they
    were at detection; its flip and later instructions are moot."""

    @staticmethod
    def late_bound(trace):
        """A range bound the fault-free run crosses late (at its last
        new maximum), and the step at which it does."""
        highs = []

        def record(regs):
            highs.append(max(regs))
            return True

        oracle_execute(trace, None, record)
        caught_at = max(
            i for i in range(1, len(highs)) if highs[i] > max(highs[:i])
        )
        return highs[caught_at], caught_at

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_flips_after_detection(self, mixed_trace, paper_trace,
                                   vectorized):
        for trace in (mixed_trace, paper_trace):
            bound, caught_at = self.late_bound(trace)
            late = [(i, i % NUM_REGISTERS, 40)
                    for i in range(caught_at + 1, len(trace))][:60]
            assert late
            flips = late + random_flips(trace, 100, seed=3)
            checker = (range_invariant_checker(bound) if vectorized
                       else oracle_range(bound))
            detected = assert_batch_matches_oracle(
                trace, flips, checker, lambda: oracle_range(bound)
            )
            assert detected[:len(late)].all()


class TestCampaignCounts:
    @pytest.mark.parametrize("scheme", ["none", "range", "relation", "dmr"])
    def test_counts_match(self, paper_trace, scheme):
        factories = {
            "none": (None, None),
            "range": (lambda: range_invariant_checker(1 << 20),
                      lambda: oracle_range(1 << 20)),
            "relation": (lambda: relation_invariant_checker(1 << 20),
                         lambda: oracle_relation(1 << 20)),
            "dmr": (dmr_checker_factory, oracle_dmr),
        }
        factory, oracle_factory = factories[scheme]
        flips = random_flips(paper_trace, 200, seed=4, bits=31)
        got = injection_campaign(
            paper_trace, flips=flips, checker_factory=factory
        )
        assert got.outcomes == oracle_campaign(
            paper_trace, flips, oracle_factory
        )


class TestE19Pinned:
    def test_values_equal_experiments_md(self):
        out = run_e19_verification()
        assert out == {
            "baseline_sdc_rate": 0.125,
            "invariant_sdc_rate": 0.09,
            "invariant_overhead": 0.06,
            "dmr_overhead": 1.0,
            "invariant_efficiency": 0.5833333333333334,
            "dmr_efficiency": 0.125,
            "holds": True,
        }
