"""Fault-injection framework (paper Section 2.4 "Verifiability and
Reliability").

Two layers:

* **Architectural**: single-bit flips into the register state of the
  tiny-ISA in-order core mid-trace, classified the standard way —
  **masked** (architectural state converges to the golden run), **SDC**
  — silent data corruption (run completes, final state differs), or
  **detected** (a checker caught it).  A campaign runs as one array
  program: :func:`execute_registers_batch` steps every flip's register
  file at once as a row of an int64 matrix, freezing rows a checker
  catches; :func:`execute_registers` is a batch of one.  A checker
  built with :func:`vectorized_checker` sees the whole matrix per step;
  any other callable sees one live row at a time.  The E19 experiment
  layers checkers from :mod:`repro.crosscut.invariants` on top.
* **System-level**: :class:`KernelFaultInjector` schedules random fault
  events on the shared event kernel and drives them into any model that
  implements ``inject_fault(sim, rng)`` (the cluster degrades a server,
  the NoC stalls a link, ...).  Because every simulator in the library
  runs on the one kernel, any of them gets fault injection without
  bespoke plumbing — the "ilities" as a cross-cutting layer, as the
  paper demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.events import Simulator
from ..core.rng import RngLike, resolve_rng
from ..processor.isa import Instruction, NUM_REGISTERS, Opcode


class Outcome(Enum):
    MASKED = "masked"
    SDC = "silent_data_corruption"
    DETECTED = "detected"


_MASK = (1 << 20) - 1
#: Opcodes that write their destination register.
_WRITES = frozenset(
    (Opcode.ALU, Opcode.MUL, Opcode.DIV, Opcode.FPU, Opcode.FMA, Opcode.LOAD)
)

#: One fault: flip ``bit`` of ``register`` just before instruction ``index``.
Flip = tuple[int, int, int]


def vectorized_checker(
    batch: Callable[[np.ndarray], np.ndarray],
) -> Callable[[Sequence[int]], bool]:
    """Wrap a whole-batch check as a checker the interpreter vectorizes.

    ``batch`` takes the ``(n, NUM_REGISTERS)`` int64 register matrix and
    returns a length-``n`` bool array, False where a row is caught.  The
    interpreter calls it once per step on every row; results for rows
    already detected are ignored.  The returned callable also works as a
    plain checker on one register file (a batch of one), so a vectorized
    checker fits everywhere a scalar one does.
    """

    def check(regs: Sequence[int]) -> bool:
        row = np.asarray(regs, dtype=np.int64).reshape(1, NUM_REGISTERS)
        return bool(batch(row)[0])

    check.batch = batch
    return check


def _check_flip(flip: Sequence[int], n_instructions: int) -> Flip:
    index, reg, bit = (int(x) for x in flip)
    if not 0 <= index < n_instructions:
        raise ValueError(
            f"flip instruction index {index} outside the "
            f"{n_instructions}-instruction trace"
        )
    if not 0 <= reg < NUM_REGISTERS:
        raise ValueError("flip register out of range")
    if not 0 <= bit < 63:
        raise ValueError("flip bit out of range")
    return index, reg, bit


def execute_registers_batch(
    trace: Sequence[Instruction],
    flips: Sequence[Optional[Flip]],
    checker: Callable | Sequence[Callable] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Architectural register-file interpreter for the tiny ISA.

    Executes a deterministic arithmetic semantics (each opcode a fixed
    integer function of its sources) so fault effects propagate
    realistically.  Every entry of ``flips`` is one run: row ``k`` of an
    ``(n, NUM_REGISTERS)`` int64 register matrix, and each instruction
    is one vector step over all rows.  A flip ``(index, register,
    bit)`` XORs that bit into its row just before instruction
    ``index``; ``None`` runs the row fault-free.  Every flip is
    validated up front: an index outside the trace, or a bad register
    or bit, raises ``ValueError``.

    Every stored value is non-negative and below 2^63, and every sum or
    product that can wrap is masked to 20 bits, so int64 arithmetic
    gives the same registers as unbounded integers would.

    ``checker`` runs after every instruction; False means detected.  A
    detected row is frozen: its registers are kept as they were at
    detection, its later flips are moot, and it is not checked again.
    The loop stops once every row is detected.  ``checker`` may be

    * a :func:`vectorized_checker`, called once per step on the whole
      matrix;
    * any other callable, called once per live row per step on that
      row's **live** registers (a view into the matrix: it must not
      mutate it, and should copy anything it keeps);
    * a list of such callables, one per row.

    Returns (final register matrix, detected flags).
    """
    n_instructions = len(trace)
    due: dict = {}
    for row, flip in enumerate(flips):
        if flip is not None:
            index, reg, bit = _check_flip(flip, n_instructions)
            due.setdefault(index, []).append((row, reg, 1 << bit))
    due = {i: tuple(np.array(col) for col in zip(*hits))
           for i, hits in due.items()}
    n = len(flips)
    # Column-major, so each source/destination column is contiguous.
    regs = np.empty((n, NUM_REGISTERS), dtype=np.int64, order="F")
    regs[:] = np.arange(1, NUM_REGISTERS + 1)  # nonzero init
    live = np.ones(n, dtype=bool)
    frozen = np.empty_like(regs)
    batch = getattr(checker, "batch", None)
    if batch is None and callable(checker):
        checker = [checker] * n
    if batch is None and checker is not None and len(checker) != n:
        raise ValueError("need one checker per flip")
    mask = _MASK
    for i, instr in enumerate(trace):
        hit = due.get(i)
        if hit is not None:
            rows, cols, bits = hit
            regs[rows, cols] ^= bits
        dst = instr.dst
        opcode = instr.opcode
        if dst is not None and opcode in _WRITES:
            srcs = instr.srcs
            n_srcs = len(srcs)
            if n_srcs:
                a = regs[:, srcs[0]]
                b = regs[:, srcs[1]] if n_srcs > 1 else 1
            else:
                a = i
                b = 1
            if opcode is Opcode.ALU:
                value = (a + b) & mask
            elif opcode is Opcode.MUL:
                value = (a * b) & mask
            elif opcode is Opcode.DIV:
                value = a // (abs(b) + 1)
            elif opcode is Opcode.LOAD:
                value = (instr.address or 0) & mask
            else:  # FPU, FMA
                c = regs[:, srcs[2]] if n_srcs > 2 else 3
                value = (a * b + c) & mask
            regs[:, dst] = value
        if checker is None:
            continue
        if batch is not None:
            caught = live & ~batch(regs)
        else:
            caught = np.zeros(n, dtype=bool)
            for row in np.flatnonzero(live):
                if not checker[row](regs[row]):
                    caught[row] = True
        if caught.any():
            frozen[caught] = regs[caught]
            live &= ~caught
            if not live.any():
                break
    detected = ~live
    regs[detected] = frozen[detected]
    return regs, detected


def execute_registers(
    trace: Sequence[Instruction],
    flip: Optional[Flip] = None,
    checker: Optional[Callable[[Sequence[int]], bool]] = None,
) -> tuple[np.ndarray, bool]:
    """One run of :func:`execute_registers_batch` (a batch of one).

    ``flip`` = (instruction_index, register, bit), or None for the
    fault-free run.  Returns (final registers as int64 array, detected).
    """
    regs, detected = execute_registers_batch(trace, [flip], checker)
    return np.array(regs[0]), bool(detected[0])


@dataclass
class CampaignResult:
    """Aggregate outcome counts from a fault-injection campaign."""

    outcomes: dict

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    def rate(self, outcome: Outcome) -> float:
        if self.total == 0:
            return float("nan")
        return self.outcomes.get(outcome, 0) / self.total

    @property
    def sdc_rate(self) -> float:
        return self.rate(Outcome.SDC)

    @property
    def coverage(self) -> float:
        """Detected / (detected + SDC): checker quality on live faults."""
        detected = self.outcomes.get(Outcome.DETECTED, 0)
        sdc = self.outcomes.get(Outcome.SDC, 0)
        if detected + sdc == 0:
            return float("nan")
        return detected / (detected + sdc)


def draw_flips(
    trace: Sequence[Instruction], n_injections: int, rng: RngLike = None
) -> list[Flip]:
    """Draw ``n_injections`` random (instruction, register, bit) flips.

    Each flip draws its three fields in that order from ``rng``, so a
    seed fixes the whole flip set.
    """
    if n_injections < 1:
        raise ValueError("need at least one injection")
    if not trace:
        raise ValueError("trace must be non-empty")
    gen = resolve_rng(rng)
    n_instructions = len(trace)
    return [
        (
            int(gen.integers(n_instructions)),
            int(gen.integers(NUM_REGISTERS)),
            int(gen.integers(31)),
        )
        for _ in range(n_injections)
    ]


def injection_campaign(
    trace: Sequence[Instruction],
    n_injections: int = 200,
    checker: Optional[Callable[[np.ndarray], bool]] = None,
    checker_factory: Optional[
        Callable[[], Callable[[np.ndarray], bool]]
    ] = None,
    rng: RngLike = None,
    flips: Optional[Sequence[Flip]] = None,
) -> CampaignResult:
    """Random single-bit-flip campaign against a trace.

    Each injection picks a random (instruction, register, bit) and
    compares the final register file to a golden run; all injections
    run together as one :func:`execute_registers_batch`.  Pass
    ``checker_factory`` for stateful checkers: it is called once when
    it builds a :func:`vectorized_checker` (which keeps its state per
    row), and once per injection otherwise, so state cannot leak
    between runs.  A plain ``checker`` is shared by every run and must
    be stateless.

    Pass ``flips`` — an explicit sequence of (instruction_index,
    register, bit) triples — for a deterministic campaign whose
    outcomes are known by construction (e.g. classification tests);
    it overrides ``n_injections`` and draws nothing from ``rng``.
    Every flip must land inside the trace (else ``ValueError``).
    """
    if checker is not None and checker_factory is not None:
        raise ValueError("pass either checker or checker_factory, not both")
    if flips is None:
        flips = draw_flips(trace, n_injections, rng)
    else:
        if not trace:
            raise ValueError("trace must be non-empty")
        flips = list(flips)  # validated by the interpreter
        if not flips:
            raise ValueError("flips must be non-empty when given")
    if checker_factory is not None:
        checker = checker_factory()
        if not hasattr(checker, "batch"):
            checker = [checker] + [
                checker_factory() for _ in range(len(flips) - 1)
            ]
    golden, _ = execute_registers(trace)
    final, detected = execute_registers_batch(trace, flips, checker)
    n_detected = int(detected.sum())
    n_masked = int(((final == golden).all(axis=1) & ~detected).sum())
    return CampaignResult(outcomes={
        Outcome.MASKED: n_masked,
        Outcome.SDC: len(flips) - n_masked - n_detected,
        Outcome.DETECTED: n_detected,
    })


@runtime_checkable
class FaultTarget(Protocol):
    """Anything the kernel injector can shoot at.

    ``inject_fault`` applies one transient fault to the model's state at
    the simulator's current time (the cluster degrades a random server,
    the NoC stalls a random link, ...) and is responsible for scheduling
    its own recovery if the fault heals.
    """

    def inject_fault(self, sim: Simulator, rng: np.random.Generator) -> None: ...


class KernelFaultInjector:
    """Poisson fault process over the shared event kernel.

    Faults arrive with exponential interarrival times (``mean_interval``
    apart on average) and each one is delivered to a registered target,
    chosen uniformly when there are several.  Targets only need the
    :class:`FaultTarget` protocol, so any kernel-hosted model gains
    fault injection without bespoke plumbing.

    Usage::

        sim = Simulator()
        injector = KernelFaultInjector(mean_interval=50.0, rng=7)
        injector.register(cluster)
        injector.arm(sim, horizon=1_000.0)
        cluster.run(..., sim=sim)

    ``arm`` pre-schedules the whole fault train inside ``horizon`` so
    the injector composes with models that drive ``sim.run`` themselves;
    injections are counted and traced through ``sim.metrics``.
    """

    def __init__(
        self, mean_interval: float, rng: RngLike = None
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean fault interval must be positive")
        self.mean_interval = float(mean_interval)
        self.rng = resolve_rng(rng)
        self.targets: List[FaultTarget] = []
        self.injected = 0
        self._tokens: list = []
        self._armed = False
        self._armed_sim = None

    @property
    def armed(self) -> bool:
        """True between a successful :meth:`arm` and :meth:`disarm`."""
        return self._armed

    # -- Checkpointable protocol -------------------------------------------
    #
    # The injector's RNG advances on every fault delivery, so a kernel
    # restore must roll it back too — otherwise replayed fault events
    # would pick different targets/parameters than the original run and
    # crash-resume determinism would break.

    def snapshot_state(self):
        return (self.rng.bit_generator.state, self.injected)

    def restore_state(self, state) -> None:
        self.rng.bit_generator.state = state[0]
        self.injected = state[1]

    def register(self, target: FaultTarget) -> None:
        if not isinstance(target, FaultTarget):
            raise TypeError(
                f"{type(target).__name__} does not implement inject_fault()"
            )
        self.targets.append(target)

    def _fire(self, sim: Simulator, _payload) -> None:
        if not self.targets:
            return
        idx = (
            int(self.rng.integers(len(self.targets)))
            if len(self.targets) > 1
            else 0
        )
        target = self.targets[idx]
        target.inject_fault(sim, self.rng)
        self.injected += 1
        stats = sim.metrics.scoped("faults")
        stats.counter("injected").inc()
        stats.trace(sim.now, "inject", type(target).__name__)

    def arm(self, sim: Simulator, horizon: float) -> int:
        """Pre-schedule the fault train on ``sim`` within ``horizon``.

        Returns the number of fault events scheduled.  Call
        :meth:`disarm` to cancel any that have not yet fired.  Arming
        twice without a disarm in between raises: it would schedule a
        second, overlapping fault train and double the effective rate.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if self._armed:
            raise RuntimeError(
                "KernelFaultInjector is already armed; call disarm() "
                "before re-arming (a second arm() would schedule a "
                "duplicate fault train)"
            )
        self._armed = True
        # An armed injector is a kernel observer: it must see (and be
        # able to perturb) model state between any two events, so the
        # kernel's macro/trace fast paths stand down until disarm.
        block = getattr(sim, "fastpath_block", None)
        if block is not None:
            block()
            self._armed_sim = sim
        sim.register_checkpointable(self)
        t = sim.now
        scheduled = 0
        while True:
            t += float(self.rng.exponential(self.mean_interval))
            if t > sim.now + horizon:
                break
            self._tokens.append(sim.schedule_at(t, self._fire))
            scheduled += 1
        return scheduled

    def disarm(self) -> int:
        """Cancel every still-pending fault event; returns how many.

        Idempotent: a second disarm (or a disarm before any arm) is a
        no-op returning 0.
        """
        cancelled = 0
        for token in self._tokens:
            if not token.cancelled:
                token.cancel()
                cancelled += 1
        self._tokens.clear()
        self._armed = False
        if self._armed_sim is not None:
            self._armed_sim.fastpath_unblock()
            self._armed_sim = None
        return cancelled
