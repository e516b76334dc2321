"""The timed loop shared by the in-process workloads (replay, sweep).

A *pass* runs the workload's fixed input once.  The untraced run times
passes for the requested seconds, with the host-speed reference
(``reference.py``) timed before each pass and after the last, and
reports the median pass wall rescaled to the reference host speed.  The
traced run alternates untraced and traced passes, so the traced wall and
the untraced wall come from the same process and the same period.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from layers import gc_metrics, install_sim, sim_metrics
from measure import (
    GcMeter,
    Span,
    Tracer,
    export_spans,
    gc_collections,
    median,
    paired_ratio,
    unattributed,
)
from reference import at_reference_speed

#: Fewest passes of each kind a run reports a median over.
MIN_PASSES = 5
#: Set-up repetitions per untraced run; setup_s is their median.
SETUP_REPS = 5
#: Bound on one import probe (a fresh interpreter importing the layers).
PROBE_TIMEOUT_S = 120.0


def import_probe(src: str, modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def repeated_setup(setup: Callable[[], Any], reps: int,
                   reference: Callable[[], float]) -> Tuple[float, Any]:
    """Run ``setup`` ``reps`` times; its median seconds at the reference
    host speed and its first result.

    ``setup`` returns ``(seconds, value)`` so it can add time measured
    elsewhere (an import probe) to its own.  ``reference`` times the
    host-speed reference.
    """
    times: List[float] = []
    refs: List[float] = []
    first = None
    for i in range(reps):
        refs.append(reference())
        seconds, value = setup()
        times.append(seconds)
        if i == 0:
            first = value
    refs.append(reference())
    return median(at_reference_speed(times, refs)), first


class TracedPass:
    """What one traced pass left behind."""

    def __init__(self, start: float, end: float, spans: List[Span],
                 counters: Dict[str, float], extra: Any) -> None:
        self.start = start
        self.end = end
        self.spans = spans
        self.counters = counters
        self.extra = extra


def run_passes(
    one_pass: Callable[[Optional[Tracer]], Any],
    seconds: float,
    trace: bool,
    reference: Callable[[], float],
) -> Dict[str, Any]:
    """Time passes for ``seconds`` (at least :data:`MIN_PASSES` of each
    kind).  ``one_pass(tracer)`` gets the tracer on traced passes only,
    for the spans it opens itself around calls into the program.
    ``reference`` times the host-speed reference around untraced runs'
    passes."""
    walls: List[float] = []
    refs: List[float] = []
    traced: List[TracedPass] = []
    tracer = Tracer()
    meter = GcMeter().install() if trace else None
    gc_before = gc_collections()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            if trace and len(walls) > len(traced):
                counters = install_sim(tracer)
                t0 = time.perf_counter()
                try:
                    extra = one_pass(tracer)
                finally:
                    t1 = time.perf_counter()
                    tracer.unwrap_all()
                traced.append(TracedPass(t0, t1, tracer.take(),
                                         counters.take(), extra))
            else:
                if not trace:
                    refs.append(reference())
                t0 = time.perf_counter()
                one_pass(None)
                walls.append(time.perf_counter() - t0)
            enough = len(walls) >= MIN_PASSES and (
                not trace or len(traced) >= MIN_PASSES)
            if enough and time.perf_counter() >= deadline:
                break
        if not trace:
            refs.append(reference())
    finally:
        if meter is not None:
            meter.remove()
    gc_after = gc_collections()
    out: Dict[str, Any] = {
        "walls": walls,
        "refs": refs,
        "gc_collections_delta": [a - b for a, b in zip(gc_after, gc_before)],
    }
    if trace:
        n = len(traced)
        spans = [s for p in traced for s in p.spans]
        counters = {k: sum(p.counters[k] for p in traced)
                    for k in traced[0].counters}
        layer = sim_metrics(spans, counters, n)
        layer.update(gc_metrics(meter, [(p.start, p.end) for p in traced]))
        layer["tracing.overhead_ratio"] = paired_ratio(
            [p.end - p.start for p in traced], walls)
        layer["tracing.unattributed_s"] = sum(
            unattributed(p.spans, p.start, p.end) for p in traced) / n
        out["layer"] = layer
        out["traced"] = traced
        out["spans"] = export_spans(spans)
    return out
