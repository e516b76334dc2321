"""replay-batch and replay-feedback: encoded traces replayed through the
``repro.traces`` sinks, one ``replay(bytes, ...)`` + ``digest()`` per
input and operation.

replay-batch holds the feedforward sinks, whose handlers schedule
nothing, so the kernel drains each train in one macro batch and load,
drain and GC dominate.  replay-feedback holds sinks whose handlers
schedule new events (NoC hops, join-shortest-queue completions), so
macro batching aborts and the general drain and ``noc.py`` do the work.
Sizes are balanced so that no single input owns a pass.
"""

from __future__ import annotations

import io
import time
from typing import Any, Callable, Dict, List, Optional

from measure import Tracer, median, mismatches, rss_peak_mb
from passes import SETUP_REPS, import_probe, repeated_setup, run_passes
from reference import at_reference_speed

#: Interval-stats cadence, as in the scenario library's larger scenarios.
STATS_INTERVAL = 5000

#: workload -> [(input name, generator profile, generator params,
#: sink, sink params)]
SPECS = {
    "replay-batch": [
        ("queue-rr", "steady-requests",
         {"n": 80_000, "rate": 1200.0, "mean_service_us": 5000.0},
         "queue", {"n_servers": 8, "policy": "rr"}),
        ("queue-target", "straggler-requests",
         {"n": 80_000, "rate": 1000.0, "mean_service_us": 4000.0},
         "queue", {"n_servers": 16, "policy": "target"}),
        ("cpu", "instr-mix", {"n": 80_000}, "cpu", {}),
        ("memory", "kv-zipf", {"n": 10_000, "keys": 1 << 14}, "memory", {}),
        ("wear", "wear-hotline", {"n": 400_000}, "wear",
         {"leveler": "start-gap"}),
    ],
    "replay-feedback": [
        ("noc-8x8-uniform", "noc-uniform",
         {"n": 6000, "nodes": 64, "rate": 2500.0},
         "noc", {"width": 8, "height": 8, "routing": "xy"}),
        ("noc-4x4-hotspot", "noc-hotspot",
         {"n": 8000, "nodes": 16, "rate": 2500.0, "hot_fraction": 0.4},
         "noc", {"width": 4, "height": 4, "routing": "xy"}),
        ("queue-jsq", "bursty-requests",
         {"n": 25_000, "base_rate": 500.0, "burst_rate": 5000.0,
          "mean_service_us": 5000.0},
         "queue", {"n_servers": 8, "policy": "jsq"}),
    ],
}

IMPORTS = ("numpy", "repro.traces", "repro.interconnect.noc",
           "repro.memory.hierarchy", "repro.memory.wear")


class Input:
    __slots__ = ("name", "sink", "sink_params", "data", "records")

    def __init__(self, name: str, sink: str, sink_params: Dict[str, Any],
                 data: bytes, records: int) -> None:
        self.name = name
        self.sink = sink
        self.sink_params = sink_params
        self.data = data
        self.records = records


def build_inputs(workload: str, seed: int) -> List[Input]:
    """Generate each input's trace from the seed and encode it to bytes."""
    from repro.traces import TraceWriter, generate

    inputs = []
    for i, (name, profile, params, sink, sink_params) in enumerate(SPECS[workload]):
        kind, arr = generate(profile, seed=seed * 100 + i, **params)
        buf = io.BytesIO()
        with TraceWriter(buf, meta={"input": name, "seed": seed}) as w:
            w.write_block(kind, arr)
        inputs.append(Input(name, sink, sink_params, buf.getvalue(), len(arr)))
    return inputs


def replay_input(inp: Input, fastpath: Optional[str] = None):
    from repro.traces import replay

    return replay(inp.data, sink=inp.sink, sink_params=inp.sink_params,
                  fastpath=fastpath, stats_interval=STATS_INTERVAL)


def comparable(result: Any) -> Dict[str, Any]:
    """The deterministic payload of a replay, in canonical JSON types."""
    from repro.exec.cache import canonicalize

    return canonicalize({"records": result.records,
                         "outputs": result.outputs, "stats": result.stats})


def run(workload: str, seed: int, seconds: float, trace: bool, src: str,
        reference: Callable[[], float]) -> Dict[str, Any]:
    def setup():
        probe_s = import_probe(src, IMPORTS)
        t0 = time.perf_counter()
        inputs = build_inputs(workload, seed)
        warm = [replay_input(inp) for inp in inputs]
        digests = [r.digest() for r in warm]
        return probe_s + time.perf_counter() - t0, (inputs, warm, digests)

    setup_s, (inputs, warm, digests) = repeated_setup(
        setup, 1 if trace else SETUP_REPS, reference)

    attempted = [0] * len(inputs)
    failed = [0] * len(inputs)
    errors: List[str] = []

    def one_pass(tracer: Optional[Tracer]) -> None:
        for i, inp in enumerate(inputs):
            attempted[i] += 1
            try:
                span = tracer.begin("traces.replay", inp.name) if tracer else None
                try:
                    result = replay_input(inp)
                finally:
                    if span is not None:
                        tracer.end(span)
                ok = result.digest() == digests[i]
            except Exception as exc:  # a failed replay is a failed operation
                ok = False
                if len(errors) < 5:
                    errors.append(f"{inp.name}: {type(exc).__name__}: {exc}")
            failed[i] += not ok

    timed = run_passes(one_pass, seconds, trace, reference)

    # The oracle: every distinct input once more on the general drain,
    # outside the timed region and outside setup_s.
    oracle_diffs = {}
    for i, inp in enumerate(inputs):
        diffs = mismatches(comparable(warm[i]),
                           comparable(replay_input(inp, fastpath="off")))
        if diffs:
            oracle_diffs[inp.name] = diffs[:5]
            failed[i] = attempted[i]

    records = sum(inp.records for inp in inputs)
    wall_s = median(timed["walls"])
    out: Dict[str, Any] = {
        "attempted": sum(attempted),
        "failed": sum(failed),
        "correct": not oracle_diffs and not any(failed),
        "metrics": {"setup_s": setup_s, "rss_peak_mb": rss_peak_mb()},
        "record": {
            "inputs": {inp.name: {"sink": inp.sink, "records": inp.records,
                                  "bytes": len(inp.data)} for inp in inputs},
            "records_per_pass": records,
            "records_per_s": records / wall_s,
            "wall_s": wall_s,
            "passes": len(timed["walls"]),
            "pass_walls_s": timed["walls"],
            "pass_refs_s": timed["refs"],
            "gc_collections_delta": timed["gc_collections_delta"],
            "oracle_mismatches": oracle_diffs,
            "errors": errors,
        },
    }
    if not trace:
        out["metrics"]["wall_ref_s"] = median(
            at_reference_speed(timed["walls"], timed["refs"]))
    if trace:
        layer = timed["layer"]
        outputs = [(inp.sink, r.outputs) for inp, r in zip(inputs, warm)]
        layer["interconnect.packets"] = sum(
            o["packets"] for sink, o in outputs if sink == "noc")
        layer["memory.accesses"] = sum(
            o["accesses"] if sink == "memory" else o["writes"]
            for sink, o in outputs if sink in ("memory", "wear"))
        out["layer"] = layer
        out["spans"] = timed["spans"]
        out["record"]["traced_passes"] = len(timed["traced"])
    return out
