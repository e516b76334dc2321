"""Which public calls of the program each layer's spans wrap, and how
the per-layer metrics are derived from those spans.

The program carries no tracing code: :func:`install_sim` and
:func:`install_serve` patch public methods of the layer modules for the
duration of a traced pass, and :meth:`Tracer.unwrap_all` restores them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from measure import (
    GcMeter,
    Span,
    Tracer,
    outer_total,
    percentile,
    self_total,
)


class SimCounters:
    """Kernel counters of every ``Simulator`` built while installed."""

    def __init__(self) -> None:
        self.sims: List[Any] = []

    def __call__(self, sim: Any) -> None:
        self.sims.append(sim)

    def take(self) -> Dict[str, float]:
        sims, self.sims = self.sims, []
        totals = {"events": 0, "batched": 0, "aborts": 0, "declines": 0,
                  "traces_installed": 0}
        for sim in sims:
            fp = sim.fastpath_stats
            totals["events"] += sim.stats.events_executed
            totals["batched"] += fp.batched_events
            totals["aborts"] += fp.aborts
            totals["declines"] += fp.declines
            totals["traces_installed"] += fp.traces_installed
        return totals


def install_sim(tracer: Tracer) -> SimCounters:
    """Wrap the simulation layers: traces, core, interconnect, memory,
    datacenter.  Returns the kernel counter collector (an init hook)."""
    from repro.core.events import Simulator, add_init_hook, remove_init_hook
    from repro.datacenter.cluster import ClusterSimulator
    from repro.interconnect.noc import MeshNoC
    from repro.memory import wear
    from repro.traces import IntervalStats, ReplayResult, TraceReader

    tracer.wrap_iter(TraceReader, "blocks", "traces.decode")
    tracer.wrap(IntervalStats, "feed", "traces.stats")
    tracer.wrap(IntervalStats, "finish", "traces.stats")
    tracer.wrap(ReplayResult, "digest", "traces.digest")
    tracer.wrap(Simulator, "schedule_many", "core.load")
    tracer.wrap(Simulator, "schedule_batch", "core.load")
    tracer.wrap(Simulator, "run", "core.drain")
    tracer.wrap(MeshNoC, "run", "interconnect.run")
    for cls in (wear.NoWearLeveling, wear.StartGapWearLeveling,
                wear.TableWearLeveling):
        tracer.wrap(cls, "write_stream", "memory.write_stream")
    tracer.wrap(ClusterSimulator, "run", "datacenter.cluster_run")

    counters = SimCounters()
    add_init_hook(counters)
    tracer.on_unwrap(lambda: remove_init_hook(counters))
    return counters


def sim_metrics(spans: Sequence[Span], counters: Dict[str, float],
                passes: int) -> Dict[str, float]:
    """Per-pass layer metrics of the simulation stack."""
    drain_s = self_total(spans, "core.drain")
    events = counters["events"]
    per = 1.0 / passes
    return {
        "traces.decode_s": outer_total(spans, "traces.decode") * per,
        "traces.stats_s": outer_total(spans, "traces.stats") * per,
        "traces.digest_s": outer_total(spans, "traces.digest") * per,
        "traces.replay_self_s": self_total(spans, "traces.replay") * per,
        "core.load_s": outer_total(spans, "core.load") * per,
        "core.drain_s": drain_s * per,
        "core.events": events * per,
        "core.drain_ns_per_event": drain_s / events * 1e9 if events else 0.0,
        "core.batched_ratio": counters["batched"] / events if events else 0.0,
        "core.aborts": counters["aborts"] * per,
        "core.declines": counters["declines"] * per,
        "core.traces_installed": counters["traces_installed"] * per,
        "interconnect.run_self_s": self_total(spans, "interconnect.run") * per,
        "memory.write_stream_s": outer_total(spans, "memory.write_stream") * per,
        "datacenter.cluster_run_s": outer_total(spans, "datacenter.cluster_run") * per,
    }


def gc_metrics(meter: GcMeter, windows: Sequence[tuple]) -> Dict[str, float]:
    """Per-pass collector pauses and counts inside the traced windows."""
    total = {"pause_s": 0.0, "collections": 0.0, "gen2_collections": 0.0}
    for start, end in windows:
        for key, value in meter.totals(start, end).items():
            total[key] += value
    return {f"gc.{k}": v / len(windows) for k, v in total.items()}


def install_serve(tracer: Tracer) -> None:
    """Wrap the serve and exec layers inside the server process.

    Serve spans carry the design id of the request they belong to.
    """
    from repro.exec.cache import ResultCache
    from repro.exec.runners import ProcessPoolRunner
    from repro.serve import server
    from repro.serve.admission import AdmissionController
    from repro.serve.coalesce import Coalescer

    tracer.wrap(server, "design_point", "serve.design_point",
                lambda a, k, r: r.design_id if r is not None else None)
    tracer.wrap(Coalescer, "submit", "serve.coalesce",
                lambda a, k, r: a[1].design_id)
    tracer.wrap(AdmissionController, "try_admit", "serve.admit",
                lambda a, k, r: a[1].design_id)
    tracer.wrap(Coalescer, "complete", "serve.publish",
                lambda a, k, r: [a[1].design_id, k.get("duration_s", 0.0)])
    tracer.wrap(ProcessPoolRunner, "submit", "exec.submit",
                lambda a, k, r: a[1].id)
    tracer.wrap(ProcessPoolRunner, "poll", "exec.poll",
                lambda a, k, r: len(r) if r is not None else 0)
    tracer.wrap(ResultCache, "get", "exec.cache_get")
    tracer.wrap(ResultCache, "put", "exec.cache_put")


def _ms_p(values: List[float], p: float) -> float:
    return percentile(values, p) * 1e3 if values else 0.0


def serve_metrics(spans: Sequence[Span], passes: int,
                  tail_p: float) -> Dict[str, Any]:
    """Per-pass serve/exec layer metrics plus per-design admit->complete
    intervals (for the client-side ``outside`` split)."""
    per = 1.0 / passes
    admitted: Dict[str, float] = {}
    submitted: Dict[str, float] = {}
    waits: List[float] = []
    backend: List[float] = []
    jobs: List[float] = []
    inside: Dict[str, float] = {}
    polls = empty = 0
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "serve.admit":
            admitted[s.tag] = s.start
        elif s.name == "exec.submit":
            submitted[s.tag] = s.start
            if s.tag in admitted:
                waits.append(s.start - admitted[s.tag])
        elif s.name == "serve.publish":
            design_id, duration_s = s.tag
            jobs.append(duration_s)
            if design_id in submitted:
                backend.append(s.end - submitted.pop(design_id))
            if design_id in admitted:
                inside[design_id] = s.end - admitted.pop(design_id)
        elif s.name == "exec.poll":
            polls += 1
            empty += s.tag == 0
    durations = lambda name: [s.duration for s in spans if s.name == name]
    metrics = {
        "serve.design_point_s": sum(durations("serve.design_point")) * per,
        "serve.coalesce_s": sum(durations("serve.coalesce")) * per,
        "serve.admit_s": sum(durations("serve.admit")) * per,
        "serve.publish_s": sum(durations("serve.publish")) * per,
        "serve.dispatch_wait_ms_p50": _ms_p(waits, 50.0),
        "serve.dispatch_wait_ms_p99": _ms_p(waits, tail_p),
        "serve.backend_ms_p50": _ms_p(backend, 50.0),
        "serve.backend_ms_p99": _ms_p(backend, tail_p),
        "serve.job_ms_p50": _ms_p(jobs, 50.0),
        "exec.submit_ms_p50": _ms_p(durations("exec.submit"), 50.0),
        "exec.poll_calls": polls * per,
        "exec.poll_empty_ratio": empty / polls if polls else 0.0,
        "exec.cache_get_ms_p50": _ms_p(durations("exec.cache_get"), 50.0),
        "exec.cache_put_s": sum(durations("exec.cache_put")) * per,
    }
    return {"metrics": metrics, "inside": inside,
            "samples": {"dispatch_wait": len(waits), "backend": len(backend)}}
