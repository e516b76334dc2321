"""paper-sweep: ``REGISTRY.run_all()`` over E01-E22 on the serial path,
the work ``python -m repro`` does.

The seed only permutes the order of the experiment ids in each sweep;
the experiments carry their own fixed seeds, so every sweep must
reproduce the warm-up sweep's values exactly.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Callable, Dict, List, Optional

from measure import Tracer, median, rss_peak_mb
from passes import SETUP_REPS, import_probe, repeated_setup, run_passes
from reference import at_reference_speed

#: Experiments named as their own per-layer metrics (the four that
#: take most of a sweep); the rest are summed into analysis.rest_s.
NAMED = ("E07", "E17", "E19", "E22")


def _canonical(results: Dict[str, dict]) -> Dict[str, str]:
    from repro.exec.cache import canonicalize

    return {eid: json.dumps(canonicalize(row), sort_keys=True)
            for eid, row in results.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, src: str,
        reference: Callable[[], float]) -> Dict[str, Any]:
    from repro.analysis import REGISTRY
    from repro.analysis.experiments import Experiment

    ids = REGISTRY.ids()
    rng = random.Random(seed)

    def setup():
        probe_s = import_probe(src, ("repro.analysis",))
        t0 = time.perf_counter()
        warm = REGISTRY.run_all(only=rng.sample(ids, len(ids)))
        seconds = probe_s + time.perf_counter() - t0
        holds = all(bool(row.get("holds")) for row in warm.values())
        return seconds, (_canonical(warm), holds)

    setup_s, (expected, expected_holds) = repeated_setup(
        setup, 1 if trace else SETUP_REPS, reference)
    sweeps: List[Dict[str, dict]] = []

    def one_pass(tracer: Optional[Tracer]) -> Dict[str, float]:
        if tracer is not None:
            tracer.wrap(Experiment, "execute", "analysis.experiment",
                        lambda a, k, r: a[0].id)
        sweeps.append(REGISTRY.run_all(only=rng.sample(ids, len(ids))))
        return {eid: rec.wall_time_s
                for eid, rec in REGISTRY.last_report.records.items()}

    timed = run_passes(one_pass, seconds, trace, reference)
    counts = {"attempted": 0, "failed": 0}
    for results in sweeps:
        got = _canonical(results)
        for eid in ids:
            counts["attempted"] += 1
            ok = (got.get(eid) == expected[eid]
                  and bool(results[eid].get("holds")))
            counts["failed"] += not ok
    wall_s = median(timed["walls"])
    out: Dict[str, Any] = {
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "correct": counts["failed"] == 0 and expected_holds,
        "metrics": {"setup_s": setup_s, "rss_peak_mb": rss_peak_mb()},
        "record": {
            "experiments": len(ids),
            "wall_s": wall_s,
            "sweeps": len(timed["walls"]),
            "pass_walls_s": timed["walls"],
            "pass_refs_s": timed["refs"],
            "experiments_per_s": len(ids) / wall_s,
            "gc_collections_delta": timed["gc_collections_delta"],
        },
    }
    if not trace:
        out["metrics"]["wall_ref_s"] = median(
            at_reference_speed(timed["walls"], timed["refs"]))
    if trace:
        traced = timed["traced"]
        n = len(traced)
        layer = timed["layer"]
        jobs: List[Dict[str, float]] = [p.extra for p in traced]
        for eid in NAMED:
            layer[f"analysis.{eid}_s"] = sum(j[eid] for j in jobs) / n
        layer["analysis.rest_s"] = sum(
            v for j in jobs for eid, v in j.items() if eid not in NAMED) / n
        layer["exec.engine_self_s"] = sum(
            p.end - p.start - sum(p.extra.values()) for p in traced) / n
        out["layer"] = layer
        out["spans"] = timed["spans"]
        out["record"]["traced_sweeps"] = n
    return out
