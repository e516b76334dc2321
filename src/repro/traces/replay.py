"""Trace replay: feed recorded streams into the existing simulators.

The second input mode for every simulator family: instead of drawing a
synthetic workload at run time, a *sink* replays a trace
(:mod:`repro.traces.format`).  The event kernel is used only where a
model feeds back into its own event stream:

* on the kernel — ``noc`` (every hop schedules the next) and the
  ``queue`` sink's ``jsq`` policy (completions change the queue depths
  the next arrival reads).  Both bulk-load the trace with
  :meth:`Simulator.schedule_batch` and carry macro batch twins
  (:func:`repro.core.macro.as_macro`), so ``REPRO_FASTPATH=off|auto|on``
  produce byte-identical results.
* as array programs — the ``queue`` sink's static policies
  (``rr``/``target``/``client``), ``cpu``, ``memory`` and ``wear``.
  Nothing they compute schedules an event, so they run directly over
  the record arrays.  They visit records in exactly the kernel's
  ``(ts, seq)`` order, keep the event-driven model's per-record float
  operation order, and reject a timestamp before 0 with the kernel's
  ``ValueError``; ``tests/traces/test_array_sinks.py`` checks them
  for exact equality against event-driven handlers.

Sinks (:data:`SINKS`):

* ``queue``   — request records into an FCFS multi-server queue with a
  pluggable, deterministic scheduling policy (the scheduling
  championship's plug point).
* ``noc``     — request records as node-to-node packets through
  :class:`repro.interconnect.noc.MeshNoC` with a pluggable route
  function (the routing championship's plug point).
* ``memory``  — memory records through a
  :class:`repro.memory.hierarchy.MemoryHierarchy` level walk.
* ``wear``    — memory-record write streams against a
  :class:`repro.memory.wear.WearLeveler` (the wear championship's plug
  point).
* ``cpu``     — instruction records through a small in-order scoreboard
  (load-use hazards, branch bubbles).

Every sink returns a :class:`ReplayResult` whose :meth:`digest` covers
only deterministic simulation outputs — latencies, counts, cycle
totals, wear profiles, interval statistics — never wall-clock, so the
same trace + sink + params digests identically across fastpath modes
and across serial/pool/socket exec backends.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.events import Simulator
from ..core.macro import as_macro
from ..exec.cache import canonicalize
from .format import (
    KIND_INSTRUCTION,
    KIND_MEMORY,
    KIND_REQUEST,
    TraceFormatError,
    TraceReader,
    kind_name,
)
from .stats import IntervalStats

__all__ = [
    "QUEUE_POLICIES",
    "ReplayResult",
    "SINKS",
    "replay",
]


@dataclass
class ReplayResult:
    """Deterministic outcome of one trace replay."""

    sink: str
    records: int
    outputs: Dict[str, Any]
    stats: Dict[str, Any] = field(default_factory=dict)
    fastpath: str = "off"

    def digest(self) -> str:
        """sha256 over the canonical deterministic payload.

        ``fastpath`` is deliberately excluded: the digest is the
        cross-mode, cross-backend parity check, so only simulation
        outputs may contribute.
        """
        payload = canonicalize(
            {
                "sink": self.sink,
                "records": self.records,
                "outputs": self.outputs,
                "stats": self.stats,
            }
        )
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sink": self.sink,
            "records": self.records,
            "outputs": canonicalize(self.outputs),
            "stats": canonicalize(self.stats),
            "fastpath": self.fastpath,
            "digest": self.digest(),
        }


def _gather(
    source: Union[str, bytes, BinaryIO, Iterable[Tuple[int, np.ndarray]]],
    want_kind: int,
    stats: Optional[IntervalStats],
) -> List[np.ndarray]:
    """Collect all blocks of ``want_kind``, feeding stats along the way.

    Blocks of other kinds are counted into stats but not replayed —
    a mixed trace replays per-sink, each sink taking its lane.
    """
    if isinstance(source, (str, bytes, bytearray)) or hasattr(source, "read"):
        with TraceReader(source) as reader:  # type: ignore[arg-type]
            blocks = [(k, a) for k, a in reader.blocks()]
    else:
        blocks = [(k, a) for k, a in source]
    out: List[np.ndarray] = []
    for kind, arr in blocks:
        if stats is not None:
            stats.feed(kind, arr)
        if kind == want_kind:
            out.append(arr)
    if not out:
        raise TraceFormatError(
            f"trace has no {kind_name(want_kind)} records to replay"
        )
    return out


def _quantiles(values: np.ndarray) -> Dict[str, float]:
    return {
        "mean": float(np.mean(values)),
        "p50": float(np.percentile(values, 50)),
        "p99": float(np.percentile(values, 99)),
        "max": float(np.max(values)),
    }


def _visit_order(arr: np.ndarray) -> Optional[np.ndarray]:
    """The order in which the event kernel would visit ``arr``'s records.

    A train scheduled in array order pops in ``(ts, seq)`` order: array
    order when timestamps are nondecreasing (returns ``None``), else the
    stable argsort of the timestamps.  A timestamp before 0 raises the
    kernel's own ``ValueError``, so the array programs below reject
    exactly the traces the kernel rejects.
    """
    ts = np.asarray(arr["ts"], dtype=float)
    if len(ts) == 0:
        return None
    if ts.min() < 0.0:
        bad = float(ts[ts < 0.0][0])
        raise ValueError(f"cannot schedule at {bad} before current time 0.0")
    if len(ts) > 1 and (np.diff(ts) < 0).any():
        return np.argsort(ts, kind="stable")
    return None


# -- queue sink ------------------------------------------------------------

#: Deterministic scheduling policies for the queue sink.  All are pure
#: functions of replay state (no RNG at replay time), so every policy
#: digests stably — the property the scheduling championship scores on.
QUEUE_POLICIES = ("rr", "target", "client", "jsq")


def _queue_static(arr: np.ndarray, n_servers: int, policy: str):
    """rr/target/client: the server choice never looks at queue state,
    so one pass over the records in visit order is the whole model."""
    n = len(arr)
    order = _visit_order(arr)
    rec = arr if order is None else arr[order]
    if policy == "rr":
        srvs = np.arange(n) % n_servers
    else:
        srvs = rec[policy] % n_servers
    service = rec["service_us"] * 1e-6
    free_at = [0.0] * n_servers
    lat = []
    append = lat.append
    for t, svc, srv in zip(rec["ts"].tolist(), service.tolist(), srvs.tolist()):
        f = free_at[srv]
        finish = (t if t > f else f) + svc
        free_at[srv] = finish
        append(finish - t)
    latencies = np.empty(n)
    latencies[slice(None) if order is None else order] = lat  # record order
    # ``add.accumulate`` sums strictly left to right, as the per-record
    # ``busy += service`` of the event-driven model does.
    busy = float(np.add.accumulate(service)[-1]) if n else 0.0
    served = np.bincount(srvs, minlength=n_servers).tolist()
    return latencies, served, busy, free_at


def _queue_jsq(arr: np.ndarray, sim: Simulator, n_servers: int):
    """Join-shortest-queue consults live queue depths, so completions
    are kernel events and arrivals drain through the macro twin."""
    n = len(arr)
    service = (arr["service_us"] * 1e-6).tolist()
    free_at = [0.0] * n_servers
    qlen = [0] * n_servers
    served = [0] * n_servers
    latencies = np.empty(n)
    busy = 0.0

    def complete(s: Simulator, server: int) -> None:
        qlen[server] -= 1

    def arrive(s: Simulator, i: int) -> None:
        nonlocal busy
        t = s.now
        srv = qlen.index(min(qlen))
        f = free_at[srv]
        finish = (t if t > f else f) + service[i]
        free_at[srv] = finish
        served[srv] += 1
        busy += service[i]
        latencies[i] = finish - t
        qlen[srv] += 1
        s.schedule_at(finish, complete, srv, cancellable=False)

    def arrive_batch(s: Simulator, run) -> int:
        # Macro twin (contract: repro.core.macro).  Stops at the
        # earliest completion it scheduled (ties safe: pre-scheduled
        # arrivals carry older seqs than any completion scheduled
        # in-batch).
        nonlocal busy
        horizon = float("inf")
        k = 0
        for t, i in run:
            if t > horizon:
                break
            srv = qlen.index(min(qlen))
            f = free_at[srv]
            finish = (t if t > f else f) + service[i]
            free_at[srv] = finish
            served[srv] += 1
            busy += service[i]
            latencies[i] = finish - t
            qlen[srv] += 1
            s.schedule_at(finish, complete, srv, cancellable=False)
            if finish < horizon:
                horizon = finish
            k += 1
        return k

    as_macro(arrive, arrive_batch)
    sim.schedule_batch(arr["ts"], arrive, payloads=range(n))
    sim.run()
    return latencies, served, busy, free_at


def _replay_queue(
    blocks: List[np.ndarray],
    sim: Simulator,
    n_servers: int = 8,
    policy: str = "rr",
) -> Dict[str, Any]:
    if policy not in QUEUE_POLICIES:
        raise ValueError(
            f"unknown queue policy {policy!r}; choose from "
            f"{', '.join(QUEUE_POLICIES)}"
        )
    if n_servers < 1:
        raise ValueError("need at least one server")
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    n = len(arr)
    if policy == "jsq":
        latencies, served, busy, free_at = _queue_jsq(arr, sim, n_servers)
    else:
        latencies, served, busy, free_at = _queue_static(arr, n_servers, policy)
    makespan = max(max(free_at), float(arr["ts"][-1])) if n else 0.0
    return {
        "policy": policy,
        "n_servers": n_servers,
        "requests": n,
        "latency_s": _quantiles(latencies),
        "served_per_server": served,
        "utilization": (busy / (n_servers * makespan)) if makespan else 0.0,
    }


# -- noc sink --------------------------------------------------------------


def _replay_noc(
    blocks: List[np.ndarray],
    sim: Simulator,
    width: int = 8,
    height: int = 8,
    routing: str = "xy",
    max_cycles: int = 500_000,
) -> Dict[str, Any]:
    from ..interconnect.noc import MeshNoC, NoCConfig
    from ..interconnect.topology import xy_route, yx_route

    routes = {"xy": xy_route, "yx": yx_route}
    try:
        route_fn = routes[routing]
    except KeyError:
        raise ValueError(
            f"unknown routing {routing!r}; choose from "
            f"{', '.join(sorted(routes))}"
        ) from None
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    nodes = width * height
    src_ids = arr["client"] % nodes
    dst_ids = arr["target"] % nodes
    same = src_ids == dst_ids
    dst_ids = np.where(same, (dst_ids + 1) % nodes, dst_ids)
    pairs = [
        ((int(s) % width, int(s) // width),
         (int(d) % width, int(d) // width))
        for s, d in zip(src_ids, dst_ids)
    ]
    # Trace timestamps are seconds; the NoC clock is cycles.  Scale so
    # the whole trace spans a workload-proportional cycle window and
    # quantize to integers (the model aligns to cycle boundaries).
    ts = arr["ts"]
    span = float(ts[-1] - ts[0]) or 1.0
    cycles = np.floor((ts - ts[0]) / span * (len(arr) * 2.0))
    noc = MeshNoC(NoCConfig(width=width, height=height))
    result = noc.run(
        pairs,
        injection_times=cycles,
        max_cycles=max_cycles,
        sim=sim,
        route_fn=route_fn,
    )
    delivered = result.delivered
    lat = (
        np.array([p.latency for p in delivered])
        if delivered
        else np.zeros(1)
    )
    return {
        "routing": routing,
        "mesh": [width, height],
        "packets": len(pairs),
        "delivered": len(delivered),
        "dropped": len(pairs) - len(delivered),
        "latency_cycles": _quantiles(lat),
        "mean_hops": float(np.mean([p.hops for p in delivered]))
        if delivered
        else 0.0,
        "total_cycles": float(result.cycles),
    }


# -- memory sink -----------------------------------------------------------


def _replay_memory(
    blocks: List[np.ndarray],
    sim: Simulator,
) -> Dict[str, Any]:
    from ..memory.hierarchy import MemoryHierarchy, default_hierarchy

    specs = default_hierarchy()
    hierarchy = MemoryHierarchy(specs)
    hierarchy.reset()
    accesses = [c.access for c in hierarchy.caches]
    latencies = [s.latency_cycles for s in specs]
    mem_latency = hierarchy.memory.latency_cycles
    n_levels = len(specs)

    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    order = _visit_order(arr)
    if order is not None:
        arr = arr[order]
    n = len(arr)

    # The level walk feeds nothing back into the arrival stream, so the
    # whole reference train is one loop in visit order.
    level_hits = [0] * n_levels
    cycles = 0
    mem = 0
    for addr, w in zip(arr["addr"].astype(np.int64).tolist(),
                       (arr["op"] != 0).tolist()):
        for lvl in range(n_levels):
            cycles += latencies[lvl]
            if accesses[lvl](addr, w):
                level_hits[lvl] += 1
                break
        else:
            mem += 1
            cycles += mem_latency

    return {
        "accesses": n,
        "level_hits": {
            specs[i].name: level_hits[i] for i in range(n_levels)
        },
        "memory_accesses": mem,
        "total_cycles": cycles,
        "amat_cycles": cycles / n if n else 0.0,
    }


# -- wear sink -------------------------------------------------------------


def _replay_wear(
    blocks: List[np.ndarray],
    sim: Simulator,
    leveler: str = "none",
    n_lines: int = 4096,
    endurance: float = 1e6,
    line: int = 64,
    gap_interval: int = 100,
) -> Dict[str, Any]:
    from ..memory.wear import (
        NoWearLeveling,
        StartGapWearLeveling,
        TableWearLeveling,
    )

    levelers = {
        "none": lambda: NoWearLeveling(n_lines),
        "start-gap": lambda: StartGapWearLeveling(
            n_lines, gap_interval=gap_interval
        ),
        "table": lambda: TableWearLeveling(n_lines),
    }
    try:
        lvl = levelers[leveler]()
    except KeyError:
        raise ValueError(
            f"unknown wear leveler {leveler!r}; choose from "
            f"{', '.join(sorted(levelers))}"
        ) from None
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    write_mask = arr["op"] != 0
    logicals = (
        (arr["addr"][write_mask] // np.uint64(line)) % np.uint64(n_lines)
    ).astype(np.int64)
    wear = np.zeros(n_lines + lvl.extra_frames)
    applied, crossed = lvl.write_stream(logicals, wear, endurance)
    nz = wear[wear > 0]
    return {
        "leveler": leveler,
        "writes": int(len(logicals)),
        "applied": int(applied),
        "endurance_crossed": bool(crossed),
        "max_wear": float(np.max(wear)) if wear.size else 0.0,
        "mean_wear": float(np.mean(wear)) if wear.size else 0.0,
        "lines_touched": int(len(nz)),
        "migration_writes": int(lvl.migration_writes),
    }


# -- cpu sink --------------------------------------------------------------


def _replay_cpu(
    blocks: List[np.ndarray],
    sim: Simulator,
    load_latency: int = 3,
    branch_penalty: int = 2,
) -> Dict[str, Any]:
    """In-order scoreboard: 1 cycle/op, load-use stalls, branch bubbles.

    Op classes follow :func:`repro.traces.generators.instr_mix`:
    0 ALU, 1 load, 2 store, 3 branch.  A consumer of the previous
    load's destination stalls ``load_latency - 1`` cycles; every branch
    pays ``branch_penalty`` pipeline bubbles.  Simple, but enough to
    rank instruction mixes, and fully deterministic.  Every hazard is a
    function of one record and its predecessor in visit order, so the
    model is a handful of integer array operations.
    """
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    order = _visit_order(arr)
    if order is not None:
        arr = arr[order]
    n = len(arr)
    ops = arr["op"]
    dst = arr["dst"][:-1]
    load_use = (ops[:-1] == 1) & (
        (arr["src1"][1:] == dst) | (arr["src2"][1:] == dst)
    )
    branches = int(np.count_nonzero(ops == 3))
    stalls = int(np.count_nonzero(load_use)) * (load_latency - 1)
    cycles = n + stalls + branches * branch_penalty
    return {
        "instructions": n,
        "cycles": cycles,
        "ipc": n / cycles if cycles else 0.0,
        "stall_cycles": stalls,
        "loads": int(np.count_nonzero(ops == 1)),
        "stores": int(np.count_nonzero(ops == 2)),
        "branches": branches,
    }


#: sink name -> (record kind consumed, implementation).
SINKS = {
    "queue": (KIND_REQUEST, _replay_queue),
    "noc": (KIND_REQUEST, _replay_noc),
    "memory": (KIND_MEMORY, _replay_memory),
    "wear": (KIND_MEMORY, _replay_wear),
    "cpu": (KIND_INSTRUCTION, _replay_cpu),
}


def replay(
    source: Union[str, bytes, BinaryIO, Iterable[Tuple[int, np.ndarray]]],
    sink: str = "queue",
    sink_params: Optional[Dict[str, Any]] = None,
    fastpath: Optional[str] = None,
    stats_interval: int = 0,
) -> ReplayResult:
    """Replay one trace through one sink.

    ``source`` is a trace path, raw bytes, an open binary file, or an
    already-decoded iterable of ``(kind, array)`` blocks.  ``fastpath``
    selects the kernel mode explicitly (default: the
    ``REPRO_FASTPATH`` environment resolution).  ``stats_interval > 0``
    attaches an :class:`IntervalStats` pass over every record in the
    trace (all kinds, not just the replayed lane) and embeds its
    summary in the result — and therefore in the digest.
    """
    try:
        want_kind, impl = SINKS[sink]
    except KeyError:
        raise ValueError(
            f"unknown replay sink {sink!r}; choose from "
            f"{', '.join(sorted(SINKS))}"
        ) from None
    stats = IntervalStats(stats_interval) if stats_interval > 0 else None
    blocks = _gather(source, want_kind, stats)
    sim = Simulator(fastpath=fastpath)
    outputs = impl(blocks, sim, **(sink_params or {}))
    n = int(sum(len(b) for b in blocks))
    return ReplayResult(
        sink=sink,
        records=n,
        outputs=outputs,
        stats=stats.finish() if stats is not None else {},
        fastpath=sim.fastpath_mode,
    )
