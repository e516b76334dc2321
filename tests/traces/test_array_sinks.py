"""Differential test: the array-program replay sinks against the
event-driven reference.

The queue static policies (rr/target/client), the cpu sink and the
memory sink run as direct passes over the record arrays.  The oracle
below is the event-driven form they replaced: one scalar handler per
record, each record scheduled through ``Simulator.schedule_at`` on the
general drain (``fastpath="off"``).  The kernel visits records in
``(ts, seq)`` order, so ties, multi-block concatenation and unsorted
block iterables all exercise the array programs' visit-order handling.
Outputs must match exactly, not within a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.events import Simulator
from repro.exec.cache import canonicalize
from repro.memory.hierarchy import MemoryHierarchy, default_hierarchy
from repro.traces import (
    KIND_INSTRUCTION,
    KIND_MEMORY,
    KIND_REQUEST,
    generate,
    replay,
)
from repro.traces.replay import _quantiles

# -- event-driven oracle ---------------------------------------------------


def _drive(arr, handler):
    """Schedule one event per record in array order, then drain."""
    sim = Simulator(fastpath="off")
    for i, t in enumerate(arr["ts"].tolist()):
        sim.schedule_at(t, handler, i, cancellable=False)
    sim.run()


def oracle_queue(arr, n_servers=8, policy="rr"):
    n = len(arr)
    times = arr["ts"].tolist()
    service = (arr["service_us"] * 1e-6).tolist()
    targets = arr["target"].tolist()
    clients = arr["client"].tolist()
    free_at = [0.0] * n_servers
    qlen = [0] * n_servers
    served = [0] * n_servers
    latencies = np.empty(n)
    state = {"rr": 0, "busy": 0.0}

    def complete(s, server):
        qlen[server] -= 1

    def arrive(s, i):
        t = s.now
        if policy == "rr":
            srv = state["rr"]
            state["rr"] = (srv + 1) % n_servers
        elif policy == "target":
            srv = targets[i] % n_servers
        elif policy == "client":
            srv = clients[i] % n_servers
        else:  # jsq
            srv = qlen.index(min(qlen))
        f = free_at[srv]
        finish = (t if t > f else f) + service[i]
        free_at[srv] = finish
        served[srv] += 1
        state["busy"] += service[i]
        latencies[i] = finish - t
        if policy == "jsq":
            qlen[srv] += 1
            s.schedule_at(finish, complete, srv, cancellable=False)

    _drive(arr, arrive)
    makespan = max(max(free_at), times[-1])
    return {
        "policy": policy,
        "n_servers": n_servers,
        "requests": n,
        "latency_s": _quantiles(latencies),
        "served_per_server": served,
        "utilization": state["busy"] / (n_servers * makespan),
    }


def oracle_cpu(arr, load_latency=3, branch_penalty=2):
    ops = arr["op"].tolist()
    dsts = arr["dst"].tolist()
    src1s = arr["src1"].tolist()
    src2s = arr["src2"].tolist()
    st = {"cycles": 0, "stalls": 0, "branches": 0,
          "loads": 0, "stores": 0, "last_load_dst": -1}

    def retire(s, i):
        op = ops[i]
        cycles = 1
        last = st["last_load_dst"]
        if last >= 0 and (src1s[i] == last or src2s[i] == last):
            cycles += load_latency - 1
            st["stalls"] += load_latency - 1
        if op == 1:
            st["loads"] += 1
            st["last_load_dst"] = dsts[i]
        else:
            st["last_load_dst"] = -1
            if op == 2:
                st["stores"] += 1
            elif op == 3:
                st["branches"] += 1
                cycles += branch_penalty
        st["cycles"] += cycles

    _drive(arr, retire)
    n = len(arr)
    return {
        "instructions": n,
        "cycles": st["cycles"],
        "ipc": n / st["cycles"],
        "stall_cycles": st["stalls"],
        "loads": st["loads"],
        "stores": st["stores"],
        "branches": st["branches"],
    }


def oracle_memory(arr):
    specs = default_hierarchy()
    hierarchy = MemoryHierarchy(specs)
    hierarchy.reset()
    caches = hierarchy.caches
    addrs = arr["addr"].astype(np.int64).tolist()
    writes = arr["op"].tolist()
    level_hits = [0] * len(specs)
    st = {"cycles": 0, "mem": 0}

    def access(s, i):
        for lvl, spec in enumerate(specs):
            st["cycles"] += spec.latency_cycles
            if caches[lvl].access(addrs[i], is_write=bool(writes[i])):
                level_hits[lvl] += 1
                break
        else:
            st["mem"] += 1
            st["cycles"] += hierarchy.memory.latency_cycles

    _drive(arr, access)
    n = len(arr)
    return {
        "accesses": n,
        "level_hits": {s.name: level_hits[i] for i, s in enumerate(specs)},
        "memory_accesses": st["mem"],
        "total_cycles": st["cycles"],
        "amat_cycles": st["cycles"] / n,
    }


# -- inputs ----------------------------------------------------------------


def _with_ties(arr, quantum):
    """Snap timestamps to a coarse grid so many records share one."""
    out = arr.copy()
    out["ts"] = np.floor(out["ts"] / quantum) * quantum
    return out


def _shuffled(arr, seed):
    return arr[np.random.default_rng(seed).permutation(len(arr))]


def _request_cases():
    _, steady = generate("steady-requests", seed=11, n=3000, rate=2000.0,
                         mean_service_us=3000.0)
    _, bursty = generate("bursty-requests", seed=12, n=3000,
                         mean_service_us=4000.0)
    _, straggle = generate("straggler-requests", seed=13, n=3000)
    return {
        "steady": [steady],
        "bursty": [bursty],
        "ties": [_with_ties(bursty, 0.01)],
        "multi-block": [steady[:1000], steady[1000:2200], steady[2200:]],
        # Each block restarts the clock, so the concatenation is unsorted.
        "restarting-blocks": [straggle[:1500], steady[:1500], bursty[:800]],
        "unsorted": [_shuffled(_with_ties(straggle, 0.005), 14)],
    }


def _instruction_cases():
    _, mix = generate("instr-mix", seed=21, n=4000)
    _, dense = generate("instr-mix", seed=22, n=4000, regs=4,
                        alu_fraction=0.3, mem_fraction=0.6,
                        branch_fraction=0.1)
    return {
        "mix": [mix],
        "dense-hazards": [dense],
        "ties": [_with_ties(dense, 1e-7)],
        "multi-block": [mix[:1500], dense[:1500], mix[1500:]],
        "unsorted": [_shuffled(_with_ties(mix, 5e-8), 23)],
    }


def _memory_cases():
    _, kv = generate("kv-zipf", seed=31, n=3000, keys=1 << 12)
    return {
        "kv-zipf": [kv],
        "unsorted-blocks": [kv[1500:], _shuffled(_with_ties(kv[:1500], 1e-4), 32)],
    }


def _replay(blocks, kind, sink, params):
    return replay([(kind, b) for b in blocks], sink=sink, sink_params=params)


def _same(got, want):
    assert canonicalize(got) == canonicalize(want)


REQUEST_CASES = _request_cases()
INSTRUCTION_CASES = _instruction_cases()
MEMORY_CASES = _memory_cases()


class TestQueueSink:
    @pytest.mark.parametrize("policy", ["rr", "target", "client", "jsq"])
    @pytest.mark.parametrize("case", sorted(REQUEST_CASES))
    def test_matches_event_driven_oracle(self, case, policy):
        blocks = REQUEST_CASES[case]
        params = {"n_servers": 5, "policy": policy}
        got = _replay(blocks, KIND_REQUEST, "queue", params).outputs
        _same(got, oracle_queue(np.concatenate(blocks), **params))

    def test_one_server(self):
        blocks = REQUEST_CASES["unsorted"]
        got = _replay(blocks, KIND_REQUEST, "queue", {"n_servers": 1}).outputs
        _same(got, oracle_queue(np.concatenate(blocks), n_servers=1))


class TestCpuSink:
    @pytest.mark.parametrize("case", sorted(INSTRUCTION_CASES))
    def test_matches_event_driven_oracle(self, case):
        blocks = INSTRUCTION_CASES[case]
        got = _replay(blocks, KIND_INSTRUCTION, "cpu", {}).outputs
        _same(got, oracle_cpu(np.concatenate(blocks)))

    def test_custom_latencies(self):
        blocks = INSTRUCTION_CASES["unsorted"]
        params = {"load_latency": 5, "branch_penalty": 7}
        got = _replay(blocks, KIND_INSTRUCTION, "cpu", params).outputs
        _same(got, oracle_cpu(np.concatenate(blocks), **params))


class TestMemorySink:
    @pytest.mark.parametrize("case", sorted(MEMORY_CASES))
    def test_matches_event_driven_oracle(self, case):
        blocks = MEMORY_CASES[case]
        got = _replay(blocks, KIND_MEMORY, "memory", {}).outputs
        _same(got, oracle_memory(np.concatenate(blocks)))


class TestNegativeTimestamp:
    @pytest.mark.parametrize(
        "kind,sink,params,oracle,cases",
        [
            (KIND_REQUEST, "queue", {"policy": "rr"}, oracle_queue,
             REQUEST_CASES),
            (KIND_REQUEST, "queue", {"policy": "target"}, oracle_queue,
             REQUEST_CASES),
            (KIND_INSTRUCTION, "cpu", {}, oracle_cpu, INSTRUCTION_CASES),
            (KIND_MEMORY, "memory", {}, oracle_memory, MEMORY_CASES),
        ],
    )
    def test_raises_the_kernels_error(self, kind, sink, params, oracle, cases):
        arr = np.concatenate(next(iter(cases.values())))[:50].copy()
        arr["ts"][17] = -0.25
        arr["ts"][30] = -2.0
        with pytest.raises(ValueError) as want:
            oracle(arr, **params)
        with pytest.raises(ValueError) as got:
            _replay([arr], kind, sink, params)
        assert str(got.value) == str(want.value)
        assert "-0.25" in str(got.value)
