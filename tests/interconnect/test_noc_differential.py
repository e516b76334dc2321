"""Differential test: ``MeshNoC.run`` against a frozen copy of its
three-function hop path.

The oracle below is the hop path as it stood before ``forward`` absorbed
``enqueue`` and ``schedule_departure``: link queues hold ``(ready,
packet)`` tuples, every packet re-checks its coordinates, and each hop
goes through three Python calls.  The shipped model must agree with it
exactly, not within a tolerance: per-packet delivery times, the order
of ``delivered``, hop counts, the set of links created, the backlog
gauge, the energy ledger and every kernel event (time, sequence number
and callback).  Inputs cover hotspot contention with injection ties, a
``max_cycles`` horizon that drops packets, custom routing, kernel fault
injection, and a checkpoint restore mid-run.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.core.energy import EnergyLedger
from repro.core.events import FunctionCheckpoint, Simulator
from repro.core.macro import as_macro
from repro.crosscut.faults import KernelFaultInjector
from repro.exec.cache import canonicalize
from repro.interconnect.noc import (
    MeshNoC,
    NoCConfig,
    NoCResult,
    Packet,
    _LinkState,
)
from repro.interconnect.topology import xy_route, yx_route
from repro.interconnect.traffic import make_pattern, poisson_injection_times
from repro.resilience import CheckpointManager
from repro.traces import KIND_REQUEST, generate, replay

# -- frozen oracle ---------------------------------------------------------


class FrozenMeshNoC(MeshNoC):
    """``MeshNoC`` with the reference hop path: inject -> enqueue ->
    schedule_departure -> forward, link queues of ``(ready, packet)``."""

    def run(self, pairs, injection_times=None, max_cycles=200_000, sim=None,
            route_fn=None):
        cfg = self.config
        if route_fn is None:
            route_fn = xy_route
        if injection_times is None:
            injection_arr = np.zeros(len(pairs))
        else:
            injection_arr = np.asarray(injection_times, dtype=float)
            if len(injection_arr) != len(pairs):
                raise ValueError("injection_times must match pairs")
        packets = []
        route_cache = {}
        for (src, dst), t in zip(pairs, injection_arr):
            self._check_coord(src)
            self._check_coord(dst)
            if src == dst:
                raise ValueError("self-loop packet")
            route = route_cache.get((src, dst))
            if route is None:
                route = route_cache[(src, dst)] = route_fn(src, dst)
            packets.append(
                Packet(src=src, dst=dst, injected_at=float(t), route=route)
            )

        kernel = sim if sim is not None else Simulator()
        kernel.attach(self)
        self.reset()
        stats = self._stats
        injected_ctr = stats.counter("packets_injected")
        hops_ctr = stats.counter("hops_forwarded")
        lat_hist = stats.histogram("packet_latency_cycles")
        tracer = getattr(kernel.metrics, "tracer", None)

        links = self._links
        ledger = EnergyLedger()
        delivered = []
        hop_lat = cfg.hop_latency
        last_delivery = 0.0
        hops = 0
        injected = 0

        def schedule_departure(s, state):
            ready = state.queue[0][0]
            next_free = state.next_free
            now = s.now
            depart = ready if ready > next_free else next_free
            if now > depart:
                depart = now
            state.busy = True
            s.schedule_at(depart, forward, state, cancellable=False)

        def forward(s, state):
            nonlocal last_delivery, hops
            state.busy = False
            if not state.queue:
                return
            if state.next_free > s.now:
                schedule_departure(s, state)
                return
            packet = state.queue.popleft()[1]
            state.next_free = s.now + 1.0
            hops += 1
            packet.hop_index += 1
            if packet.hop_index == len(packet.route) - 1:
                at = s.now + 1.0
                packet.delivered_at = at
                delivered.append(packet)
                if at > last_delivery:
                    last_delivery = at
                if tracer is not None:
                    tracer.emit("noc.packet", packet.injected_at, at,
                                hops=packet.hop_index)
            else:
                enqueue(s, packet, s.now + 1.0)
            if state.queue:
                schedule_departure(s, state)

        def enqueue(s, packet, now):
            link = (packet.route[packet.hop_index],
                    packet.route[packet.hop_index + 1])
            state = links.get(link)
            if state is None:
                state = links[link] = _LinkState()
            state.queue.append((now + hop_lat - 1.0, packet))
            if not state.busy:
                schedule_departure(s, state)

        def inject(s, packet):
            nonlocal injected
            injected += 1
            enqueue(s, packet, s.now)

        def inject_batch(s, run):
            nonlocal injected
            horizon = math.inf
            k = 0
            for t, packet in run:
                if t > horizon:
                    break
                injected += 1
                link = (packet.route[packet.hop_index],
                        packet.route[packet.hop_index + 1])
                state = links.get(link)
                if state is None:
                    state = links[link] = _LinkState()
                state.queue.append((t + hop_lat - 1.0, packet))
                if not state.busy:
                    ready = state.queue[0][0]
                    next_free = state.next_free
                    depart = ready if ready > next_free else next_free
                    if t > depart:
                        depart = t
                    state.busy = True
                    s.schedule_at(depart, forward, state, cancellable=False)
                    if depart < horizon:
                        horizon = depart
                k += 1
            return k

        as_macro(inject, inject_batch)
        kernel.schedule_batch(
            np.ceil(injection_arr).tolist(), inject, payloads=packets
        )

        def _ckpt_snapshot():
            return (
                last_delivery,
                hops,
                injected,
                len(delivered),
                [(p.hop_index, p.delivered_at) for p in packets],
                [
                    (link, state, list(state.queue), state.next_free,
                     state.busy)
                    for link, state in links.items()
                ],
                self.faults_injected,
            )

        def _ckpt_restore(saved):
            nonlocal last_delivery, hops, injected
            last_delivery, hops, injected = saved[0], saved[1], saved[2]
            del delivered[saved[3]:]
            for packet, (hop_index, delivered_at) in zip(packets, saved[4]):
                packet.hop_index = hop_index
                packet.delivered_at = delivered_at
            links.clear()
            for link, state, queue, next_free, busy in saved[5]:
                state.queue = deque(queue)
                state.next_free = next_free
                state.busy = busy
                links[link] = state
            self.faults_injected = saved[6]

        kernel.register_checkpointable(
            FunctionCheckpoint(_ckpt_snapshot, _ckpt_restore)
        )
        kernel.run(until=float(max_cycles))
        injected_ctr.inc(injected)
        hops_ctr.inc(hops)
        if hops:
            ledger.charge(
                "noc.router", cfg.energy_per_hop_router_j * hops, ops=hops
            )
            ledger.charge("noc.link", cfg.energy_per_hop_link_j * hops)
        lat_hist.observe_many(
            np.fromiter((p.latency for p in delivered), dtype=float,
                        count=len(delivered))
        )
        self.finish()

        dropped = len(packets) - len(delivered)
        cycles = last_delivery if dropped == 0 else float(max_cycles)
        return NoCResult(
            delivered=delivered, dropped=dropped, cycles=cycles, ledger=ledger
        )


# -- harness ---------------------------------------------------------------


def _recorded_sim(mode, record=True):
    """Simulator whose executed event stream is a checkpointable list of
    ``(time, seq, callback name)`` triples.  A probe keeps the drain on
    the general path, so ``record=False`` is how a run reaches the
    macro-batched injections."""
    sim = Simulator(fastpath=mode)
    events = []
    if not record:
        return sim, events

    def probe(s, event):
        events.append((event.time, event.seq,
                       getattr(event.callback, "__name__", "?")))

    sim.add_probe(probe)
    sim.register_checkpointable(FunctionCheckpoint(
        lambda: len(events) + 1, lambda n: events.__delitem__(slice(n, None))
    ))
    return sim, events


def _observe(noc, sim, result, events):
    """Everything the two hop paths must agree on."""
    metrics = {k: v for k, v in sim.metrics.snapshot().items()
               if k.startswith(("noc.", "faults."))}
    return {
        "delivered": [(p.src, p.dst, p.injected_at, p.delivered_at, p.hops)
                      for p in result.delivered],
        "dropped": result.dropped,
        "cycles": result.cycles,
        "ledger": result.ledger.as_dict(),
        "ledger_ops": result.ledger.ops(),
        "links": sorted(noc._links),
        "queued": {link: len(state.queue)
                   for link, state in noc._links.items()},
        "faults_injected": noc.faults_injected,
        "metrics": canonicalize(metrics),
        "events": events,
    }


def _run_both(pairs, times, mode, config, **kwargs):
    out = []
    for cls in (MeshNoC, FrozenMeshNoC):
        sim, events = _recorded_sim(mode, record=mode == "off")
        noc = cls(config)
        result = noc.run(pairs, injection_times=times, sim=sim, **kwargs)
        out.append((noc, sim, result, events))
    return out


def _assert_same(got, want):
    assert _observe(*got) == _observe(*want)


# -- inputs ----------------------------------------------------------------

#: "off" records and compares every kernel event; "auto" runs unobserved
#: so injections drain through the macro batch.
MODES = ("off", "auto")


def _uniform(n=1500, size=8, rate=0.35, seed=1):
    pairs = make_pattern("uniform", n, size, size, rng=seed)
    return pairs, poisson_injection_times(n, rate_per_cycle=rate * size * size
                                          / 8, rng=seed)


def _hotspot_with_ties(n=1200, size=4, seed=2):
    """Many packets aimed at one node, injected on a coarse cycle grid so
    whole groups share an injection time."""
    pairs = make_pattern("hotspot", n, size, size, rng=seed,
                         hot_fraction=0.6)
    times = np.floor(poisson_injection_times(n, rate_per_cycle=3.0,
                                             rng=seed) / 4.0) * 4.0
    return pairs, times


class TestAgainstFrozenHopPath:
    @pytest.mark.parametrize("mode", MODES)
    def test_uniform_mesh(self, mode):
        pairs, times = _uniform()
        got, want = _run_both(pairs, times, mode,
                              config=NoCConfig(width=8, height=8))
        assert got[2].dropped == 0
        _assert_same(got, want)

    @pytest.mark.parametrize("mode", MODES)
    def test_hotspot_contention_with_ties(self, mode):
        pairs, times = _hotspot_with_ties()
        assert len(np.unique(times)) < len(times) // 4  # heavy ties
        got, want = _run_both(pairs, times, mode,
                              config=NoCConfig(width=4, height=4))
        # Contention: some packets wait well past their hop count.
        lat = [p.latency - p.hops * 3 for p in got[2].delivered]
        assert max(lat) > 20
        if mode == "auto":  # tied injections drain as macro batches
            assert got[1].fastpath_stats.batched_events > 0
        _assert_same(got, want)

    @pytest.mark.parametrize("mode", MODES)
    def test_horizon_drops_packets(self, mode):
        pairs, times = _hotspot_with_ties(n=1500, seed=3)
        got, want = _run_both(pairs, times, mode,
                              config=NoCConfig(width=4, height=4),
                              max_cycles=400)
        assert got[2].dropped > 0
        assert sum(_observe(*got)["queued"].values()) > 0
        _assert_same(got, want)

    @pytest.mark.parametrize("mode", MODES)
    def test_yx_routing_and_default_injection(self, mode):
        pairs = make_pattern("transpose", 200, 4, 4, rng=4)
        pairs = [(s, d) for s, d in pairs if s != d]
        got, want = _run_both(pairs, None, mode,
                              config=NoCConfig(width=4, height=4),
                              route_fn=yx_route)
        _assert_same(got, want)

    def test_slow_routers(self):
        pairs, times = _uniform(n=600, size=4, seed=5)
        cfg = NoCConfig(width=4, height=4, router_delay_cycles=3,
                        link_delay_cycles=2)
        got, want = _run_both(pairs, times, "auto", config=cfg)
        _assert_same(got, want)


class TestFaultsAndCheckpoints:
    def _faulted(self, cls, mode, rewind):
        """A faulted run; with ``rewind`` the kernel is rolled back to a
        mid-run checkpoint after the run and drained again, which must
        refill the very same ``delivered`` list identically."""
        cfg = NoCConfig(width=4, height=4)
        pairs, times = _hotspot_with_ties(n=800, seed=6)
        sim, events = _recorded_sim(mode)
        mgr = CheckpointManager(period=40.0, keep=1000)
        mgr.arm(sim)
        noc = cls(cfg)
        injector = KernelFaultInjector(mean_interval=15.0, rng=9)
        injector.register(noc)
        injector.arm(sim, horizon=600.0)
        result = noc.run(pairs, injection_times=times, sim=sim)
        assert injector.injected > 0
        if rewind:
            # Halfway through, packets are queued on links they will
            # leave later, so the restore must bring back their ready
            # times, not keep the ones of the links they left on.
            mid = [c for c in mgr.snapshots if c.now <= result.cycles / 2][-1]
            assert mid.now > result.cycles / 4
            sim.restore(mid)
            sim.run(until=200_000.0)
        return _observe(noc, sim, result, events)

    @pytest.mark.parametrize("mode", MODES)
    def test_faults_match_oracle(self, mode):
        got = self._faulted(MeshNoC, mode, rewind=False)
        assert got["faults_injected"] > 0
        assert got == self._faulted(FrozenMeshNoC, mode, rewind=False)

    @pytest.mark.parametrize("mode", MODES)
    def test_restore_mid_run_matches_oracle_and_straight_run(self, mode):
        straight = self._faulted(MeshNoC, mode, rewind=False)
        got = self._faulted(MeshNoC, mode, rewind=True)
        want = self._faulted(FrozenMeshNoC, mode, rewind=True)
        assert got == want
        # The resumed drain replays the straight run exactly; the
        # metrics were taken before the rewind, so compare the rest.
        for key in ("delivered", "links", "queued", "faults_injected",
                    "events"):
            assert got[key] == straight[key], key


# -- the noc replay sink ---------------------------------------------------


def oracle_noc_sink(arr, width=8, height=8, routing="xy"):
    """The noc sink's cycle mapping over the frozen hop path."""
    nodes = width * height
    src = arr["client"] % nodes
    dst = arr["target"] % nodes
    dst = np.where(src == dst, (dst + 1) % nodes, dst)
    coord = [(i % width, i // width) for i in range(nodes)]
    pairs = [(coord[s], coord[d]) for s, d in zip(src.tolist(), dst.tolist())]
    ts = arr["ts"]
    span = float(ts.max() - ts.min()) or 1.0
    cycles = np.floor((ts - ts.min()) / span * (len(arr) * 2.0))
    route_fn = {"xy": xy_route, "yx": yx_route}[routing]
    result = FrozenMeshNoC(NoCConfig(width=width, height=height)).run(
        pairs, injection_times=cycles, max_cycles=500_000,
        sim=Simulator(fastpath="off"), route_fn=route_fn,
    )
    return sorted((p.injected_at, p.delivered_at, p.hops)
                  for p in result.delivered), result.cycles


def _noc_cases():
    _, steady = generate("steady-requests", seed=41, n=1500, rate=2000.0)
    _, bursty = generate("bursty-requests", seed=42, n=1500)
    _, straggle = generate("straggler-requests", seed=43, n=1500)
    return {
        "steady": [steady],
        # Each block restarts the clock, so the concatenation is unsorted.
        "restarting-blocks": [steady[:600], straggle[:700], bursty[:100]],
    }


NOC_CASES = _noc_cases()


class TestNocSink:
    @pytest.mark.parametrize("routing", ["xy", "yx"])
    @pytest.mark.parametrize("case", sorted(NOC_CASES))
    def test_matches_frozen_hop_path(self, case, routing):
        blocks = NOC_CASES[case]
        params = {"width": 4, "height": 4, "routing": routing}
        out = replay([(KIND_REQUEST, b) for b in blocks], sink="noc",
                     sink_params=params).outputs
        arr = np.concatenate(blocks)
        lat, cycles = oracle_noc_sink(arr, **params)
        assert out["packets"] == out["delivered"] == len(arr)
        assert out["total_cycles"] == cycles
        lats = np.array([d - i for i, d, _ in lat])
        assert out["latency_cycles"]["max"] == float(lats.max())
        assert out["mean_hops"] == float(np.mean([h for _, _, h in lat]))

    def test_restarting_blocks_span_earliest_to_latest(self):
        blocks = NOC_CASES["restarting-blocks"]
        arr = np.concatenate(blocks)
        # The clock restarts: neither end of the array is an extreme.
        assert arr["ts"].min() < arr["ts"][0]
        assert arr["ts"][-1] < arr["ts"].max()
        out = replay([(KIND_REQUEST, b) for b in blocks], sink="noc",
                     sink_params={"width": 4, "height": 4}).outputs
        assert out["dropped"] == 0
