"""Cycle-approximate network-on-chip simulator.

Packet-level, dimension-order-routed 2-D mesh with single-flit packets
and one-packet-per-cycle links — the minimal model that still produces
the canonical NoC behaviours: low-load latency ~ hop count x router
delay, queueing growth with injection rate, and saturation throughput
differences between traffic patterns.

The simulator runs on the shared event kernel
(:class:`repro.core.events.Simulator`): packet injections and link
departures are scheduled events rather than a hand-rolled per-cycle
loop, so idle stretches cost nothing, per-component counters/latency
quantiles land on ``sim.metrics``, and the kernel's fault hooks can
stall links mid-flight (:meth:`MeshNoC.inject_fault`).

Energy: every hop charges router + link energy to a ledger, connecting
the NoC to the paper's "energy is largely spent moving data" argument
(experiments E04/E21).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.energy import EnergyLedger
from ..core.events import FunctionCheckpoint, Simulator
from ..core.macro import as_macro
from .topology import xy_route

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


@dataclass(frozen=True)
class NoCConfig:
    width: int = 8
    height: int = 8
    router_delay_cycles: int = 2  # pipeline latency per hop
    link_delay_cycles: int = 1
    energy_per_hop_router_j: float = 4e-12
    energy_per_hop_link_j: float = 2e-12

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be >= 1")
        if self.router_delay_cycles < 1 or self.link_delay_cycles < 0:
            raise ValueError("bad delays")
        if min(self.energy_per_hop_router_j, self.energy_per_hop_link_j) < 0:
            raise ValueError("energies must be non-negative")

    @property
    def hop_latency(self) -> int:
        return self.router_delay_cycles + self.link_delay_cycles


@dataclass(slots=True)
class Packet:
    src: Coord
    dst: Coord
    injected_at: float
    route: list[Coord] = field(default_factory=list)
    hop_index: int = 0
    delivered_at: Optional[float] = None
    ready: float = 0.0  # earliest departure from the link it queues on

    @property
    def latency(self) -> float:
        if self.delivered_at is None:
            raise ValueError("packet not yet delivered")
        return self.delivered_at - self.injected_at

    @property
    def hops(self) -> int:
        return len(self.route) - 1


@dataclass
class NoCResult:
    delivered: list[Packet]
    dropped: int
    cycles: float
    ledger: EnergyLedger

    @property
    def mean_latency(self) -> float:
        if not self.delivered:
            return float("nan")
        return float(np.mean(np.fromiter(
            (p.latency for p in self.delivered), dtype=float,
            count=len(self.delivered),
        )))

    @property
    def p99_latency(self) -> float:
        if not self.delivered:
            return float("nan")
        return float(np.percentile(np.fromiter(
            (p.latency for p in self.delivered), dtype=float,
            count=len(self.delivered),
        ), 99))

    @property
    def throughput_packets_per_cycle(self) -> float:
        if self.cycles <= 0:
            return float("nan")
        return len(self.delivered) / self.cycles

    @property
    def mean_hops(self) -> float:
        if not self.delivered:
            return float("nan")
        return float(np.mean(np.fromiter(
            (p.hops for p in self.delivered), dtype=float,
            count=len(self.delivered),
        )))

    def energy_per_packet_j(self) -> float:
        if not self.delivered:
            return float("nan")
        return self.ledger.total() / len(self.delivered)


class _LinkState:
    """FIFO queue plus serialization state for one directed link."""

    __slots__ = ("queue", "next_free", "busy")

    def __init__(self) -> None:
        self.queue: Deque[Packet] = deque()
        self.next_free = 0.0  # earliest cycle the link may forward again
        self.busy = False  # a departure event is scheduled


class MeshNoC:
    """Event-driven mesh NoC with per-link FIFO queues (a kernel model).

    Each directed link serves one packet per cycle; a packet becomes
    eligible to depart ``hop_latency - 1`` cycles after arriving at the
    link and lands at the next router one cycle after departing, so an
    uncontended hop costs exactly ``hop_latency``.  Departures are
    kernel events (one per hop) rather than a per-cycle poll of every
    link, which is both faster at low load and what lets the shared
    instrumentation/fault machinery observe the NoC like any other
    simulator.
    """

    def __init__(self, config: NoCConfig = NoCConfig()) -> None:
        self.config = config
        self._sim: Optional[Simulator] = None
        self._stats = None
        self._links: Dict[Link, _LinkState] = {}
        self.faults_injected = 0

    # -- SimModel protocol -------------------------------------------------

    def bind(self, sim: Simulator) -> None:
        self._sim = sim
        self._stats = sim.metrics.scoped("noc")

    def reset(self) -> None:
        self._links = {}
        self.faults_injected = 0

    def finish(self) -> None:
        if self._stats is not None:
            backlog = sum(len(ls.queue) for ls in self._links.values())
            self._stats.gauge("queued_at_end").set(backlog)

    # -- fault-injection hook ----------------------------------------------

    def inject_fault(self, sim: Simulator, rng: np.random.Generator) -> str:
        """Stall one random active link (kernel fault hook).

        Models a transient link fault requiring retransmission: the
        link's next-free cycle is pushed out by 10 hop latencies.
        """
        if not self._links:
            return "no active links; fault absorbed"
        links = sorted(self._links)  # deterministic order for the draw
        link = links[int(rng.integers(len(links)))]
        penalty = 10.0 * self.config.hop_latency
        state = self._links[link]
        state.next_free = max(state.next_free, sim.now) + penalty
        self.faults_injected += 1
        self._stats.counter("faults").inc()
        return f"link {link[0]}->{link[1]} stalled {penalty:g} cycles"

    def run(
        self,
        pairs: Sequence[tuple[Coord, Coord]],
        injection_times: Optional[np.ndarray] = None,
        max_cycles: int = 200_000,
        sim: Optional[Simulator] = None,
        route_fn: Optional[Callable[[Coord, Coord], list[Coord]]] = None,
    ) -> NoCResult:
        """Inject packets (``pairs[i]`` at ``injection_times[i]``, default
        all at cycle 0 back-to-back per source) and run to drain (or to
        the ``max_cycles`` horizon; undelivered packets count as
        dropped).  Pass ``sim`` to share a caller-owned kernel, and
        ``route_fn`` to swap the routing policy (default
        :func:`xy_route`; any ``(src, dst) -> [coords]`` path on mesh
        links works — the NoC routing championship plugs in here)."""
        cfg = self.config
        if route_fn is None:
            route_fn = xy_route
        if injection_times is None:
            injection_arr = np.zeros(len(pairs))
        else:
            injection_arr = np.asarray(injection_times, dtype=float)
            if len(injection_arr) != len(pairs):
                raise ValueError("injection_times must match pairs")
        packets: list[Packet] = []
        route_cache: Dict[Tuple[Coord, Coord], list[Coord]] = {}
        for (src, dst), t in zip(pairs, injection_arr.tolist()):
            route = route_cache.get((src, dst))
            if route is None:
                self._check_coord(src)
                self._check_coord(dst)
                if src == dst:
                    raise ValueError("self-loop packet")
                route = route_cache[(src, dst)] = route_fn(src, dst)
            packets.append(
                Packet(src=src, dst=dst, injected_at=t, route=route)
            )

        kernel = sim if sim is not None else Simulator()
        kernel.attach(self)
        self.reset()
        stats = self._stats
        injected_ctr = stats.counter("packets_injected")
        hops_ctr = stats.counter("hops_forwarded")
        lat_hist = stats.histogram("packet_latency_cycles")
        # One attribute probe per run; per-packet spans are emitted
        # completed at delivery (checkpoint-replay safe).
        tracer = getattr(kernel.metrics, "tracer", None)

        links = self._links
        ledger = EnergyLedger()
        delivered: list[Packet] = []
        hop_lat = cfg.hop_latency
        last_delivery = 0.0
        hops = 0
        injected = 0

        schedule_at = kernel.schedule_at

        def forward(s: Simulator, state: _LinkState) -> None:
            # One departure from ``state``'s link.  Departure events carry
            # the link state directly, so the hot path never touches the
            # links dict except to hand a packet to its next link.
            nonlocal last_delivery, hops
            state.busy = False
            queue = state.queue
            if not queue:
                return
            now = s.now
            next_free = state.next_free
            if next_free > now:
                # A fault pushed next_free past this departure;
                # reschedule rather than forwarding early.
                ready = queue[0].ready
                state.busy = True
                schedule_at(ready if ready > next_free else next_free,
                            forward, state, cancellable=False)
                return
            packet = queue.popleft()
            next_free = state.next_free = now + 1.0
            hops += 1
            hop = packet.hop_index = packet.hop_index + 1
            route = packet.route
            if hop == len(route) - 1:
                packet.delivered_at = next_free
                delivered.append(packet)
                if next_free > last_delivery:
                    last_delivery = next_free
                if tracer is not None:
                    tracer.emit("noc.packet", packet.injected_at, next_free,
                                hops=hop)
            else:
                # Enqueue on the next link and start it if idle.  A ready
                # time is never earlier than the clock when it is set, so
                # no departure needs clamping to ``now``.
                link = (route[hop], route[hop + 1])
                nxt = links.get(link)
                if nxt is None:
                    nxt = links[link] = _LinkState()
                packet.ready = next_free + hop_lat - 1.0
                nxt.queue.append(packet)
                if not nxt.busy:
                    ready = nxt.queue[0].ready
                    nf = nxt.next_free
                    nxt.busy = True
                    schedule_at(ready if ready > nf else nf,
                                forward, nxt, cancellable=False)
            if queue:
                ready = queue[0].ready
                state.busy = True
                schedule_at(ready if ready > next_free else next_free,
                            forward, state, cancellable=False)

        def inject(s: Simulator, packet: Packet) -> None:
            inject_batch(s, ((s.now, packet),))

        def inject_batch(s: Simulator, run) -> int:
            # Enqueue each packet on its first link at the entry's own
            # timestamp (``s.now`` is stale inside a macro batch;
            # contract: repro.core.macro), stopping at the hazard
            # horizon — the earliest departure this batch scheduled.
            # Consuming a tie is safe: pending injections carry older
            # seqs than any departure scheduled here, so they run first
            # in scalar order too.  The scalar ``inject`` is a batch of
            # one.
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
                packet.ready = t + hop_lat - 1.0
                state.queue.append(packet)
                if not state.busy:
                    ready = state.queue[0].ready
                    depart = state.next_free
                    if ready > depart:
                        depart = ready
                    state.busy = True
                    schedule_at(depart, forward, state, cancellable=False)
                    if depart < horizon:
                        horizon = depart
                k += 1
            return k

        as_macro(inject, inject_batch)

        # Injections align to the next cycle boundary (the model is
        # cycle-approximate even though the kernel clock is a float);
        # a time-sorted workload bulk-loads the kernel's in-order lane
        # as one contiguous run for the macro fast path.
        kernel.schedule_batch(
            np.ceil(injection_arr).tolist(), inject, payloads=packets
        )

        # Checkpoint support.  Pending departure events carry _LinkState
        # objects as payloads, so restore must roll the *same* state
        # objects back in place (and prune links created after the
        # snapshot); packets are likewise shared by identity.
        def _ckpt_snapshot():
            return (
                last_delivery,
                hops,
                injected,
                len(delivered),
                [(p.hop_index, p.delivered_at, p.ready) for p in packets],
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
            for packet, (hop_index, delivered_at, ready) in zip(packets,
                                                                saved[4]):
                packet.hop_index = hop_index
                packet.delivered_at = delivered_at
                packet.ready = ready
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
        if tracer is not None:
            with tracer.span("noc.run", sim=kernel, category="model",
                             packets=len(packets)):
                kernel.run(until=float(max_cycles))
        else:
            kernel.run(until=float(max_cycles))
        # Per-hop/injection accounting batches exactly: the locals count
        # only callbacks that actually executed inside the horizon.
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

    def _check_coord(self, c: Coord) -> None:
        if not (0 <= c[0] < self.config.width and 0 <= c[1] < self.config.height):
            raise ValueError(f"coordinate {c} outside the mesh")


def latency_vs_load(
    config: NoCConfig,
    rates: Sequence[float],
    n_packets: int = 2000,
    pattern: str = "uniform",
    rng=0,
) -> dict[str, np.ndarray]:
    """The canonical latency/throughput curve: sweep injection rate.

    Rate is packets/cycle/node aggregate scaled by node count; latency
    blows up at saturation.
    """
    from .traffic import make_pattern, poisson_injection_times

    if not rates:
        raise ValueError("rates must be non-empty")
    noc = MeshNoC(config)
    n_nodes = config.width * config.height
    lat, thr = [], []
    for rate in rates:
        pairs = make_pattern(pattern, n_packets, config.width, config.height, rng=rng)
        times = poisson_injection_times(
            n_packets, rate_per_cycle=rate * n_nodes, rng=rng
        )
        result = noc.run(pairs, injection_times=times)
        lat.append(result.mean_latency)
        thr.append(result.throughput_packets_per_cycle)
    return {
        "offered_rate": np.asarray(rates, dtype=float),
        "mean_latency": np.array(lat),
        "throughput": np.array(thr),
    }
