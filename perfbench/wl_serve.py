"""serve-mix: a closed loop of waiting HTTP clients against the served
stack in a child process (``build_app(backend="pool", jobs=2)``).

Two client connections each send their next ``wait=true`` request only
after the previous reply, so the loop measures service capacity.  The
seeded mix: 50% unique zero-work ``spin`` points, which cross HTTP,
admission, coalescing, dispatch, a pool fork and publish; 30% repeats
of 16 hot ``spin`` points, answered by the result-cache fast path
without dispatch; 20% unique ``cluster`` points, which do simulation
work in the pool.  A pass is one block of :data:`BLOCK` requests.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import gc_metrics, serve_metrics
from measure import (
    GcMeter,
    import_spans,
    median,
    paired_ratio,
    summarize_ms,
    tail_percentile,
    unattributed,
)
from passes import MIN_PASSES, SETUP_REPS
from reference import at_reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
#: Client connections and pool workers (the sizing machine's nproc).
CONNECTIONS = 2
JOBS = 2
BLOCK = 100
HOT_POINTS = 16
#: Requests a timed phase needs so that its p99 has ten samples beyond.
MIN_REQUESTS = 1000
#: Dispatched requests the traced phase needs for the same reason.
MIN_DISPATCHED = 1000
BALANCERS = ("random", "round_robin", "join_shortest_queue", "power_of_two")
#: Cluster results recomputed in-process after the run, as a check.
CLUSTER_SAMPLE = 12

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 20.0


# -- the request plan ---------------------------------------------------------


def plan_block(seed: int, k: int) -> List[Tuple[str, dict]]:
    """Block ``k`` of the seeded request plan: ``(kind, body)`` pairs.

    Every block holds exactly the mix's shares, in seeded order, so that
    block walls differ by order and parameters, not by composition.
    """
    rng = random.Random(seed * 1_000_003 + k)
    kinds = (["unique"] * (BLOCK // 2) + ["hot"] * (BLOCK * 3 // 10)
             + ["cluster"] * (BLOCK // 5))
    rng.shuffle(kinds)
    block = []
    for i, kind in enumerate(kinds):
        if kind == "unique":
            block.append(("unique", {"workload": "spin", "params": {
                "duration_s": 0.0, "tag": f"u-{seed}-{k}-{i}"}}))
        elif kind == "hot":
            j = rng.randrange(HOT_POINTS)
            block.append(("hot", {"workload": "spin", "params": {
                "duration_s": 0.0, "tag": f"hot-{seed}-{j}"}}))
        else:
            block.append(("cluster", {"workload": "cluster", "params": {
                "n_servers": 8,
                "arrival_rate": round(rng.uniform(3.0, 7.0), 3),
                "n_requests": 2000,
                "seed": rng.randrange(1 << 30),
                "balancer": rng.choice(BALANCERS),
            }}))
    return block


def warmup_plan(seed: int) -> List[Tuple[str, dict]]:
    """Every hot point once (so repeats hit the cache) plus a few of each
    unique kind, outside the block numbering of the timed plan."""
    hot = [("hot", {"workload": "spin", "params": {
        "duration_s": 0.0, "tag": f"hot-{seed}-{j}"}})
        for j in range(HOT_POINTS)]
    extra = [r for r in plan_block(seed, -1) if r[0] != "hot"][:8]
    return hot + extra


# -- the server child ---------------------------------------------------------


class Server:
    """One server child process; every wait on it is bounded."""

    def __init__(self, root: str, src: str, trace: bool, n: int) -> None:
        self.cache_dir = os.path.join(root, ".perfbench-run",
                                      f"{os.getpid()}-{n}")
        os.makedirs(self.cache_dir, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"),
             "--src", src, "--cache-dir", self.cache_dir,
             "--jobs", str(JOBS), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.clean = False
        try:
            self.port = self._read_port()
        except BaseException:
            self.kill()
            self._remove_cache()
            raise

    def _read_port(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(timeout=BOOT_TIMEOUT_S):
                raise RuntimeError(
                    f"server did not listen within {BOOT_TIMEOUT_S:.0f}s")
        finally:
            sel.close()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before listening")
        return int(json.loads(line)["port"])

    def stop(self) -> Optional[dict]:
        """SIGTERM (the server drains), bounded; kill if it overruns.

        Returns the traced child's report, or ``None``.  A stop that had
        to kill leaves :attr:`clean` false.
        """
        report = None
        try:
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
            self.clean = self.proc.returncode == 0
            lines = out.strip().splitlines()
            report = json.loads(lines[-1]) if lines else None
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.kill()
            self._remove_cache()
        return report

    def rss_peak_mb(self) -> float:
        """Peak resident set size of the server process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def _remove_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.cache_dir))
        except OSError:  # another server's cache is still there
            pass

    def kill(self) -> None:
        """SIGKILL the server and its pool workers unless it has exited."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.communicate(timeout=STOP_TIMEOUT_S)

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        """``GET /metrics`` counters (``repro_<name>_total``)."""
        out = {}
        for line in self.get("/metrics").splitlines():
            name, _, value = line.partition(" ")
            if name.startswith("repro_serve_") and name.endswith("_total"):
                out[name[len("repro_serve_"):-len("_total")]] = float(value)
        return out


# -- the client ---------------------------------------------------------------


class Outcome:
    __slots__ = ("kind", "params", "latency_s", "ok", "design_id", "cached",
                 "result")

    def __init__(self, kind: str, params: dict) -> None:
        self.kind = kind
        self.params = params
        self.latency_s = 0.0
        self.ok = False
        self.design_id: Optional[str] = None
        self.cached = False
        self.result: Any = None


def send(port: int, kind: str, body: dict) -> Outcome:
    """One ``wait=true`` request; a timeout or bad reply is a failure."""
    out = Outcome(kind, body["params"])
    payload = json.dumps({**body, "wait": True,
                          "wait_timeout_s": REQUEST_TIMEOUT_S})
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S + 5.0)
    t0 = time.perf_counter()
    try:
        conn.request("POST", "/v1/experiments", payload,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        out.latency_s = time.perf_counter() - t0
        if resp.status != 200:
            return out
        run = json.loads(data)["runs"][0]
    except (OSError, http.client.HTTPException, ValueError, KeyError):
        out.latency_s = time.perf_counter() - t0
        return out
    finally:
        conn.close()
    out.design_id = run.get("design_id")
    out.cached = bool(run.get("cached"))
    out.result = run.get("result")
    out.ok = run.get("status") == "succeeded"
    if kind != "cluster":
        out.ok = out.ok and out.result == {
            "duration_s": 0.0, "tag": body["params"]["tag"]}
    return out


class Phase:
    """Timed blocks against one server."""

    def __init__(self) -> None:
        self.outcomes: List[Outcome] = []
        self.walls: List[float] = []
        self.refs: List[float] = []
        self.windows: List[Tuple[float, float]] = []
        self.counters: Dict[str, float] = {}


def run_phases(servers: List[Server], pool: ThreadPoolExecutor, seed: int,
               seconds: float, enough: Callable[[Phase], bool],
               reference: Callable[[], float]) -> List[Phase]:
    """Send blocks, taking turns over ``servers``, until ``seconds`` have
    passed, each server has :data:`MIN_PASSES` blocks and ``enough``
    holds for the last server's phase.  Past a hard stop (a server
    answering only with timeouts) no new request is sent.  ``reference``
    times the host-speed reference before each block and after the
    last one."""
    phases = [Phase() for _ in servers]
    before = [server.counters() for server in servers]
    start = time.perf_counter()
    hard_stop = start + 2 * seconds + 20.0

    def bounded_send(port: int, request: Tuple[str, dict]) -> Optional[Outcome]:
        if time.perf_counter() >= hard_stop:
            return None
        return send(port, *request)

    k = 0
    while True:
        for server, phase in zip(servers, phases):
            block = plan_block(seed, k)
            k += 1
            phase.refs.append(reference())
            t0 = time.perf_counter()
            done = list(pool.map(lambda r: bounded_send(server.port, r), block))
            t1 = time.perf_counter()
            phase.outcomes += [o for o in done if o is not None]
            phase.walls.append(t1 - t0)
            phase.windows.append((t0, t1))
        if t1 >= hard_stop or (t1 - start >= seconds
                               and len(phases[-1].walls) >= MIN_PASSES
                               and enough(phases[-1])):
            break
    for phase in phases:
        phase.refs.append(reference())
    for server, phase, old in zip(servers, phases, before):
        new = server.counters()
        phase.counters = {name: new.get(name, 0.0) - old.get(name, 0.0)
                          for name in set(new) | set(old)}
    return phases


def check_clusters(outcomes: List[Outcome], seed: int) -> Tuple[int, int]:
    """Recompute a seeded sample of cluster results in-process and mark
    the ones that differ as failed; ``(checked, wrong)``."""
    from repro.exec.cache import canonicalize
    from repro.serve.workloads import run_cluster

    done = [o for o in outcomes if o.kind == "cluster" and o.ok]
    sample = random.Random(seed).sample(done, min(CLUSTER_SAMPLE, len(done)))
    wrong = 0
    for o in sample:
        want = json.loads(json.dumps(canonicalize(run_cluster(dict(o.params)))))
        if o.result != want:
            o.ok = False
            wrong += 1
    return len(sample), wrong


def boot(root: str, src: str, trace: bool, n: int, seed: int,
         pool: ThreadPoolExecutor) -> Tuple[float, Server]:
    """Boot a server and warm it up; the seconds that took."""
    t0 = time.perf_counter()
    server = Server(root, src, trace, n)
    try:
        warm = list(pool.map(lambda r: send(server.port, *r), warmup_plan(seed)))
        if not all(o.ok for o in warm):
            raise RuntimeError("server warm-up requests failed")
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - t0, server


def _lat(outcomes: List[Outcome], kinds: Tuple[str, ...]) -> Dict[str, Any]:
    return summarize_ms([o.latency_s for o in outcomes if o.kind in kinds])


def run(workload: str, seed: int, seconds: float, trace: bool, src: str,
        reference: Callable[[], float]) -> Dict[str, Any]:
    root = os.path.dirname(src)
    pool = ThreadPoolExecutor(max_workers=CONNECTIONS)
    servers: List[Server] = []
    try:
        if trace:
            # An untraced and a traced server take turns block by block,
            # so the overhead ratio compares blocks run moments apart.
            _, plain = boot(root, src, False, 0, seed, pool)
            servers.append(plain)
            setup_s, server = boot(root, src, True, 1, seed, pool)
            servers.append(server)
            base, phase = run_phases(
                [plain, server], pool, seed, seconds,
                lambda p: sum(not o.cached for o in p.outcomes) >= MIN_DISPATCHED,
                reference)
            plain.stop()
        else:
            times, refs = [], []
            for n in range(SETUP_REPS):
                if servers:
                    servers[-1].stop()
                refs.append(reference())
                took, server = boot(root, src, False, n, seed, pool)
                servers.append(server)
                times.append(took)
            refs.append(reference())
            setup_s = median(at_reference_speed(times, refs))
            phase, = run_phases([server], pool, seed, seconds,
                                lambda p: len(p.outcomes) >= MIN_REQUESTS,
                                reference)
        rss_mb = server.rss_peak_mb()
        report = server.stop()
    finally:
        for s in servers:
            s.kill()
            s._remove_cache()
        pool.shutdown(wait=True)
    if trace and report is None:
        raise RuntimeError("traced server gave no report")

    checked, wrong = check_clusters(phase.outcomes, seed)
    outcomes = phase.outcomes
    # Each server stop is an operation too: one that overran its bound
    # and had to be killed counts as failed.
    unclean_stops = sum(not s.clean for s in servers)
    failed = sum(not o.ok for o in outcomes) + unclean_stops
    timed_s = sum(phase.walls)
    everything = _lat(outcomes, ("unique", "hot", "cluster"))
    record = {
        "requests": len(outcomes),
        "blocks": len(phase.walls),
        "wall_s": median(phase.walls),
        "pass_walls_s": phase.walls,
        "pass_refs_s": phase.refs,
        "block_requests": BLOCK,
        "connections": CONNECTIONS,
        "jobs": JOBS,
        "req_per_s": sum(o.ok for o in outcomes) / timed_s,
        "latency_ms": everything,
        "unique_ms": _lat(outcomes, ("unique",)),
        "hot_ms": _lat(outcomes, ("hot",)),
        "cluster_ms": _lat(outcomes, ("cluster",)),
        "mix": {kind: sum(o.kind == kind for o in outcomes)
                for kind in ("unique", "hot", "cluster")},
        "cluster_results_checked": checked,
        "cluster_results_wrong": wrong,
        "server_counters_delta": phase.counters,
        "server_stops": len(servers),
        "server_stops_killed": unclean_stops,
    }
    out: Dict[str, Any] = {
        "attempted": len(outcomes) + len(servers),
        "failed": failed,
        "correct": failed == 0,
        "metrics": {"setup_s": setup_s, "rss_peak_mb": rss_mb,
                    "wall_ref_s": median(at_reference_speed(phase.walls,
                                                            phase.refs))},
        "record": record,
    }
    if trace:
        out["layer"] = _layer(phase, base, report, record)
        out["spans"] = report["spans"]
    return out


def _layer(phase: Phase, base: Phase, report: dict,
           record: Dict[str, Any]) -> Dict[str, float]:
    """Per-pass serve/exec/gc metrics of the traced phase; notes the
    sample counts behind its percentiles in ``record``."""
    start, end = phase.windows[0][0], phase.windows[-1][1]
    spans = [s for s in import_spans(report["spans"])
             if start <= s.start <= end]
    passes = len(phase.walls)
    dispatched = sum(not o.cached for o in phase.outcomes)
    tail_p = tail_percentile(dispatched) or 50.0
    served = serve_metrics(spans, passes, tail_p)
    record["serve_layer_samples"] = {**served["samples"], "tail_p": tail_p}
    layer = dict(served["metrics"])
    inside = served["inside"]
    outside = [o.latency_s - (0.0 if o.cached else inside.get(o.design_id, 0.0))
               for o in phase.outcomes if o.ok]
    layer["serve.outside_ms_p50"] = median(outside) * 1e3 if outside else 0.0
    c = phase.counters
    requests = c.get("requests", 0.0)
    layer["serve.dispatched"] = c.get("dispatched", 0.0) / passes
    layer["serve.cache_fast_path"] = c.get("cache_fast_path", 0.0) / passes
    layer["serve.shed"] = c.get("shed", 0.0) / passes
    layer["serve.coalesce_ratio"] = (
        (c.get("coalesced", 0.0) + c.get("cache_fast_path", 0.0)) / requests
        if requests else 0.0)
    meter = GcMeter()
    meter.events = [tuple(e) for e in report["gc"]]
    layer.update(gc_metrics(meter, phase.windows))
    layer["tracing.overhead_ratio"] = paired_ratio(phase.walls, base.walls)
    layer["tracing.unattributed_s"] = sum(
        unattributed([s for s in spans if t0 <= s.start <= t1], t0, t1)
        for t0, t1 in phase.windows) / passes
    return layer
