"""Measurement helpers shared by every workload of the benchmark.

Nothing here imports the program under test, so the helpers can be
unit-tested (``test_measure.py``) and used in the server child before
``repro`` is importable.

* :class:`Tracer` keeps spans in memory (name, start, end, parent, tag)
  and wraps public callables of the program from outside, so the
  program itself carries no tracing code.
* :func:`self_time` / :func:`union_length` give a span's duration minus
  the part of its interval that its children cover, counting time
  covered by overlapping children once.
* :func:`tail_percentile` is the reporting rule for timings: the highest
  percentile that still has at least ten samples beyond it.
* :func:`mismatches` is the oracle comparator: counts exact, floats to a
  relative 1e-9.
* :class:`GcMeter` times collector pauses through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import math
import resource
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Relative tolerance for floats in the oracle comparison: loose enough
#: that a reordered float sum still passes, tight enough that any real
#: change in a simulated value fails.
REL_TOL = 1e-9


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def paired_ratio(traced: Sequence[float], plain: Sequence[float]) -> float:
    """Median of ``traced[i] / plain[i]`` over passes run back to back,
    so that both sides of each ratio saw the same host regime."""
    return median([t / p for t, p in zip(traced, plain)])


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile in :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def summarize_ms(values_s: Sequence[float]) -> Dict[str, Any]:
    """p50 and the supported tail of a list of durations, in ms."""
    n = len(values_s)
    out: Dict[str, Any] = {"n": n}
    if n:
        ms = [v * 1e3 for v in values_s]
        out["p50"] = percentile(ms, 50.0)
        tail = tail_percentile(n)
        if tail is not None and tail > 50.0:
            out["tail_p"] = tail
            out["tail"] = percentile(ms, tail)
    return out


def rss_peak_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- oracle comparator ------------------------------------------------------


def mismatches(got: Any, want: Any, rel: float = REL_TOL,
               path: str = "$") -> List[str]:
    """Paths at which ``got`` differs from ``want``.

    Integers, booleans and strings must be equal; a float on either side
    must agree to ``rel`` relative to the larger magnitude.  Containers
    must have the same keys or length.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path]
        out: List[str] = []
        for key in sorted(want, key=str):
            out += mismatches(got[key], want[key], rel, f"{path}.{key}")
        return out
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [path]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, rel, f"{path}[{i}]")
        return out
    numeric = (int, float)
    if (isinstance(got, numeric) and isinstance(want, numeric)
            and not isinstance(got, bool) and not isinstance(want, bool)
            and (isinstance(got, float) or isinstance(want, float))):
        if got == want:
            return []
        scale = max(abs(got), abs(want))
        ok = math.isfinite(scale) and abs(got - want) <= rel * scale
        return [] if ok else [path]
    if type(got) is not type(want) or got != want:
        return [path]
    return []


# -- spans ------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 tag: Any = None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: Any = None) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None, tag)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner: Any, attr: str, name: str,
             tag: Optional[Callable[[tuple, dict, Any], Any]] = None) -> None:
        """Replace ``owner.attr`` with a version recording one span per call.

        ``tag(args, kwargs, result)`` may attach a value (a design id, a
        result size) to the span.  :meth:`unwrap_all` restores the owner.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(span)
                if tag is not None:
                    span.tag = tag(args, kwargs, result)

        self._patch(owner, attr, traced)

    def wrap_iter(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator method: one span per item."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any):
            items = original(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        self._patch(owner, attr, traced)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        if attr in vars(owner):
            original = vars(owner)[attr]
            self.on_unwrap(lambda: setattr(owner, attr, original))
        else:  # inherited: drop the override to expose the base again
            self.on_unwrap(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def on_unwrap(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` when :meth:`unwrap_all` restores the program."""
        self._undo.append(undo)

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    def take(self) -> List[Span]:
        """Finished spans so far; the recorder starts empty again."""
        spans, self.spans = self.spans, []
        return spans


def export_spans(spans: Sequence[Span]) -> List[list]:
    """Spans as JSON rows ``[name, start, end, parent row or -1, tag]``."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [[s.name, s.start, s.end,
             index.get(id(s.parent), -1) if s.parent is not None else -1,
             s.tag] for s in spans]


def import_spans(rows: Sequence[list]) -> List[Span]:
    """Inverse of :func:`export_spans`."""
    spans = [Span(name, start, None, tag) for name, start, _e, _p, tag in rows]
    for span, (_n, _s, end, parent, _t) in zip(spans, rows):
        span.end = end
        if parent >= 0:
            span.parent = spans[parent]
    return spans


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration of ``span`` minus the part its ``children`` cover."""
    covered = union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    return span.duration - covered


def has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def outer_total(spans: Iterable[Span], name: str) -> float:
    """Summed duration of ``name`` spans not nested in another ``name``."""
    return sum(s.duration for s in spans
               if s.name == name and not has_ancestor(s, name))


def self_total(spans: Sequence[Span], name: str) -> float:
    """Summed self time of every ``name`` span."""
    kids = children_of(spans)
    return sum(self_time(s, kids.get(id(s), ())) for s in spans
               if s.name == name)


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` that no root span covers."""
    roots = [(max(s.start, start), min(s.end, end))
             for s in spans if s.parent is None]
    return (end - start) - union_length(roots)


# -- garbage collector ------------------------------------------------------


class GcMeter:
    """Collector pauses and counts via ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.events: List[Tuple[float, float, int]] = []  # start, pause, gen
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._t0 = now
        else:
            self.events.append((self._t0, now - self._t0, info["generation"]))

    def install(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def totals(self, start: float, end: float) -> Dict[str, float]:
        """Pauses and counts of collections that started in the window."""
        inside = [e for e in self.events if start <= e[0] <= end]
        return {
            "pause_s": sum(e[1] for e in inside),
            "collections": float(len(inside)),
            "gen2_collections": float(sum(1 for e in inside if e[2] == 2)),
        }


def gc_collections() -> List[int]:
    """Cheap per-generation collection counts (untraced runs)."""
    return [g["collections"] for g in gc.get_stats()]
