"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import math

import pytest

from measure import (
    Span,
    Tracer,
    export_spans,
    import_spans,
    mismatches,
    outer_total,
    percentile,
    self_time,
    self_total,
    tail_percentile,
    unattributed,
    union_length,
)
from reference import REFERENCE_S, Reference, at_reference_speed


def span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    return s


# -- self time ----------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert self_time(span("a", 1.0, 4.0), []) == 3.0


def test_self_time_subtracts_nested_children():
    root = span("root", 0.0, 10.0)
    kids = [span("k", 1.0, 3.0, root), span("k", 5.0, 6.0, root)]
    assert self_time(root, kids) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    root = span("root", 0.0, 10.0)
    kids = [span("a", 1.0, 5.0, root), span("b", 4.0, 7.0, root),
            span("c", 6.0, 6.5, root)]
    assert self_time(root, kids) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    root = span("root", 2.0, 6.0)
    kids = [span("a", 0.0, 3.0, root), span("b", 5.0, 9.0, root)]
    assert self_time(root, kids) == pytest.approx(2.0)


def test_self_total_uses_only_direct_children():
    root = span("drain", 0.0, 10.0)
    child = span("load", 2.0, 6.0, root)
    grandchild = span("drain", 3.0, 4.0, child)
    spans = [root, child, grandchild]
    # root: 10 - 4 = 6; nested drain: 1 with no children.
    assert self_total(spans, "drain") == pytest.approx(7.0)
    assert self_total(spans, "load") == pytest.approx(3.0)


def test_outer_total_skips_spans_nested_in_the_same_name():
    outer = span("core.load", 0.0, 4.0)
    inner = span("core.load", 1.0, 3.0, outer)
    other = span("core.load", 5.0, 6.0)
    assert outer_total([outer, inner, other], "core.load") == pytest.approx(5.0)


def test_union_length_merges_and_ignores_empty_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6), (7, 7), (8, 7)]) == 4


def test_unattributed_is_wall_minus_root_coverage():
    roots = [span("a", 1.0, 3.0), span("b", 2.0, 4.0)]
    child = span("c", 1.5, 2.5, roots[0])
    assert unattributed(roots + [child], 0.0, 10.0) == pytest.approx(7.0)


def test_tracer_links_parents_and_restores_wrapped_methods():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    class Sub(Layer):
        pass

    tracer = Tracer()
    tracer.wrap(Sub, "outer", "outer")
    tracer.wrap(Sub, "inner", "inner", lambda a, k, r: r)
    assert Sub().outer() == 42
    inner, = [s for s in tracer.spans if s.name == "inner"]
    assert inner.parent.name == "outer" and inner.tag == 41
    tracer.unwrap_all()
    assert "outer" not in vars(Sub) and "inner" not in vars(Sub)
    assert Sub().outer() == 42 and len(tracer.spans) == 2


def test_wrap_iter_times_each_item():
    class Reader:
        def blocks(self):
            yield from (1, 2, 3)

    tracer = Tracer()
    tracer.wrap_iter(Reader, "blocks", "decode")
    assert list(Reader().blocks()) == [1, 2, 3]
    tracer.unwrap_all()
    # One span per item plus the one that met the end of the iterator.
    assert [s.name for s in tracer.spans] == ["decode"] * 4


def test_spans_survive_export_and_import():
    root = span("a", 0.0, 2.0)
    spans = [root, span("b", 0.5, 1.0, root)]
    spans[1].tag = ["design", 0.25]
    back = import_spans(export_spans(spans))
    assert back[1].parent is back[0] and back[1].tag == ["design", 0.25]
    assert self_total(back, "a") == pytest.approx(1.5)


# -- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10 - 1e-9


def test_percentile_interpolates_like_numpy():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 0) == 1.0 and percentile(xs, 100) == 4.0
    assert percentile(list(range(101)), 99) == pytest.approx(99.0)


# -- oracle comparator --------------------------------------------------------


def test_identical_payloads_match():
    payload = {"requests": 10, "latency_s": {"p50": 0.25, "p99": 1.5},
               "served": [3, 7], "policy": "rr", "ok": True}
    assert mismatches(payload, dict(payload)) == []


def test_float_within_relative_tolerance_matches():
    want = {"mean": 0.1 + 0.2, "total": 1e6}
    got = {"mean": 0.3, "total": 1e6 * (1 + 5e-10)}
    assert mismatches(got, want) == []


def test_float_beyond_relative_tolerance_fails():
    assert mismatches({"mean": 1.0 + 3e-9}, {"mean": 1.0}) == ["$.mean"]


def test_one_wrong_count_fails():
    want = {"served_per_server": [10, 12, 9], "requests": 31}
    got = {"served_per_server": [10, 13, 9], "requests": 31}
    assert mismatches(got, want) == ["$.served_per_server[1]"]


def test_counts_get_no_tolerance_even_when_huge():
    assert mismatches({"n": 10**12 + 1}, {"n": 10**12}) == ["$.n"]


def test_shape_type_and_nan_differences_fail():
    assert mismatches({"a": 1}, {"a": 1, "b": 2}) == ["$"]
    assert mismatches([1, 2], [1, 2, 3]) == ["$"]
    assert mismatches({"flag": 1}, {"flag": True}) == ["$.flag"]
    assert mismatches({"x": "1"}, {"x": 1}) == ["$.x"]
    assert mismatches({"x": math.nan}, {"x": math.nan}) == ["$.x"]


def test_zero_matches_only_zero():
    assert mismatches(0.0, 0.0) == []
    assert mismatches(1e-300, 0.0) == ["$"]


# -- host speed ---------------------------------------------------------------


def test_wall_is_rescaled_by_the_references_around_it():
    refs = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    got = at_reference_speed([1.0, 5.0], refs)
    assert got == pytest.approx([0.5, 2.0])


def test_rescaling_needs_a_reference_around_each_wall():
    with pytest.raises(ValueError):
        at_reference_speed([1.0, 2.0], [REFERENCE_S] * 2)


def test_reference_process_times_work_and_exits_on_close():
    with Reference() as reference:
        assert reference() > 0.0
        assert reference() > 0.0
    assert reference.proc.returncode == 0
