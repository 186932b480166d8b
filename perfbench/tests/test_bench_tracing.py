"""Self-time arithmetic, wrapping and restoring, and the per-layer metric list."""

import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from tracing import (Patches, PeakTracker, Span, Target, Tracer, aggregate,
                     link_children, self_time, uncovered_by_thread, union_length,
                     wrap_everywhere)

MAIN, WORKER_A, WORKER_B = 1, 2, 3


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert union_length([], 0, 1) == 0.0


def test_self_time_nested_spans_on_one_thread():
    outer = Span("outer", MAIN, 0.0, 10.0)
    mid = Span("mid", MAIN, 1.0, 6.0, parent=outer)
    inner = Span("inner", MAIN, 2.0, 3.0, parent=mid)
    late = Span("late", MAIN, 7.0, 9.0, parent=outer)
    spans = [inner, mid, late, outer]
    link_children(spans, MAIN)
    assert self_time(outer) == pytest.approx(10 - 5 - 2)
    assert self_time(mid) == pytest.approx(5 - 1)
    assert self_time(inner) == pytest.approx(1)
    stats = aggregate(spans)
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(outer.duration)


def test_self_time_two_worker_threads_overlap_once():
    # main dispatches two workers whose spans overlap in time; the main
    # span's self time is what no worker covers, counted once
    pipeline = Span("run_pipeline", MAIN, 0.0, 10.0)
    a = Span("run_activity", WORKER_A, 1.0, 6.0)
    b = Span("run_activity", WORKER_B, 2.0, 8.0)
    a_child = Span("extract", WORKER_A, 2.0, 4.0, parent=a)
    spans = [a_child, a, b, pipeline]
    link_children(spans, MAIN)
    assert set(pipeline.children) == {a, b}
    assert self_time(pipeline) == pytest.approx(10 - 7)
    assert self_time(a) == pytest.approx(3)
    assert self_time(b) == pytest.approx(6)
    # a worker span never adopts the other worker's span
    assert a.children == [a_child]


def test_worker_span_adopted_by_innermost_main_span():
    outer = Span("outer", MAIN, 0.0, 10.0)
    inner = Span("inner", MAIN, 2.0, 8.0, parent=outer)
    job = Span("job", WORKER_A, 3.0, 5.0)
    link_children([outer, inner, job], MAIN)
    assert inner.children == [job]
    assert outer.children == [inner]


def test_uncovered_time_per_thread():
    top = Span("top", MAIN, 1.0, 4.0)
    w1 = Span("job", WORKER_A, 2.0, 3.0)
    w2 = Span("job", WORKER_A, 3.5, 5.0)
    out = uncovered_by_thread([top, w1, w2], MAIN, (0.0, 6.0))
    assert out[MAIN] == pytest.approx(3.0)
    assert out[WORKER_A] == pytest.approx(0.5)


def test_tracer_records_real_threads_and_activity():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def job(label):
        return traced_leaf(1)

    traced_job = tracer.wrap("job", job, activity_of=lambda a, k: a[0])
    workers = [threading.Thread(target=traced_job, args=(f"S{i}",)) for i in (1, 2)]

    def dispatch():
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)

    tracer.wrap("root", dispatch)()
    assert not any(w.is_alive() for w in workers)
    spans = tracer.spans()
    names = sorted(s.name for s in spans)
    assert names == ["job", "job", "leaf", "leaf", "root"]
    leaves = [s for s in spans if s.name == "leaf"]
    assert sorted(s.activity for s in leaves) == ["S1", "S2"]
    assert all(s.parent.name == "job" for s in leaves)
    (root_span,) = [s for s in spans if s.name == "root"]
    assert {s.name for s in root_span.children} == {"job"}


def test_wrap_everywhere_patches_importers_and_restores():
    from mdcl import corners, pipeline
    original = corners.extract_corners
    assert pipeline.extract_corners is original
    tracer, patches = Tracer(), Patches()
    assert wrap_everywhere(patches, Target("corners", "extract_corners"),
                           lambda fn: tracer.wrap("x", fn))
    assert corners.extract_corners is not original
    assert pipeline.extract_corners is corners.extract_corners
    patches.restore()
    assert corners.extract_corners is original
    assert pipeline.extract_corners is original


def test_absent_targets_are_reported_not_fatal():
    patches = Patches()
    assert not wrap_everywhere(patches, Target("corners", "no_such_function"),
                               lambda fn: fn)
    assert not wrap_everywhere(patches, Target("no_such_module", "f"),
                               lambda fn: fn)


def test_peak_tracker_nests():
    tracker = PeakTracker()

    def inner():
        block = np.ones(4 * 1024 * 1024 // 8)       # 4 MiB
        return float(block[0])

    traced_inner = tracker.wrap("inner", inner)

    def outer():
        keep = np.ones(2 * 1024 * 1024 // 8)        # 2 MiB held across inner
        return traced_inner() + float(keep[0])

    traced_outer = tracker.wrap("outer", outer)
    tracemalloc.start()
    try:
        traced_outer()
    finally:
        tracemalloc.stop()
    assert 3.9 < tracker.peaks_mib["inner"] < 4.5
    assert 5.9 < tracker.peaks_mib["outer"] < 6.5


def test_steal_frac_is_stolen_share_of_wanted_ticks():
    assert run.steal_frac((10, 100), (30, 200)) == pytest.approx(0.2)
    assert run.steal_frac(None, (30, 200)) == 0.0
    assert run.steal_frac((10, 100), (10, 100)) == 0.0
    ticks = run.cpu_ticks()
    assert ticks is None or 0 <= ticks[0] <= ticks[1]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)


def test_per_layer_values_cover_every_metric_when_nothing_ran():
    values = layers.per_layer_values({}, {}, {}, overhead_frac=0.1,
                                     steal_frac=0.0, uncovered_main=0.0,
                                     uncovered_workers=0.0, workers=2)
    assert set(values) == {name for name, _ in layers.PER_LAYER}
