import multiprocessing
from collections import defaultdict

import pytest

from tracing import Tracer, covered, fold


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 4), (3, 6)], 0, 10) == 5
    assert covered([(2, 3), (1, 4)], 0, 10) == 3
    assert covered([(-2, 1), (9, 12), (5, 5)], 0, 10) == 2


def _totals(records):
    span_s, self_s = defaultdict(float), defaultdict(float)
    fold(records, span_s, self_s)
    return dict(span_s), dict(self_s)


def test_self_time_subtracts_nested_children():
    records = [
        (1, None, "root", 0.0, 10.0),
        (2, 1, "child", 1.0, 5.0),
        (3, 2, "leaf", 2.0, 3.0),
        (4, 1, "leaf", 6.0, 7.0),
    ]
    span_s, self_s = _totals(records)
    assert self_s == {"root": 5.0, "child": 3.0, "leaf": 2.0}
    assert span_s == {"root": 10.0, "child": 4.0, "leaf": 2.0}


def test_self_time_counts_overlapping_children_once():
    # two workers busy under one parent, partly at the same time
    records = [
        (1, None, "scan", 0.0, 10.0),
        (2, 1, "task", 1.0, 6.0),
        (3, 1, "task", 4.0, 9.0),
        (4, 1, "task", 8.5, 11.0),
    ]
    span_s, self_s = _totals(records)
    # the union of the tasks, clipped to the scan, is [1, 10]
    assert self_s["scan"] == pytest.approx(1.0)
    assert span_s["task"] == pytest.approx(12.5)


def test_recursive_spans_count_their_outermost_time_once():
    records = [
        (1, None, "build", 0.0, 4.0),
        (2, 1, "build", 1.0, 3.0),
    ]
    span_s, self_s = _totals(records)
    assert span_s == {"build": 4.0}
    assert self_s == {"build": 4.0}


def test_wrap_records_calls_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert tracer.counts == {"outer": 1, "inner": 2}
    # ticks: outer 0..5, inner 1..2 and 3..4
    assert tracer.span_s == {"outer": 5.0, "inner": 2.0}
    assert tracer.self_s == {"outer": 3.0, "inner": 2.0}
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("fails", lambda: 1 / 0)()
    assert tracer.counts["fails"] == 1 and tracer.span_s["fails"] == 1.0


def test_forked_worker_spans_join_the_parent_tree(tmp_path):
    tracer = Tracer(spool_dir=tmp_path)
    work = tracer.wrap("task", lambda: sum(range(10_000)))

    def run_worker():
        proc = multiprocessing.get_context("fork").Process(target=work)
        proc.start()
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0

    tracer.wrap("scan", run_worker)()
    assert tracer.counts["task"] == 1
    assert 0 < tracer.span_s["task"] < tracer.span_s["scan"]
    assert tracer.self_s["scan"] == pytest.approx(tracer.span_s["scan"] - tracer.span_s["task"])
    assert list(tmp_path.iterdir()) == []
