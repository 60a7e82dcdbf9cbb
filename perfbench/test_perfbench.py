"""Tests of the benchmark's own helpers (statistics, spans, load generation)."""

from __future__ import annotations

import pytest

from benchstats import calibration_runs, digest, percentile, supported_percentile
from benchtrace import Recorder, Span, StageTimer, fastest_sum, self_times
from loadgen import open_loop


def test_supported_percentile_needs_ten_samples_beyond():
    assert supported_percentile(19) is None
    assert supported_percentile(20) == 50.0
    assert supported_percentile(99) == 50.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(150) == 90.0
    assert supported_percentile(10000) == 90.0
    for count in (100, 150, 1000):
        # Among the samples 1..count, the value v has count - v samples beyond it.
        ranked = percentile(range(1, count + 1), supported_percentile(count))
        assert count - ranked >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 151))  # 1..150, shuffled order must not matter
    assert percentile(reversed(values), 50) == 75
    assert percentile(values, 90) == 135  # 15 samples beyond
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(sid, parent, name, start, end, thread=1):
    return Span(id=sid, parent=parent, name=name, start=start, end=end, thread=thread)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 2, "leaf", 2.0, 3.0),
        _span(4, 1, "b", 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"root": 3.0, "a": 2.0, "leaf": 1.0, "b": 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_unions_overlapping_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "c", 1.0, 5.0, thread=2),
        _span(3, 1, "c", 3.0, 7.0, thread=3),
    ]
    assert self_times(spans)["root"] == pytest.approx(4.0)


def test_recorder_links_nested_spans_to_their_parent():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert self_times(recorder.spans) == {"outer": 2.0, "inner": 1.0}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    service = {0: 0.7}  # request 0 stalls; every other request takes 10 ms

    def send(index):
        clock.now += service.get(index, 0.01)
        return index

    result = open_loop(send, rate=2.0, count=4, clock=clock, sleep=clock.sleep)
    # Request 1 was due at 0.5 s but could only go out at 0.7 s: its latency
    # counts the 0.2 s it waited behind the stall, not just its 10 ms.
    assert result.latencies == pytest.approx([0.7, 0.21, 0.01, 0.01])
    assert result.lateness == pytest.approx([0.0, 0.2, 0.0, 0.0])
    assert result.service == pytest.approx([0.7, 0.01, 0.01, 0.01])
    assert result.outcomes == [0, 1, 2, 3]


def test_digest_is_stable_and_order_independent():
    payload = {"b": [1, 2.5, None], "a": {"y": "x", "x": 0.1}}
    reordered = {"a": {"x": 0.1, "y": "x"}, "b": [1, 2.5, None]}
    assert digest(payload) == digest(reordered)
    assert digest(payload) == "6a53676249d207da"
    assert digest([payload]) != digest(payload)


def test_stage_timer_keeps_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    timer = StageTimer(clock=lambda: next(ticks))
    inner = timer._wrap(lambda: "done", "inner")
    outer = timer._wrap(lambda: inner(), "outer")
    assert outer() == "done"
    # outer ran 0..6 and inner 1..3, so outer's own time is 6 - 2.
    assert timer.take() == [("inner", 2.0), ("outer", 4.0)]
    assert timer.take() == []


def test_fastest_sum_adds_each_calls_fastest_run():
    iterations = [
        (1.0, [("a", 0.5), ("b", 0.1), ("a", 0.2)]),  # 0.2 outside calls
        (0.9, [("a", 0.3), ("b", 0.2), ("a", 0.3)]),  # 0.1 outside calls
    ]
    # First a: 0.3, b: 0.1, second a: 0.2, remainder: 0.1.
    assert fastest_sum(iterations) == pytest.approx(0.7)
    assert fastest_sum(iterations[:1]) == pytest.approx(1.0)
    assert fastest_sum([(1.0, [("a", 0.5)]), (1.0, [("b", 0.5)])]) is None


def test_calibration_runs_time_both_loops():
    interpreter, array = calibration_runs()
    assert 0.0 < interpreter < 5.0 and 0.0 < array < 5.0
