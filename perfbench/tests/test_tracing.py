import threading
import time

import pytest

from ffbench.tracing import Span, Tracer, children_of, contains, self_times


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "outer", 0.0, 10.0, -1, 1),
        Span(1, "a", 2.0, 5.0, 0, 1),
        Span(2, "b", 4.0, 7.0, 0, 1),     # overlaps a: covered time is 2..7
        Span(3, "c", 9.0, 12.0, 0, 1),    # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0)


def test_overlapping_spans_on_two_threads_do_not_subtract_each_other():
    spans = [
        Span(0, "check", 0.0, 10.0, -1, 1),
        Span(1, "embed", 1.0, 4.0, 0, 1),
        Span(2, "check", 2.0, 9.0, -1, 2),     # other thread, overlaps in time
        Span(3, "fft", 3.0, 8.0, 2, 2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(7.0)
    assert own[2] == pytest.approx(2.0)
    kids = children_of(spans)
    assert contains(spans[0], "embed", kids)
    assert not contains(spans[0], "fft", kids)


def test_each_thread_keeps_its_own_parent_chain():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans()
    by_id = {s.sid: s for s in spans}
    outers = [s for s in spans if s.name == "outer"]
    inners = [s for s in spans if s.name == "inner"]
    assert len(outers) == len(inners) == 2
    for s in inners:
        assert by_id[s.parent].name == "outer"
        assert by_id[s.parent].thread == s.thread
    own = self_times(spans)
    for s in outers:
        assert own[s.sid] == pytest.approx(0.01, abs=0.008)


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    f = tracer.wrap("f", lambda x: x + 1)
    tracer.enabled = False
    assert f(1) == 2
    assert tracer.records == []
