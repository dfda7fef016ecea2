import sys
import threading
import time

import pytest

import neuperm.sweep as sweep


def _bounded(fn, timeout=60.0):
    """Run fn on a daemon thread; fail instead of hanging if it never returns."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as e:  # handed to the test thread below
            out["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "sweep did not finish"
    if "error" in out:
        raise out["error"]
    return out.get("value")


def test_run_ordered_consumes_every_item_once_in_order_under_stress(monkeypatch):
    """More threads than cores and a tiny switch interval: every item is
    consumed exactly once, in order, and never two at once."""
    monkeypatch.setattr(sweep, "workers", lambda: 8)
    items = range(3000)
    consumed = []
    consuming = threading.Lock()

    def consume(item, result):
        assert consuming.acquire(blocking=False), "two consumes ran at once"
        consumed.append((item, result))
        consuming.release()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _bounded(lambda: sweep.run_ordered(lambda i: i * i, consume, items))
    finally:
        sys.setswitchinterval(interval)
    assert consumed == [(i, i * i) for i in items]


@pytest.mark.parametrize("where", ["produce", "consume"])
def test_run_ordered_error_stops_every_helper(monkeypatch, where):
    monkeypatch.setattr(sweep, "workers", lambda: 4)
    before = threading.active_count()

    def produce(i):
        if where == "produce" and i == 101:
            raise KeyError(i)
        return i

    def consume(i, result):
        if where == "consume" and i == 57:
            raise KeyError(i)

    with pytest.raises(KeyError):
        _bounded(lambda: sweep.run_ordered(produce, consume, range(1000)))
    assert threading.active_count() == before


def test_run_ordered_with_no_items_does_nothing():
    calls = []
    _bounded(lambda: sweep.run_ordered(calls.append, lambda *_: calls.append("consumed"), range(0)))
    assert calls == []


def test_held_up_item_does_not_stall_the_others(monkeypatch):
    """While item 0 is held up, the other thread goes on to item 2."""
    monkeypatch.setattr(sweep, "workers", lambda: 2)
    item_2_ran = threading.Event()
    held = {}

    def produce(i):
        if i == 0:
            held["item 2 ran meanwhile"] = item_2_ran.wait(5.0)
        elif i == 2:
            item_2_ran.set()
        return i

    consumed = []
    _bounded(lambda: sweep.run_ordered(produce, lambda i, r: consumed.append(r), range(6)))
    assert held == {"item 2 ran meanwhile": True}
    assert consumed == list(range(6))


@pytest.mark.parametrize("workers", [2, 3])
def test_look_ahead_is_bounded_while_an_item_is_held_up(monkeypatch, workers):
    """While item 0 is held up, the other threads produce items up to the
    look-ahead bound, _AHEAD * W items taken and not consumed, and no further."""
    monkeypatch.setattr(sweep, "workers", lambda: workers)
    bound = sweep._AHEAD * workers - 1  # items produced besides item 0
    others = []
    reached = threading.Event()
    held = {}

    def produce(i):
        if i == 0:
            reached.wait(5.0)
            time.sleep(0.2)  # room for items past the bound to show
            held["others produced"] = len(others)
        else:
            others.append(i)
            if len(others) >= bound:
                reached.set()
        return i

    consumed = []
    _bounded(lambda: sweep.run_ordered(produce, lambda i, r: consumed.append(r), range(40)))
    assert held == {"others produced": bound}
    assert consumed == list(range(40))


def test_background_returns_the_result_inside_and_after_the_block():
    def body():
        before = threading.active_count()
        with sweep.background(lambda a, b: (a + b, threading.get_ident()), 2, 3) as result:
            value, ident = result()
        assert (value, ident != threading.get_ident()) == (5, True)
        assert result() == (value, ident)
        assert threading.active_count() == before

    _bounded(body)


def test_background_raises_the_helpers_error_from_result():
    def fail():
        raise KeyError("boom")

    def body():
        with sweep.background(fail) as result:
            pass
        with pytest.raises(KeyError, match="boom"):
            result()

    _bounded(body)


def test_background_waits_for_the_helper_when_the_block_raises():
    """Leaving the block by an error still joins the helper, so it never
    outlives the block, and the block's error is the one raised."""
    finished = []

    def slow():
        time.sleep(0.2)
        finished.append(True)

    def body():
        before = threading.active_count()
        with pytest.raises(ValueError, match="block"):
            with sweep.background(slow):
                raise ValueError("block")
        assert finished == [True]
        assert threading.active_count() == before

    _bounded(body)


def test_feeding_calls_fn_on_every_item_in_order_on_one_helper():
    """At a tiny switch interval every item is done once, in the order put,
    on one helper thread; join() waits for every item put so far, and the
    helper is gone once the block is left."""
    done, idents = [], set()

    def fn(item):
        idents.add(threading.get_ident())
        done.append(item)

    def body():
        before = threading.active_count()
        with sweep.feeding(fn) as items:
            for i in range(1000):
                items.put(i)
            items.join()
            assert done == list(range(1000))
            for i in range(1000, 2000):
                items.put(i)
        assert done == list(range(2000))
        assert len(idents) == 1 and threading.get_ident() not in idents
        assert threading.active_count() == before

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _bounded(body)
    finally:
        sys.setswitchinterval(interval)


def test_feeding_holds_few_items_ahead_of_a_slow_helper():
    """put waits while _QUEUED items wait beside the one the helper is on."""
    gate, taken = threading.Event(), []

    def fn(item):
        taken.append(item)
        gate.wait()

    def body():
        sent = []
        with sweep.feeding(fn) as items:
            def feed():
                for i in range(10):
                    items.put(i)
                    sent.append(i)

            feeder = threading.Thread(target=feed)
            feeder.start()
            time.sleep(0.2)
            ahead = len(sent)
            gate.set()
            feeder.join()
        assert ahead == 1 + sweep._QUEUED and taken == list(range(10))

    _bounded(body)


def test_feeding_raises_the_helpers_error_and_skips_the_rest():
    done = []

    def fn(item):
        if item == 3:
            raise KeyError("boom")
        done.append(item)

    def body():
        before = threading.active_count()
        with pytest.raises(KeyError, match="boom"):
            with sweep.feeding(fn) as items:
                for i in range(50):
                    items.put(i)
        assert done == [0, 1, 2]
        assert threading.active_count() == before

    _bounded(body)


def test_feeding_stops_the_helper_when_the_block_raises():
    """The block's error is raised once the helper has stopped; items still
    waiting are skipped."""
    gate, done = threading.Event(), []

    def fn(item):
        gate.wait()
        done.append(item)

    def body():
        before = threading.active_count()
        with pytest.raises(ValueError, match="block"):
            with sweep.feeding(fn) as items:
                items.put(0)
                items.put(1)
                gate.set()
                raise ValueError("block")
        assert done in ([], [0])
        assert threading.active_count() == before

    _bounded(body)


@pytest.mark.parametrize("helper", ["background", "feeding", "run_ordered"])
def test_a_helper_that_cannot_start_raises_memory_error(monkeypatch, helper):
    """The RuntimeError of a thread that cannot start becomes a MemoryError;
    in a sweep, it comes once the helpers already started have stopped."""
    real, asked = threading.Thread.start, []

    def start(thread):
        asked.append(thread)
        if len(asked) == 3 or helper != "run_ordered":
            raise RuntimeError("can't start new thread")
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(sweep, "workers", lambda: 5)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="^cannot start a helper thread: can't start new thread$"):
        if helper == "background":
            with sweep.background(print):
                pass
        elif helper == "feeding":
            with sweep.feeding(print):
                pass
        else:
            sweep.run_ordered(lambda i: i, lambda i, r: None, range(100))
    assert threading.active_count() == before
