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
