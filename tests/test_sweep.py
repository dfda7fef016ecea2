import sys
import threading

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
    consumed exactly once, in order, on the calling thread."""
    monkeypatch.setattr(sweep, "workers", lambda: 8)
    items = range(3000)
    consumed, consumers = [], set()

    def consume(item, result):
        consumers.add(threading.get_ident())
        consumed.append((item, result))

    def run():
        consumers.clear()
        caller = threading.get_ident()
        sweep.run_ordered(lambda i: i * i, consume, items)
        return caller

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = _bounded(run)
    finally:
        sys.setswitchinterval(interval)
    assert consumed == [(i, i * i) for i in items]
    assert consumers == {caller}


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
    sweep.run_ordered(calls.append, lambda *_: calls.append("consumed"), range(0))
    assert calls == []
