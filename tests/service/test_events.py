"""EventBus: fan-out, bounded queues, drop-oldest overflow."""

import threading

import pytest

from repro.service.events import EventBus, drain


def test_publish_reaches_every_subscriber():
    bus = EventBus()
    a, b = bus.subscribe(), bus.subscribe()
    bus.publish("state", {"now": 1.0})
    bus.publish("metrics", {"now": 2.0})
    for sub in (a, b):
        got = drain(sub, timeout=0.1)
        assert [(k, d["now"]) for k, d, _ in got] == [
            ("state", 1.0), ("metrics", 2.0)]


def test_seq_is_bus_wide_and_monotonic():
    bus = EventBus()
    sub = bus.subscribe()
    for i in range(5):
        bus.publish("tick", {"i": i})
    seqs = [seq for _, _, seq in drain(sub, timeout=0.1, max_events=10)]
    assert seqs == sorted(seqs) and len(set(seqs)) == 5


def test_unsubscribed_queue_stops_receiving():
    bus = EventBus()
    sub = bus.subscribe()
    bus.publish("a", {})
    bus.unsubscribe(sub)
    bus.publish("b", {})
    got = drain(sub, timeout=0.05, max_events=10)
    assert [k for k, _, _ in got] == ["a"]
    assert bus.subscriber_count == 0


def test_overflow_drops_oldest_never_blocks():
    bus = EventBus(max_queue=3)
    sub = bus.subscribe()
    for i in range(10):
        bus.publish("tick", {"i": i})
    got = drain(sub, timeout=0.1, max_events=10)
    # the newest 3 survive; 7 were shed
    assert [d["i"] for _, d, _ in got] == [7, 8, 9]
    assert sub.dropped == 7 and bus.dropped == 7
    # seq gaps reveal the loss to a client
    seqs = [seq for _, _, seq in got]
    assert seqs == [7, 8, 9]


def test_slow_subscriber_does_not_affect_siblings():
    bus = EventBus(max_queue=2)
    slow, fast = bus.subscribe(), bus.subscribe()
    for i in range(6):
        bus.publish("tick", {"i": i})
        drain(fast, timeout=0.05)  # fast keeps up
    assert fast.dropped == 0
    assert slow.dropped == 4


def test_publish_from_many_threads_is_safe():
    bus = EventBus(max_queue=10_000)
    sub = bus.subscribe()

    def worker(tag):
        for i in range(100):
            bus.publish("tick", {"tag": tag, "i": i})

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    total = 0
    while True:
        got = drain(sub, timeout=0.05, max_events=1000)
        if not got:
            break
        total += len(got)
    assert total == 400 and bus.published == 400


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        EventBus(max_queue=0)


def test_subscribe_since_replays_ring_then_goes_live():
    bus = EventBus(max_queue=4)
    for i in range(6):
        bus.publish("tick", {"i": i})
    assert drain(bus.subscribe(), timeout=0.01) == []        # live only
    everything = bus.subscribe(since=-1)                     # ring: last 4
    later = bus.subscribe(since=3)
    assert [seq for _, _, seq in drain(everything, timeout=0.1)] == [2, 3, 4, 5]
    assert [seq for _, _, seq in drain(later, timeout=0.1)] == [4, 5]
    bus.publish("tick", {"i": 6})
    for sub in (everything, later):
        assert [seq for _, _, seq in drain(sub, timeout=0.1)] == [6]
