import pytest

from bench import trace
from bench.trace import REQUEST, attribute

MS = 1_000_000


def test_self_time_on_a_hand_built_span_tree():
    # request 0: [0, 100] ms
    #   fetch        [5, 95]
    #     exchange   [10, 40]
    #       encode   [12, 14]
    #       decode   [30, 38]
    #     tcp        [50, 90]
    #       serve    [60, 80]
    # outside any request: an encode at [200, 201]
    spans = [
        ("dnslib.encode", 12 * MS, 14 * MS, None),
        ("dnslib.decode", 30 * MS, 38 * MS, None),
        ("dnslib.exchange", 10 * MS, 40 * MS, None),
        ("core.ap_serve", 60 * MS, 80 * MS, None),
        ("engine.tcp_rtt", 50 * MS, 90 * MS, None),
        ("core.client_fetch", 5 * MS, 95 * MS, None),
        (REQUEST, 0, 100 * MS, None),
        ("dnslib.encode", 200 * MS, 201 * MS, None),
    ]
    result = attribute(spans)
    name_of = [span[0] for span in spans]
    assert [name_of[p] if p >= 0 else None for p in result.parent] == [
        "dnslib.exchange", "dnslib.exchange", "core.client_fetch",
        "engine.tcp_rtt", "core.client_fetch", REQUEST, None, None]
    assert result.request == [0, 0, 0, 0, 0, 0, 0, -1]
    assert [ns / MS for ns in result.self_ns] == [
        2, 8, 20, 20, 20, 20, 10, 1]
    per_request = result.self_ms_per_request()
    assert per_request == {
        "dnslib.encode": 2.0, "dnslib.decode": 8.0, "dnslib.exchange": 20.0,
        "core.ap_serve": 20.0, "engine.tcp_rtt": 20.0,
        "core.client_fetch": 20.0, REQUEST: 10.0}
    # Rows plus the residual add up to the request's latency.
    assert sum(per_request.values()) == 100.0


def test_overlapping_siblings_never_count_an_instant_twice():
    spans = [("a", 0, 10, None), ("b", 5, 12, None), (REQUEST, 0, 20, None)]
    result = attribute(spans)
    assert result.self_ns == [5, 7, 8]
    assert sum(result.self_ns) == 20


def test_back_to_back_siblings_do_not_nest():
    spans = [("a", 0, 10, None), ("b", 10, 20, None), (REQUEST, 0, 20, None)]
    assert attribute(spans).parent == [2, 2, -1]


def test_requests_are_numbered_in_time_order():
    spans = [("a", 1, 2, None), (REQUEST, 0, 5, None),
             ("a", 11, 12, None), (REQUEST, 10, 15, None)]
    assert attribute(spans).request == [0, 0, 1, 1]


def test_wrappers_install_and_come_off_again():
    from repro.cache.store import CacheStore
    from repro.dnslib.message import Message

    trace.assert_unpatched()
    original_get = CacheStore.__dict__["get"]
    original_decode = Message.__dict__["decode"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert "CacheStore.get" in trace.patched_names()
        assert "Message.decode" in trace.patched_names()
        with pytest.raises(AssertionError):
            trace.assert_unpatched()
        # A wrapped classmethod still binds the class.
        query = Message.query("app0.bench.example")
        assert Message.decode(query.encode()).question_name() \
            == query.question_name()
        assert [span[0] for span in tracer.spans] == [
            "dnslib.encode", "dnslib.decode"]
    finally:
        tracer.remove()
    trace.assert_unpatched()
    assert CacheStore.__dict__["get"] is original_get
    assert Message.__dict__["decode"] is original_decode


def test_generator_spans_cover_first_resume_to_return():
    tracer = trace.Tracer()

    class Owner:
        def work(self, value):
            got = yield "event"
            return value + got

    wrapped = tracer.generator("core.client_fetch")(Owner.work)
    generator = wrapped(Owner(), 1)
    assert tracer.spans == []
    assert next(generator) == "event"
    with pytest.raises(StopIteration) as stop:
        generator.send(2)
    assert stop.value.value == 3
    (name, start, end, value), = tracer.spans
    assert name == "core.client_fetch" and end >= start and value is None


def test_jsonl_has_name_start_end_parent_request(tmp_path):
    import json

    spans = [("cache.get", 2, 4, None), (REQUEST, 0, 10, None)]
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(str(path), attribute(spans),
                      [("net.ap_cpu", 0, 500, 0.0005)])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0] == {"id": 0, "name": "cache.get", "start_ns": 2,
                          "end_ns": 4, "parent": 1, "request": 0}
    assert records[1]["parent"] is None and records[1]["request"] == 0
    assert records[2]["clock"] == "virtual" and records[2]["value"] == 0.0005
