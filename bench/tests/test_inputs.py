from bench.inputs import LIVE_SHAPES, build_live_inputs


def test_same_seed_gives_byte_identical_inputs():
    for workload in LIVE_SHAPES:
        first = build_live_inputs(workload, 7, 5.0)
        again = build_live_inputs(workload, 7, 5.0)
        assert first.digest() == again.digest()
        assert first == again


def test_another_seed_gives_other_inputs():
    for workload in LIVE_SHAPES:
        assert build_live_inputs(workload, 7, 5.0).digest() \
            != build_live_inputs(workload, 8, 5.0).digest()


def test_a_longer_run_extends_a_shorter_one():
    short = build_live_inputs("live_hit_open", 3, 2.0)
    long = build_live_inputs("live_hit_open", 3, 4.0)
    assert long.arrivals[:len(short.arrivals)] == short.arrivals
    assert long.sequences == short.sequences


def test_every_seed_builds_a_catalog_of_the_same_weight():
    weights = {sum(obj.size_bytes for obj in
                   build_live_inputs("live_churn_closed", seed, 1.0).objects)
               for seed in range(5)}
    assert len(weights) == 1
    # About 16x the 5 MiB AP cache.
    assert 15.5 < weights.pop() / (5 * 1024 * 1024) < 16.5


def test_the_seed_draws_the_requests_not_the_catalog():
    one = build_live_inputs("live_churn_closed", 1, 1.0)
    two = build_live_inputs("live_churn_closed", 2, 1.0)
    assert one.objects == two.objects
    assert one.sequences != two.sequences
    # Object k is the k-th most requested, and its neighbours in
    # popularity differ in size and app.
    draws = one.sequences[0] + one.sequences[1]
    assert draws.count(0) > draws.count(1) > draws.count(10)
    assert len({obj.size_bytes for obj in one.objects[:8]}) == 8
    assert {obj.app for obj in one.objects[:8]} == set(range(8))
    assert {obj.priority for obj in one.objects[:16]} == {1, 2}


def test_open_loop_schedule_is_one_arrival_per_period():
    inputs = build_live_inputs("live_hit_open", 1, 2.0)
    period = 1.0 / inputs.shape.open_rate_rps
    assert len(inputs.arrivals) == 200
    for slot, (due, device, index) in enumerate(inputs.arrivals):
        assert slot * period <= due < (slot + 1) * period
        assert device in (0, 1)
        assert 0 <= index < len(inputs.objects)


def test_hit_closed_registers_a_never_fetched_url_per_domain():
    inputs = build_live_inputs("live_hit_closed", 1, 1.0)
    assert len(inputs.never_fetched) == inputs.shape.apps
    fetched = {inputs.objects[index].url
               for draws in inputs.sequences for index in draws}
    assert not fetched & {obj.url for obj in inputs.never_fetched}
