"""The percentile rule, self-time accounting and host-speed scaling of the
benchmark."""

import pytest

from run import percentile, top_percentile
from tracing import Span, Tracer, self_times, union_length
from worker import PROBE_REF_S, HostGauge


@pytest.mark.parametrize(
    "n, expected",
    [(20, None), (21, 50), (100, 50), (101, 90), (1000, 90), (1001, 99), (10001, 99.9)],
)
def test_top_percentile_needs_ten_samples_beyond(n, expected):
    assert top_percentile(n) == expected


def test_percentile_is_a_measured_sample():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(values, 50) == 6
    assert percentile(values, 90) == 10
    assert percentile(values, 0) == 1
    assert percentile([0.25], 90) == 0.25


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(3, 6), (1, 4), (8, 9), (8.5, 8.75)]) == 6


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "a", "L", 0.0, 10.0, None, 0, 1.0),
        Span(1, "b", "L", 1.0, 4.0, 0, 0, 0.0),
        Span(2, "c", "M", 3.0, 6.0, 0, 0, 0.5),
        Span(3, "d", "M", 2.0, 3.0, 1, 0, 0.0),
        Span(4, "e", "M", 9.5, 12.0, 0, 0, 0.0),  # clipped to its parent
    ]
    assert self_times(spans) == {
        0: 10.0 - (5.0 + 0.5) - 1.0,
        1: 3.0 - 1.0,
        2: 3.0 - 0.5,
        3: 1.0,
        4: 2.5,
    }


def test_tracer_accounts_spans_and_aggregates_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def inner():
        return hot() + hot()

    hot = tracer._wrap(leaf, "m:leaf", "m", aggregate=True)
    inner = tracer._wrap(inner, "m:inner", "m", aggregate=False)

    def outer():
        return inner() + hot()

    assert tracer.span("op", "bench", outer) == 3
    summary = tracer.summary()
    assert summary["calls"] == {"op": 1, "m:inner": 1, "m:leaf": 3}
    # clock reads: op 0, inner 1, leaf 2-3, leaf 4-5, inner 6, leaf 7-8, op 9
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [
        ("m:inner", 1.0, 6.0), ("op", 0.0, 9.0)]
    assert summary["self_s"] == {"op": 9.0 - 5.0 - 1.0, "m:inner": 5.0 - 2.0, "m:leaf": 3.0}


def test_printed_metrics_match_benchmark_json():
    import json

    from run import ROOT, end_to_end, per_layer
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    summary = {"calls": {}, "self_s": {}, "layer_self_s": {}, "counters": {},
               "distinct_bases": 0, "spans": 0}
    ops = workloads.generate("roster", 0)
    plain = [{"setup_s": 1.0, "latencies": [0.1] * len(ops), "maxrss_kb": 1024}]
    traced = [dict(plain[0], trace=summary)]
    for metrics, declared in ((end_to_end(plain), spec["end_to_end"]),
                              (per_layer(ops, plain, traced), spec["per_layer"])):
        assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in declared}


def test_host_gauge_scales_by_the_probes_near_an_interval():
    gauge = HostGauge(probe=lambda: 0.0)
    slow = [(i / 10, 2 * PROBE_REF_S) for i in range(20)]  # t = 0 .. 1.9
    fast = [(10 + i / 10, PROBE_REF_S) for i in range(20)]  # t = 10 .. 11.9
    gauge.samples = slow + fast
    assert gauge.scaled(0.5, 1.5) == pytest.approx(0.5)
    assert gauge.scaled(10.5, 11.5) == pytest.approx(1.0)
    # no probe within the window: the nearest ones, here the slow ones
    assert gauge.speed(5.0, 5.1) == 2 * PROBE_REF_S


def test_program_clock_stops_while_a_probe_runs():
    gauge = HostGauge(probe=lambda: 2.0)  # reports a 2 s probe at once
    before = gauge.now()
    gauge.sample()
    assert before - gauge.now() > 1.9
    assert [secs for _, secs in gauge.samples] == [2.0]
