"""Tests for the telemetry subsystem (spans, metrics, run reports)."""

import json
import threading
import time

import pytest

from repro import telemetry
from repro.advisor import Advisor
from repro.cost import SimpleCostModel
from repro.demo import hotel_model, hotel_workload
from repro.io import dump_run_report, load_run_report
from repro.telemetry import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    RunReport,
    Telemetry,
    Tracer,
    activate,
    current,
    traced,
)


# -- spans -------------------------------------------------------------------


def test_span_nesting_and_timing():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.01)
    tracer.finish()
    outer, = tracer.root.children
    inner, = outer.children
    assert outer.name == "outer" and inner.name == "inner"
    assert outer.total_seconds >= inner.total_seconds
    assert outer.self_seconds >= 0.0
    assert tracer.span_count == 2
    assert tracer.root.total_seconds >= outer.total_seconds


def test_span_attributes_and_dict_shape():
    tracer = Tracer()
    with tracer.span("stage", kind="test") as span:
        span.set(mode="build")
    record = tracer.root.children[0].as_dict()
    assert list(record)[:3] == ["name", "total_seconds", "self_seconds"]
    assert record["attributes"] == {"kind": "test", "mode": "build"}


def test_span_self_seconds_clamped_for_concurrent_children():
    # spans opened on fresh threads attach to the root and can overlap,
    # summing past the root's wall clock; self time must clamp at zero
    tracer = Tracer()

    def work():
        with tracer.span("child"):
            time.sleep(0.05)
    threads = [threading.Thread(target=work) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tracer.finish()
    root = tracer.root
    assert [span.name for span in root.children] == ["child"] * 3
    assert sum(span.total_seconds for span in root.children) \
        > root.total_seconds
    assert root.self_seconds == 0.0


def test_fresh_thread_attaches_to_root_without_adopt():
    tracer = Tracer()
    def work():
        with tracer.span("worker"):
            pass
    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert [span.name for span in tracer.root.children] == ["worker"]


def test_tracer_finish_is_idempotent():
    tracer = Tracer()
    tracer.finish()
    ended = tracer.root.ended
    tracer.finish()
    assert tracer.root.ended == ended


# -- metrics -----------------------------------------------------------------


def test_histogram_bucket_placement():
    histogram = Histogram(boundaries=(1, 10, 100))
    for value in (0, 1, 5, 10, 50, 1000):
        histogram.observe(value)
    # bins: <=1, <=10, <=100, overflow
    assert histogram.counts == [2, 2, 1, 1]
    assert histogram.count == 6
    assert histogram.minimum == 0 and histogram.maximum == 1000
    assert histogram.as_dict()["sum"] == 1066


def test_histogram_quantiles_interpolate_within_buckets():
    histogram = Histogram(boundaries=(10, 20, 30))
    for value in range(1, 21):  # uniform over (0, 20]
        histogram.observe(value)
    # exact quantiles of the uniform sample, up to the linear
    # interpolation the fixed buckets allow
    assert histogram.quantile(0.5) == pytest.approx(10.0, abs=1.0)
    assert histogram.quantile(0.25) == pytest.approx(5.0, abs=1.5)
    assert histogram.quantile(0.95) == pytest.approx(19.0, abs=1.0)
    # quantiles are clamped to the observed range
    assert histogram.quantile(0.0) >= histogram.minimum
    assert histogram.quantile(1.0) <= histogram.maximum


def test_histogram_quantile_single_observation():
    histogram = Histogram(boundaries=(1, 10))
    histogram.observe(4.2)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == pytest.approx(4.2)


def test_histogram_quantile_overflow_bucket_uses_maximum():
    histogram = Histogram(boundaries=(1,))
    histogram.observe(100)
    histogram.observe(200)
    value = histogram.quantile(0.99)
    assert 100 <= value <= 200


def test_histogram_quantile_empty_is_none():
    histogram = Histogram(boundaries=(1, 2))
    assert histogram.quantile(0.5) is None
    record = histogram.as_dict()
    assert record["p50"] is None and record["p99"] is None


def test_histogram_as_dict_carries_percentiles():
    histogram = Histogram(boundaries=(1, 10, 100))
    for value in (1, 2, 3, 50, 90):
        histogram.observe(value)
    record = histogram.as_dict()
    for key in ("p50", "p95", "p99"):
        assert isinstance(record[key], float)
    assert record["p50"] <= record["p95"] <= record["p99"]


def test_metrics_registry_operations():
    registry = MetricsRegistry()
    registry.count("a")
    registry.count("a", 4)
    registry.gauge("b", 7)
    registry.gauge("b", 9)
    registry.observe("c", 3, buckets=(1, 5))
    snapshot = registry.as_dict()
    assert snapshot["counters"] == {"a": 5}
    assert snapshot["gauges"] == {"b": 9}
    assert snapshot["histograms"]["c"]["count"] == 1
    assert registry.ops == 5


def test_metrics_snapshot_is_sorted():
    registry = MetricsRegistry()
    for name in ("z", "a", "m"):
        registry.count(name)
    assert list(registry.as_dict()["counters"]) == ["a", "m", "z"]


# -- activation and the null sink --------------------------------------------


def test_current_defaults_to_null_sink():
    sink = current()
    assert isinstance(sink, NullTelemetry)
    assert not sink.enabled


def test_activate_installs_and_restores():
    assert not current().enabled
    with activate() as sink:
        assert sink.enabled
        assert current() is sink
    assert not current().enabled


def test_activate_accepts_existing_handle():
    handle = Telemetry()
    with activate(handle) as sink:
        assert sink is handle


def test_kill_switch_keeps_null_sink(monkeypatch):
    monkeypatch.setenv(telemetry.KILL_SWITCH, "0")
    with activate() as sink:
        assert not sink.enabled
        assert isinstance(current(), NullTelemetry)
        report = sink.report()
    assert report.meta == {"enabled": False}
    assert report.spans == [] and report.metrics == {}


def test_null_sink_operations_are_noops():
    sink = NullTelemetry()
    with sink.span("x") as span:
        assert span is None
    sink.count("c")
    sink.gauge("g", 1)
    sink.observe("h", 1)
    assert sink.current_span() is None


def test_traced_decorator_records_span():
    calls = []

    @traced("labelled")
    def work(value):
        calls.append(value)
        return value * 2

    assert work(2) == 4  # disabled: plain passthrough
    with activate() as sink:
        assert work(3) == 6
    names = [span["name"] for span in sink.report().spans]
    assert names == ["labelled"]
    assert calls == [2, 3]


# -- run reports -------------------------------------------------------------


def test_report_round_trips_through_dict():
    with activate() as sink:
        with sink.span("stage"):
            sink.count("things", 3)
            sink.observe("sizes", 12, buckets=COUNT_BUCKETS)
    report = sink.report()
    document = json.loads(json.dumps(report.as_dict()))
    rebuilt = RunReport.from_dict(document)
    assert rebuilt.as_dict() == report.as_dict()
    assert rebuilt.stage_totals() == report.stage_totals()


def test_report_json_is_stable_and_diffable():
    with activate() as sink:
        sink.count("b")
        sink.count("a")
        sink.gauge("z", 1)
    document = sink.report().as_dict()
    assert list(document) == ["format", "meta", "spans", "metrics"]
    assert document["format"] == "nose-run-report/1"
    assert list(document["metrics"]["counters"]) == ["a", "b"]
    assert list(document["meta"]) == sorted(document["meta"])


def test_stage_totals_sum_across_tree():
    spans = [
        {"name": "a", "total_seconds": 1.0,
         "children": [{"name": "b", "total_seconds": 0.25},
                      {"name": "a", "total_seconds": 0.5}]},
    ]
    report = RunReport(spans, {})
    totals = report.stage_totals()
    assert totals == {"a": 1.5, "b": 0.25}


# -- pipeline integration ----------------------------------------------------


STAGES = ("enumeration", "planning", "cost_calculation", "pruning",
          "bip_construction", "bip_solving", "recommendation")


def _advise_traced(model, workload):
    with activate() as sink:
        advisor = Advisor(model, cost_model=SimpleCostModel())
        recommendation = advisor.recommend(workload)
    return recommendation, sink.report()


def test_trace_agrees_with_advisor_timing_hotel():
    model = hotel_model()
    recommendation, report = _advise_traced(model, hotel_workload(model))
    totals = report.stage_totals()
    timing = recommendation.timing
    for stage in STAGES:
        bucket = getattr(timing, stage)
        span_total = totals.get(stage, 0.0)
        tolerance = max(0.05 * bucket, 0.02)
        assert abs(span_total - bucket) <= tolerance, (
            f"{stage}: span {span_total:.4f}s vs timing {bucket:.4f}s")


def test_trace_agrees_with_advisor_timing_rubis():
    from repro.rubis import rubis_model, rubis_workload
    model = rubis_model()
    workload = rubis_workload(model, mix="bidding")
    recommendation, report = _advise_traced(model, workload)
    totals = report.stage_totals()
    timing = recommendation.timing
    for stage in STAGES:
        bucket = getattr(timing, stage)
        span_total = totals.get(stage, 0.0)
        tolerance = max(0.05 * bucket, 0.02)
        assert abs(span_total - bucket) <= tolerance, (
            f"{stage}: span {span_total:.4f}s vs timing {bucket:.4f}s")


def test_pipeline_metrics_are_consistent():
    model = hotel_model()
    recommendation, report = _advise_traced(model, hotel_workload(model))
    counters = report.metrics["counters"]
    gauges = report.metrics["gauges"]
    # pruning never invents plans
    assert counters["prune.plans_out"] <= counters["prune.plans_in"]
    removed = (counters["prune.removed_duplicate_cfset"]
               + counters["prune.removed_superset"])
    assert counters["prune.plans_in"] - removed \
        == counters["prune.plans_out"]
    # the candidate pool matches what the timing reports
    assert gauges["enumeration.pool_size"] \
        == recommendation.timing.candidates
    assert gauges["planner.query_plan_count"] \
        == recommendation.timing.query_plan_count
    assert counters["planner.truncated_statements"] \
        == recommendation.timing.truncated_queries
    # every workload query was enumerated
    workload = hotel_workload(model)
    assert counters["enumerator.queries"] == len(workload.queries)
    assert gauges["bip.columns"] >= gauges["bip.binary_columns"]


def test_run_report_file_round_trip(tmp_path):
    model = hotel_model()
    _, report = _advise_traced(model, hotel_workload(model))
    path = tmp_path / "report.json"
    dump_run_report(report, path)
    rebuilt = load_run_report(path)
    assert rebuilt.as_dict() == report.as_dict()
    # the file itself is stable: dumping the rebuilt report is identical
    second = tmp_path / "again.json"
    dump_run_report(rebuilt, second)
    assert path.read_text() == second.read_text()


def test_disabled_pipeline_records_nothing():
    model = hotel_model()
    advisor = Advisor(model, cost_model=SimpleCostModel())
    recommendation = advisor.recommend(hotel_workload(model))
    assert recommendation.indexes
    sink = current()
    assert not sink.enabled


def test_report_render_is_ascii_and_complete():
    model = hotel_model()
    _, report = _advise_traced(model, hotel_workload(model))
    rendered = report.render(top=3)
    assert "run report" in rendered
    assert "recommend" in rendered
    assert "enumerator.queries" in rendered
    for line in rendered.splitlines():
        assert len(line) < 200


@pytest.mark.parametrize("runs", [1, 4])
def test_parallel_planning_spans_nest_under_stage(runs):
    # one cold recommend, then warm ones served from the prepared cache
    model = hotel_model()
    with activate() as sink:
        advisor = Advisor(model, cost_model=SimpleCostModel())
        workload = hotel_workload(model)
        for _ in range(runs):
            advisor.recommend(workload)
    report = sink.report()
    # no orphan roots: each recommend span is a top-level span and
    # every stage nests inside one
    assert [span["name"] for span in report.spans] == ["recommend"] * runs
    assert set(STAGES) <= set(report.stage_totals())
