"""Telemetry events and wall-clock span timestamps (PR 8 additions)."""

import pytest

from repro import telemetry
from repro.telemetry import (
    RUN_REPORT_FORMAT,
    RunReport,
    Telemetry,
    span_from_record,
)


# -- span started_at ----------------------------------------------------------


def test_span_records_wall_clock_start():
    sink = Telemetry()
    with sink.span("stage") as span:
        pass
    assert span.started_at is not None
    # epoch seconds, not a monotonic counter
    assert span.started_at > 1e9
    record = span.as_dict()
    assert record["started_at"] == round(span.started_at, 3)


def test_root_span_has_started_at():
    sink = Telemetry()
    assert sink.tracer.root.started_at is not None


def test_span_from_record_round_trips_started_at():
    sink = Telemetry()
    with sink.span("stage"):
        pass
    record = sink.tracer.root.children[0].as_dict()
    rebuilt = span_from_record(record)
    assert rebuilt.started_at == record["started_at"]
    assert rebuilt.as_dict()["started_at"] == record["started_at"]


def test_unstarted_span_omits_started_at():
    record = telemetry.Span("never-opened").as_dict()
    assert "started_at" not in record
    assert span_from_record(record).started_at is None


# -- the event log ------------------------------------------------------------


def test_event_records_name_times_and_sorted_attributes():
    sink = Telemetry()
    sink.event("monitor.weight_alert", js=0.3, b=2, a=1)
    assert len(sink.events) == 1
    event = sink.events[0]
    assert event["name"] == "monitor.weight_alert"
    assert event["seconds"] >= 0.0
    assert event["time"] > 1e9
    assert list(event["attributes"]) == ["a", "b", "js"]


def test_event_without_attributes_has_no_attributes_key():
    sink = Telemetry()
    sink.event("phase.start")
    assert "attributes" not in sink.events[0]


def test_event_log_caps_and_counts_drops():
    sink = Telemetry()
    sink.MAX_EVENTS = 5
    for number in range(8):
        sink.event(f"e{number}")
    assert len(sink.events) == 5
    assert sink._events_dropped == 3
    report = sink.report()
    assert report.meta["events_dropped"] == 3


def test_null_telemetry_event_is_a_no_op():
    telemetry.NULL.event("anything", detail=1)  # must not raise
    assert telemetry.NULL.enabled is False


def test_kill_switch_mutes_events(monkeypatch):
    monkeypatch.setenv("NOSE_TELEMETRY", "0")
    with telemetry.activate() as sink:
        telemetry.current().event("muted")
        assert not sink.enabled
        assert not getattr(sink, "events", ())


# -- events in run reports ----------------------------------------------------


def test_report_carries_events_and_format():
    sink = Telemetry()
    sink.event("monitor.weight_alert", js=0.25)
    report = sink.report()
    document = report.as_dict()
    assert document["format"] == RUN_REPORT_FORMAT
    assert document["events"][0]["name"] == "monitor.weight_alert"


def test_report_without_events_omits_the_section():
    assert "events" not in Telemetry().report().as_dict()


def test_run_report_from_dict_round_trips_events():
    sink = Telemetry()
    sink.event("phase", step=2)
    document = sink.report().as_dict()
    rebuilt = RunReport.from_dict(document)
    assert rebuilt.events == document["events"]
    assert rebuilt.as_dict()["events"] == document["events"]


def test_render_run_report_lists_events():
    sink = Telemetry()
    sink.event("monitor.weight_alert", js=0.31)
    rendered = sink.report().render()
    assert "events (1):" in rendered
    assert "monitor.weight_alert" in rendered
    assert "js=0.31" in rendered


def test_activated_events_reach_the_current_sink():
    with telemetry.activate() as sink:
        if not sink.enabled:
            pytest.skip("telemetry kill-switch set")
        telemetry.current().event("observed", source="test")
        assert sink.events[0]["name"] == "observed"
