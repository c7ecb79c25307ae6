"""Document version checks on every io loader."""

import json

import pytest

from repro.io import (
    dump_monitor,
    load_explain,
    load_monitor,
    load_profile,
    load_run_report,
)


def _write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def test_load_explain_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-explain/99", "indexes": []})
    with pytest.raises(ValueError) as caught:
        load_explain(path)
    message = str(caught.value)
    assert "nose-explain/99" in message
    assert "nose-explain/1" in message


def test_load_explain_accepts_current_and_rejects_untagged(tmp_path):
    current = _write(tmp_path / "current.json",
                     {"format": "nose-explain/1", "indexes": []})
    assert load_explain(current)["format"] == "nose-explain/1"
    untagged = _write(tmp_path / "untagged.json", {"indexes": []})
    with pytest.raises(ValueError) as caught:
        load_explain(untagged)
    assert "nose-explain/1" in str(caught.value)


def test_load_profile_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-profile/7", "statements": {}})
    with pytest.raises(ValueError) as caught:
        load_profile(path)
    assert "nose-profile/7" in str(caught.value)
    assert "nose-profile/1" in str(caught.value)


def test_load_run_report_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-run-report/2", "meta": {},
                   "spans": [], "metrics": {}})
    with pytest.raises(ValueError) as caught:
        load_run_report(path)
    assert "nose-run-report/2" in str(caught.value)
    assert "nose-run-report/1" in str(caught.value)


def test_load_run_report_requires_format(tmp_path):
    path = _write(tmp_path / "untagged.json",
                  {"meta": {"enabled": True}, "spans": [],
                   "metrics": {}})
    with pytest.raises(ValueError) as caught:
        load_run_report(path)
    assert "nose-run-report/1" in str(caught.value)


def test_load_profile_requires_format(tmp_path):
    path = _write(tmp_path / "untagged.json", {"statements": {}})
    with pytest.raises(ValueError) as caught:
        load_profile(path)
    assert "nose-profile/1" in str(caught.value)


def test_load_monitor_requires_format(tmp_path):
    path = _write(tmp_path / "untagged.json", {"ingest": {}})
    with pytest.raises(ValueError) as caught:
        load_monitor(path)
    assert "nose-monitor/1" in str(caught.value)


def test_load_monitor_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-monitor/3"})
    with pytest.raises(ValueError) as caught:
        load_monitor(path)
    assert "nose-monitor/3" in str(caught.value)
    assert "nose-monitor/1" in str(caught.value)


def test_monitor_round_trip_is_byte_stable(tmp_path):
    document = {"format": "nose-monitor/1",
                "ingest": {"requests": 3, "clock": 3.0},
                "estimates": {"q1": {"weight": 1.5}}}
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    dump_monitor(document, str(first))
    reloaded = load_monitor(str(first))
    assert reloaded == document
    dump_monitor(reloaded, str(second))
    assert first.read_bytes() == second.read_bytes()
