"""Acceptance tests for the RUBiS browsing->bidding drift demo."""

import pytest

from repro.io import dump_monitor, load_monitor
from repro.monitor import drift_demo

DEMO_KWARGS = dict(requests=200, users=400, seed=0)


@pytest.fixture(scope="module")
def document():
    return drift_demo(**DEMO_KWARGS)


def test_demo_document_shape(document):
    assert document["format"] == "nose-monitor/1"
    assert document["ingest"]["requests"] >= DEMO_KWARGS["requests"]
    assert document["ingest"]["statements_tracked"] > 0
    assert document["drift"]["checks"] > 0
    assert document["estimates"]


def test_weight_alert_fires_mid_shift(document):
    """The drift alert must fire during the bidding phase, not before."""
    assert document["drift"]["weight_alert"]
    browsing = document["meta"]["phases"][0]["requests"]
    alert_request = document["meta"]["alert_request"]
    assert alert_request is not None
    assert alert_request > browsing, \
        "alert fired during the advised (browsing) phase"
    raised = [entry for entry in document["drift"]["alerts"]
              if entry["event"] == "weight_alert"]
    assert raised and raised[0]["requests"] > browsing


def test_bidding_statements_dominate_estimates(document):
    """After the shift, decayed weights reflect the bidding mix."""
    estimates = document["estimates"]
    ranked = sorted(estimates, key=lambda label:
                    -estimates[label]["weight"])
    top = set(ranked[:8])
    # store-bid and put-bid statements only occur under bidding
    assert top & {"sb_insert", "sb_update_item", "pb_item", "pb_bids"}


def test_regret_shows_readvising_beats_stale_schema(document):
    regret = document["regret"]
    assert regret["stale_cost"] is not None
    assert regret["fresh_cost"] < regret["stale_cost"]
    assert regret["regret"] > 0
    assert regret["regret_pct"] > 0
    assert regret["fresh_schema"]


def test_demo_deterministic_and_byte_stable(tmp_path, document):
    """Two fresh runs serialize byte-identically."""
    again = drift_demo(**DEMO_KWARGS)
    first_path = tmp_path / "first.json"
    second_path = tmp_path / "second.json"
    dump_monitor(document, str(first_path))
    dump_monitor(again, str(second_path))
    assert first_path.read_bytes() == second_path.read_bytes()
    reloaded = load_monitor(str(first_path))
    round_trip = tmp_path / "round.json"
    dump_monitor(reloaded, str(round_trip))
    assert round_trip.read_bytes() == first_path.read_bytes()


def test_document_has_no_wall_clock(document):
    """Byte-stability depends on logical time only."""
    import json
    text = json.dumps(document, default=str)
    # wall-clock epoch seconds would serialize as ~1.7e9 values
    for token in text.replace("{", " ").replace("}", " ") \
            .replace(",", " ").split():
        try:
            value = float(token.rstrip(":").strip('"'))
        except ValueError:
            continue
        assert value < 1e9, f"suspicious wall-clock value {value}"
