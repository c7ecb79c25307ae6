"""Tests for decision provenance, ledgers, explain documents and diffs."""

import json

import pytest

from repro.advisor import Advisor
from repro.cost import SimpleCostModel
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import NoseError
from repro.explain import (
    EXPLAIN_FORMAT,
    INDEX_STATUSES,
    PRUNE_RULES,
    RULES,
    IndexProvenance,
    ProvenanceRecorder,
    diff_recommendations,
    explain_document,
    prune_entry,
    prune_record,
    source_label,
)
from repro.io import dump_explain, load_explain
from repro.reporting import diff_report, explain_report


@pytest.fixture(scope="module")
def hotel():
    model = hotel_model()
    return model, hotel_workload(model)


@pytest.fixture(scope="module")
def recommendation(hotel):
    model, workload = hotel
    advisor = Advisor(model, cost_model=SimpleCostModel())
    return advisor.recommend(workload)


@pytest.fixture(scope="module")
def document(recommendation):
    return explain_document(recommendation)


# -- provenance recorder -------------------------------------------------------


class _FakeIndex:
    def __init__(self, key):
        self.key = key


def test_recorder_merges_records_per_index_key():
    recorder = ProvenanceRecorder()
    index = _FakeIndex("i1")
    recorder.record(index, "materialize", source="q1")
    recorder.record(index, "order-relax", source="q2")
    recorder.record(index, "materialize", source="q1")
    record = recorder.get("i1")
    assert record.rules == ["materialize", "order-relax"]
    assert sorted(record.sources) == ["q1", "q2"]
    assert len(recorder) == 1
    assert recorder.ops == 3


def test_recorder_rejects_unknown_rule():
    recorder = ProvenanceRecorder()
    with pytest.raises(NoseError):
        recorder.record(_FakeIndex("i1"), "not-a-rule")


def test_chain_walks_combiner_parents():
    recorder = ProvenanceRecorder()
    left, right = _FakeIndex("iL"), _FakeIndex("iR")
    merged = _FakeIndex("iM")
    recorder.record(left, "materialize", source="q1")
    recorder.record(right, "prefix-split", source="q2")
    recorder.record(merged, "combiner-merge", parents=("iL", "iR"))
    chain = recorder.chain("iM")
    assert [record["index"] for record in chain] == ["iM", "iL", "iR"]
    assert recorder.terminates_at_statement("iM")


def test_chain_of_unknown_index_is_empty():
    recorder = ProvenanceRecorder()
    assert recorder.chain("nope") == []
    assert not recorder.terminates_at_statement("nope")


def test_index_provenance_as_dict_is_sorted():
    provenance = IndexProvenance("i1")
    provenance.add("materialize", "q2", ())
    provenance.add("order-relax", "q1", ("ib", "ia"))
    record = provenance.as_dict()
    assert record["sources"] == ["q1", "q2"]
    assert record["parents"] == ["ia", "ib"]


def test_source_label_maps_support_queries_to_their_update():
    class Update:
        label = "u1"

    class Support:
        is_support = True
        update = Update()
        label = "u1_support_0"

    class Plain:
        label = "q1"

    assert source_label(Support()) == "u1"
    assert source_label(Plain()) == "q1"


# -- ledgers -------------------------------------------------------------------


class _FakePlan:
    def __init__(self, signature):
        self.signature = signature


def test_prune_entry_and_record_shapes():
    entry = prune_entry(_FakePlan("L:a"), "duplicate-cfset",
                        dominated_by=_FakePlan("L:b"))
    assert entry == {"plan": "L:a", "rule": "duplicate-cfset",
                     "dominated_by": "L:b"}
    record = prune_record("q1", considered=3, kept=1, removed=[
        entry, prune_entry(_FakePlan("L:c"), "superset-cfset")])
    assert record["statement"] == "q1"
    assert record["considered"] == 3
    assert record["kept"] == 1
    assert record["removed_by_rule"] == {"duplicate-cfset": 1,
                                         "superset-cfset": 1}


def test_prune_entry_rejects_unknown_rule():
    with pytest.raises(NoseError):
        prune_entry(_FakePlan("L:a"), "vibes")


def test_known_rule_vocabularies():
    assert "combiner-merge" in RULES
    assert PRUNE_RULES == ("duplicate-cfset", "superset-cfset")
    assert set(INDEX_STATUSES) == {"chosen", "selected-unused",
                                   "rejected"}


def test_solver_ledger_attached_with_statuses(recommendation):
    ledger = recommendation.ledger
    assert ledger is not None
    chosen = {index.key for index in recommendation.indexes}
    for key, entry in ledger["indexes"].items():
        assert entry["status"] in INDEX_STATUSES
        if key in chosen:
            assert entry["status"] == "chosen"
        else:
            assert entry["status"] != "chosen"
    assert any(entry["status"] == "rejected"
               for entry in ledger["indexes"].values())
    # every rejection carries a reason; no space limit -> cost
    for entry in ledger["indexes"].values():
        if entry["status"] == "rejected":
            assert entry["reason"] == "cost"


def test_solver_ledger_statement_accounting(recommendation):
    statements = recommendation.ledger["statements"]
    for query, plan in recommendation.query_plans.items():
        row = statements[query.label]
        assert row["chosen_signature"] == plan.signature
        assert row["chosen_cost"] == pytest.approx(plan.cost)
        assert row["alternatives_in_solver"] >= 1
        if row["best_rejected_cost"] is not None:
            assert row["alternatives_in_solver"] > 1


# -- the explain document ------------------------------------------------------


def test_document_is_superset_of_as_dict(recommendation, document):
    plain = recommendation.as_dict()
    assert document["format"] == EXPLAIN_FORMAT
    assert document["total_cost"] == plain["total_cost"]
    assert {entry["key"] for entry in document["indexes"]} \
        == {entry["key"] for entry in plain["indexes"]}
    assert set(document["query_plans"]) == set(plain["query_plans"])
    assert set(document["update_plans"]) == set(plain["update_plans"])


def test_every_index_has_provenance_terminating_at_statement(
        hotel, recommendation, document):
    _, workload = hotel
    labels = set(workload.statements)
    for entry in document["indexes"]:
        chain = entry["provenance"]
        assert chain, f"no provenance for {entry['key']}"
        sources = {source for record in chain
                   for source in record["sources"]}
        assert sources & labels, \
            f"{entry['key']} does not terminate at a workload statement"


def test_document_statements_have_plans_and_funnel(document):
    statements = document["statements"]
    queries = {label: record for label, record in statements.items()
               if record["kind"] == "query"}
    assert queries
    for record in queries.values():
        assert record["weighted_cost"] == pytest.approx(
            record["weight"] * record["cost"])
        steps = record["plan"]["steps"]
        assert steps
        for step in steps:
            assert "op" in step and "cost" in step
            assert step["terms"]
        assert record["alternatives_enumerated"] \
            >= record["alternatives_after_pruning"] \
            >= record["alternatives_in_solver"] >= 1


def test_document_updates_report_write_amplification(document):
    updates = [record for record in document["statements"].values()
               if record["kind"] == "update"]
    assert updates
    for record in updates:
        assert record["maintenance"]
        for maintenance in record["maintenance"]:
            assert maintenance["write_amplification"] >= 0.0
            assert maintenance["steps"]


def test_document_without_explain_data_degrades_gracefully(
        recommendation):
    class Bare:
        indexes = recommendation.indexes
        query_plans = recommendation.query_plans
        update_plans = recommendation.update_plans
        weights = recommendation.weights
        total_cost = recommendation.total_cost
        as_dict = recommendation.as_dict
        weight = recommendation.weight
        update_cost = recommendation.update_cost

    document = explain_document(Bare())
    for entry in document["indexes"]:
        assert entry["status"] == "chosen"
        assert entry["provenance"] == []
    assert document["solver"] == {}
    assert document["pruning"] == {}


def test_explain_document_round_trips_with_stable_keys(
        document, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    dump_explain(document, first)
    loaded = load_explain(first)
    dump_explain(loaded, second)
    assert first.read_text() == second.read_text()
    assert loaded["format"] == EXPLAIN_FORMAT


def test_load_explain_rejects_non_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(NoseError):
        load_explain(path)


# -- diffing -------------------------------------------------------------------


def test_diff_against_scaled_writes_reports_cost_delta(hotel,
                                                       recommendation):
    model, workload = hotel
    advisor = Advisor(model, cost_model=SimpleCostModel())
    scaled = advisor.recommend(workload.scale_weights(2.0))
    diff = diff_recommendations(recommendation, scaled)
    total = diff["total_cost"]
    assert total["other"] == pytest.approx(scaled.total_cost)
    assert total["delta"] == pytest.approx(
        scaled.total_cost - recommendation.total_cost)
    assert total["regression_pct"] == pytest.approx(
        total["delta"] / recommendation.total_cost * 100.0)
    assert isinstance(diff["indexes_added"], list)
    assert isinstance(diff["indexes_dropped"], list)


def test_diff_reports_index_set_changes():
    base = {"total_cost": 1.0, "size_bytes": 10,
            "indexes": [{"key": "ia", "triple": "[a][][]"}],
            "statements": {}}
    other = {"total_cost": 2.0, "size_bytes": 20,
             "indexes": [{"key": "ib", "triple": "[b][][]"}],
             "statements": {}}
    diff = diff_recommendations(base, other)
    assert diff["indexes_added"] == [{"key": "ib", "triple": "[b][][]"}]
    assert diff["indexes_dropped"] == [{"key": "ia",
                                        "triple": "[a][][]"}]
    assert diff["total_cost"]["regression_pct"] == pytest.approx(100.0)


def test_diff_flags_plan_and_cost_changes():
    base = {"total_cost": 1.0, "indexes": [], "statements": {
        "q1": {"cost": 1.0, "plan": {"signature": "L:a", "steps": []}},
        "q2": {"cost": 2.0, "plan": {"signature": "L:b", "steps": []}},
    }}
    other = {"total_cost": 1.5, "indexes": [], "statements": {
        "q1": {"cost": 1.0, "plan": {"signature": "L:c", "steps": []}},
        "q2": {"cost": 2.0, "plan": {"signature": "L:b", "steps": []}},
    }}
    diff = diff_recommendations(base, other)
    assert diff["statements"]["q1"]["plan_changed"] is True
    assert "q2" not in diff["statements"]


def test_diff_zero_base_has_no_percentage():
    base = {"total_cost": 0.0, "indexes": [], "statements": {}}
    other = {"total_cost": 1.0, "indexes": [], "statements": {}}
    diff = diff_recommendations(base, other)
    assert diff["total_cost"]["regression_pct"] is None
    assert diff["total_cost"]["delta"] == pytest.approx(1.0)


def test_diff_falls_back_to_plain_recommendation_shape():
    base = {"total_cost": 1.0, "indexes": [],
            "query_plans": {"q1": {"cost": 1.0, "steps": ["lookup a"]}}}
    other = {"total_cost": 2.0, "indexes": [],
             "query_plans": {"q1": {"cost": 2.0, "steps": ["lookup b"]}}}
    diff = diff_recommendations(base, other)
    record = diff["statements"]["q1"]
    assert record["delta"] == pytest.approx(1.0)
    assert record["plan_changed"] is True


# -- rendering -----------------------------------------------------------------


def test_explain_report_renders_schema_and_plans(document):
    report = explain_report(document)
    assert report.startswith("explain:")
    for entry in document["indexes"]:
        assert entry["key"] in report
    assert "after pruning" in report
    assert "write amplification" in report


def test_explain_report_narrows_to_one_statement(document):
    label = next(label for label, record
                 in document["statements"].items()
                 if record["kind"] == "query")
    report = explain_report(document, statement=label)
    assert report.startswith(label)
    others = [other for other in document["statements"]
              if other != label]
    assert all(other not in report for other in others)


def test_explain_report_unknown_statement_rejected(document):
    with pytest.raises(NoseError):
        explain_report(document, statement="no_such_statement")


def test_recommendation_explain_method(recommendation):
    report = recommendation.explain()
    assert "explain:" in report
    assert json.dumps(recommendation.explain_document())  # serializable


def test_diff_report_renders_totals_and_changes():
    diff = {
        "total_cost": {"base": 1.0, "other": 2.0, "delta": 1.0,
                       "regression_pct": 100.0},
        "size_bytes": {"base": 1, "other": 2},
        "indexes_added": [{"key": "ib", "triple": "[b][][]"}],
        "indexes_dropped": [],
        "statements": {"q1": {"base_cost": 1.0, "other_cost": 2.0,
                              "delta": 1.0, "plan_changed": True}},
    }
    report = diff_report(diff)
    assert "+100.00%" in report
    assert "+ ib" in report
    assert "plan changed" in report


def test_diff_report_handles_missing_percentage():
    diff = {
        "total_cost": {"base": 0.0, "other": 1.0, "delta": 1.0,
                       "regression_pct": None},
        "size_bytes": {"base": 0, "other": 1},
        "indexes_added": [], "indexes_dropped": [], "statements": {},
    }
    assert "n/a" in diff_report(diff)


# -- pruning ledger ------------------------------------------------------------


def test_pruning_section_has_honest_accounting(document):
    pruning = document["pruning"]
    assert pruning
    for record in pruning.values():
        removed_total = sum(record["removed_by_rule"].values())
        assert record["considered"] - record["kept"] == removed_total
        listed = len(record["removed"])
        if record.get("removed_truncated"):
            assert listed == 50
            assert removed_total > 50
        else:
            assert listed == removed_total
