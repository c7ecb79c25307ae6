"""Solving one program block per statement signature class."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import repro.optimizer.bip as bip
from repro import Advisor, telemetry
from repro.explain import explain_document
from repro.workload import Workload, parse_statement

#: hotel statements duplicated under new labels and parameter names
DUPLICATED = ("guests_in_city_above_rate", "guest_by_id",
              "make_reservation", "delete_guest")


def duplicate(workload, label, new_label):
    statement = workload.statements[label]
    text = re.sub(r"\?(\w+)", r"?\1_dup", str(statement))
    return parse_statement(workload.model, text, label=new_label)


@pytest.fixture(scope="module")
def hotel_twins(hotel):
    """The hotel workload with duplicates, and the same workload with
    every class merged into one statement carrying the summed weight."""
    from repro.demo import hotel_workload
    base = hotel_workload(hotel, include_updates=True)
    twins = Workload(hotel)
    merged = Workload(hotel)
    for statement, weight in base.weighted_statements:
        twins.add_statement(statement, weight=weight)
        total = weight
        if statement.label in DUPLICATED:
            twins.add_statement(
                duplicate(base, statement.label, statement.label + "_2"),
                weight=weight * 2.5)
            total += weight * 2.5
        merged.add_statement(statement, weight=total)
    return twins, merged


def program_of(advisor, workload):
    prepared = advisor.prepare(workload)
    recommendation = advisor.recommend_prepared(prepared)
    (program,) = prepared._programs.values()
    return recommendation, program


def test_classes_share_one_block_of_the_program(hotel, hotel_twins):
    twins, merged = hotel_twins
    advisor = Advisor(hotel)
    twin_rec, twin_program = program_of(advisor, twins)
    merged_rec, merged_program = program_of(Advisor(hotel), merged)
    assert twin_program.columns == merged_program.columns
    assert len(twin_program._lower) == len(merged_program._lower)
    assert twin_program.statement_classes == len(merged.statements)
    assert twin_rec.timing.statement_classes == len(merged.statements)
    assert twin_program.costs == pytest.approx(merged_program.costs,
                                               rel=1e-12)
    assert twin_rec.total_cost == pytest.approx(merged_rec.total_cost,
                                                rel=1e-9)
    assert [index.key for index in twin_rec.indexes] \
        == [index.key for index in merged_rec.indexes]


def test_every_plan_is_bound_to_its_own_statement(hotel, hotel_twins):
    twins, _merged = hotel_twins
    recommendation = Advisor(hotel).recommend(twins)
    for query in twins.queries:
        assert recommendation.query_plans[query].query is query
    for update, plans in recommendation.update_plans.items():
        for plan in plans:
            assert plan.update is update
            for support in plan.support_plans:
                assert support.query.update is update
    # a shared plan space, two bound copies
    first = recommendation.query_plans[
        twins.statements["guests_in_city_above_rate"]]
    second = recommendation.query_plans[
        twins.statements["guests_in_city_above_rate_2"]]
    assert first is not second
    assert first.signature == second.signature


def test_pruning_ledger_stays_per_label(hotel, hotel_twins):
    twins, _merged = hotel_twins
    recommendation = Advisor(hotel).recommend(twins)
    pruning = recommendation.explain_data.pruning
    for label in twins.statements:
        if label in pruning:
            assert pruning[label]["statement"] == label
    for label in DUPLICATED:
        if label in pruning:
            assert pruning[label + "_2"]["removed"] \
                == pruning[label]["removed"]
    support_labels = [label for label in pruning if "__" in label]
    assert any(label.startswith("make_reservation_2__")
               for label in support_labels)


def test_reweight_scatters_every_member(hotel, hotel_twins):
    twins, _merged = hotel_twins
    advisor = Advisor(hotel)
    prepared = advisor.prepare(twins)
    advisor.recommend_prepared(prepared)
    weights = {statement.label: weight * 3.0
               for statement, weight in twins.weighted_statements}
    advisor.recommend_prepared(prepared, weights=weights)
    (program,) = prepared._programs.values()
    rebuilt = bip._Program(program.problem)
    assert program.costs == pytest.approx(rebuilt.costs, rel=1e-12)


def test_extracted_plans_cost_no_more_than_the_solvers(hotel, hotel_twins,
                                                       monkeypatch):
    twins, _merged = hotel_twins
    solutions = []
    extract = bip._Program._extract

    def capture(self, result):
        solutions.append((self, result.x.copy()))
        return extract(self, result)

    monkeypatch.setattr(bip._Program, "_extract", capture)
    recommendation = Advisor(hotel).recommend(twins)
    ((program, x),) = solutions
    solver_cost = {}
    for members, plans, columns in program.query_classes:
        for query in members:
            solver_cost[query] = sum(x[column] * plan.cost
                                     for plan, column in zip(plans, columns))
    for query, cost in solver_cost.items():
        chosen = recommendation.query_plans[query].cost
        assert chosen <= cost + 1e-9 * (1.0 + cost)


def tiny_limit(solve, kwargs):
    """Phase 2 under a time limit too short to finish."""
    kwargs["options"] = dict(kwargs["options"], time_limit=1e-9)
    return solve(**kwargs)


def stopped_with_incumbent(solve, kwargs):
    """Phase 2 stopped by its limit holding an incumbent (here: every
    column family selected, which extraction would turn into another
    schema)."""
    return SimpleNamespace(status=1, success=False, message="time limit",
                           x=np.ones(len(kwargs["c"])))


@pytest.mark.parametrize("phase2", [tiny_limit, stopped_with_incumbent])
def test_phase2_cut_by_its_time_limit_keeps_the_phase1_schema(
        hotel, hotel_twins, monkeypatch, phase2):
    twins, _merged = hotel_twins
    phase1 = Advisor(hotel, optimizer=bip.BIPOptimizer(
        minimize_schema_size=False)).recommend(twins)
    assert phase1.timing.phase2_outcome == "skipped"
    solve = bip.milp

    def milp(**kwargs):
        integrality = np.asarray(kwargs["integrality"])
        if np.array_equal(np.asarray(kwargs["c"]),
                          integrality.astype(float)):
            return phase2(solve, kwargs)
        return solve(**kwargs)

    monkeypatch.setattr(bip, "milp", milp)
    limited = Advisor(hotel).recommend(twins)
    assert limited.timing.phase2_outcome == "time-limit"
    assert [index.key for index in limited.indexes] \
        == [index.key for index in phase1.indexes]
    assert limited.total_cost == phase1.total_cost


def test_outcomes_reach_timing_and_telemetry_not_documents(hotel,
                                                           hotel_twins):
    twins, _merged = hotel_twins
    with telemetry.activate() as sink:
        recommendation = Advisor(hotel).recommend(twins)
    assert recommendation.timing.phase2_outcome == "finished"
    if sink.enabled:
        gauges = sink.metrics.gauges
        assert gauges["bip.statement_classes"] \
            == recommendation.timing.statement_classes
        assert gauges["bip.phase2_outcome"] == "finished"
    document = json.dumps(explain_document(recommendation))
    assert "statement_classes" not in document
    assert "phase2_outcome" not in document
