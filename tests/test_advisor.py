"""Integration tests for the end-to-end schema advisor."""

import pytest

from repro import Advisor, dominance, telemetry
from repro.advisor import prune_plan_space
from repro.cost import SimpleCostModel
from repro.exceptions import PlanningError
from repro.optimizer import OptimizationProblem


@pytest.fixture(scope="module")
def read_recommendation(request):
    from repro.demo import hotel_model, hotel_workload
    model = hotel_model()
    workload = hotel_workload(model, include_updates=False)
    return model, workload, Advisor(model).recommend(workload)


def test_every_query_has_a_plan(read_recommendation):
    _model, workload, recommendation = read_recommendation
    assert set(recommendation.query_plans) == set(workload.queries)


def test_plans_only_use_recommended_indexes(read_recommendation):
    _model, _workload, recommendation = read_recommendation
    keys = {index.key for index in recommendation.indexes}
    for plan in recommendation.query_plans.values():
        assert {index.key for index in plan.indexes} <= keys


def test_read_only_workload_gets_materialized_views(read_recommendation):
    """With no updates and no space limit, every query should be served
    by a single get (the paper's fully denormalized regime)."""
    _model, _workload, recommendation = read_recommendation
    for query, plan in recommendation.query_plans.items():
        assert len(plan.lookup_steps) == 1, query.label


def test_timing_breakdown_populated(read_recommendation):
    _model, _workload, recommendation = read_recommendation
    timing = recommendation.timing
    assert timing.total > 0
    row = timing.as_figure13_row()
    assert set(row) == {"cost_calculation", "bip_construction",
                        "bip_solving", "other", "total"}
    assert row["total"] >= row["cost_calculation"]
    assert timing.other >= 0
    assert timing.candidates > 0


def test_updates_constrain_denormalization(hotel):
    """§II: under update pressure the POI attributes move out of the
    denormalized guest view into a shared, normalized column family."""
    from repro.demo import hotel_model, hotel_workload
    model = hotel_model()
    advisor = Advisor(model)
    reads = advisor.recommend(hotel_workload(model,
                                             include_updates=False))
    description = model.field("PointOfInterest", "POIDescription")
    copies_read_only = sum(1 for index in reads.indexes
                           if index.contains_field(description))
    heavy = hotel_workload(model, include_updates=True)
    heavy.set_weight("update_poi_description", 500.0)
    writes = advisor.recommend(heavy)
    copies_update_heavy = sum(1 for index in writes.indexes
                              if index.contains_field(description))
    assert copies_update_heavy <= copies_read_only


def test_space_limit_shrinks_schema(read_recommendation):
    model, workload, unconstrained = read_recommendation
    limit = unconstrained.size * 0.4
    constrained = Advisor(model).recommend(workload, space_limit=limit)
    assert constrained.size <= limit
    assert constrained.total_cost >= unconstrained.total_cost


def test_alternate_cost_model(read_recommendation):
    model, workload, _ = read_recommendation
    advisor = Advisor(model, cost_model=SimpleCostModel())
    recommendation = advisor.recommend(workload)
    # with request counting, the optimum is one get per query
    assert recommendation.total_cost == pytest.approx(
        sum(workload.weight(query) for query in workload.queries))


def test_plan_for_schema_round_trip(read_recommendation):
    """Planning the workload against the advisor's own schema must find
    plans at most as expensive as the recommendation's."""
    model, workload, recommendation = read_recommendation
    advisor = Advisor(model)
    fixed = advisor.plan_for_schema(workload, recommendation.indexes)
    assert fixed.total_cost <= recommendation.total_cost * 1.001


def test_plan_for_schema_rejects_insufficient_schema(read_recommendation):
    model, workload, _ = read_recommendation
    from repro.indexes import entity_fetch_index
    with pytest.raises(PlanningError):
        Advisor(model).plan_for_schema(
            workload, [entity_fetch_index(model.entity("Guest"))])


def test_dedupe_keeps_cheapest_and_disjoint_plans_survive():
    class Plan:
        def __init__(self, cost, keys):
            self.cost = cost
            self.indexes = [type("I", (), {"key": key})()
                            for key in keys]
    plans = [Plan(5.0, ["a"]), Plan(3.0, ["a"]), Plan(4.0, ["a", "b"])]
    pruned = dominance.dedupe_cheapest(plans)
    assert {plan.cost for plan in pruned} == {3.0, 4.0}
    # disjoint column-family sets survive both dominance rules: the
    # dearer plan may be the cheaper one once "b" is shared
    disjoint = [Plan(4.0, ["b"]), Plan(3.0, ["a"])]
    removals = []
    assert len(prune_plan_space(disjoint, removals=removals)) == 2
    assert removals == []


def test_recommendation_describe_round_trip(read_recommendation):
    _model, _workload, recommendation = read_recommendation
    text = recommendation.describe()
    assert "column families" in text
    assert "Plan for" in text


def _keys(recommendation):
    return {index.key for index in recommendation.indexes}


def test_space_limits_reuse_one_program_each(hotel_full):
    """One prepared workload solved under a sequence of space limits
    matches a fresh advisor at every limit; each limit builds its
    program once, and returning to a limit reuses it."""
    size = Advisor(hotel_full.model).recommend(hotel_full).size
    limits = (None, 0.9 * size, 0.75 * size, None)
    fresh = [Advisor(hotel_full.model).recommend(hotel_full,
                                                 space_limit=limit)
             for limit in limits]
    advisor = Advisor(hotel_full.model)
    with telemetry.activate() as sink:
        if not sink.enabled:
            pytest.skip("telemetry disabled by NOSE_TELEMETRY=0")
        prepared = advisor.prepare(hotel_full)
        for limit, expected in zip(limits, fresh):
            solved = advisor.recommend_prepared(prepared,
                                                space_limit=limit)
            assert solved.total_cost == expected.total_cost, limit
            assert _keys(solved) == _keys(expected), limit
    assert set(prepared._programs) == set(limits)
    counters = sink.metrics.counters
    assert counters["bip.programs_built"] == 3
    assert counters["bip.programs_reweighted"] == 1


@pytest.mark.parametrize("demo", ["hotel", "bidding", "browsing",
                                  "randgen-phase1"])
def test_total_cost_is_the_kept_schemas_evaluated_cost(demo):
    """The reported cost is the evaluated cost of the schema kept, not
    phase 1's objective, which phase 2 may swap for a dearer tie.
    Without phase 2 the solver holds column families no plan reads,
    and extraction drops them."""
    optimizer = None
    if demo == "hotel":
        from repro.demo import hotel_model, hotel_workload
        model = hotel_model()
        workload = hotel_workload(model, include_updates=True)
    elif demo == "randgen-phase1":
        from repro.optimizer import BIPOptimizer
        from repro.randgen import random_model, random_workload
        model = random_model(entities=6, seed=0)
        workload = random_workload(model, 12, 4, 2, seed=0)
        optimizer = BIPOptimizer(minimize_schema_size=False)
    else:
        from repro.rubis import rubis_model, rubis_workload
        model = rubis_model()
        workload = rubis_workload(model, mix=demo)
    advisor = Advisor(model, optimizer=optimizer)
    recommendation = advisor.recommend(workload)
    query_plans, update_plans = advisor.pruned_plans(
        advisor.prepare(workload))
    weights = {statement.label: weight
               for statement, weight in workload.weighted_statements}
    problem = OptimizationProblem(query_plans, update_plans, weights)
    cost, _query_plans, _update_plans = problem.evaluate(
        _keys(recommendation))
    assert recommendation.total_cost == cost
