"""Oracle properties of the one optimization core.

The single-schema BIP and the windowed program are one program class,
and every schema is scored by ``OptimizationProblem.evaluate``.  On
small random instances the one-window program must match exhaustive
search, a one-window schedule with free migrations must match the
single-schema advisor, ``W`` identical windows must cost ``W`` times
one, and ``evaluate`` must agree with the recommendation it scores.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Advisor
from repro.optimizer import (
    BIPOptimizer,
    BruteForceOptimizer,
    OptimizationProblem,
)
from repro.optimizer.bip import solve_schedule
from repro.randgen import random_model, random_workload
from repro.tools import MigrationCostModel
from repro.windows import WindowSchedule, recommend_windows

#: candidates the exhaustive search may range over (2**10 subsets)
BRUTE_KEYS = 10
GAP = 1e-4
REQUESTS = 500.0

FREE = MigrationCostModel(row_cost=0.0, byte_cost=0.0)

SETTINGS = settings(max_examples=6, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 30))
    model = random_model(entities=4, seed=seed)
    workload = random_workload(model, queries=3, updates=1, inserts=1,
                               seed=seed)
    return model, workload


def advisor(model):
    return Advisor(model, max_plans=40, prune_to=8, support_prune_to=4,
                   optimizer=BIPOptimizer(mip_rel_gap=GAP))


def absolute_weights(workload):
    return {statement.label: weight * REQUESTS
            for statement, weight in workload.weighted_statements}


def solved(model, workload):
    """The advisor, its prepared workload, the recommendation under
    one window's absolute weights, and that recommendation's problem."""
    nose = advisor(model)
    prepared = nose.prepare(workload)
    weights = absolute_weights(workload)
    recommendation = nose.recommend_prepared(prepared, weights=weights)
    problem = OptimizationProblem(*nose.pruned_plans(prepared), weights)
    return nose, recommendation, problem


@SETTINGS
@given(instance=instances())
def test_one_window_program_matches_brute_force(instance, restricted):
    model, workload = instance
    _nose, recommendation, problem = solved(model, workload)
    chosen = [index.key for index in recommendation.indexes]
    others = sorted(index.key for index in problem.indexes
                    if index.key not in chosen)
    small = restricted(problem,
                       chosen + others[:max(BRUTE_KEYS - len(chosen), 0)])
    if len(small.indexes) > BRUTE_KEYS:
        return
    brute = BruteForceOptimizer(max_indexes=BRUTE_KEYS).solve(small)
    single = BIPOptimizer(mip_rel_gap=GAP).solve(small)
    assert single.total_cost == pytest.approx(brute.total_cost,
                                              rel=2 * GAP, abs=1e-9)
    # the same program with a window index and free migrations
    (keys,) = solve_schedule([small], small.indexes, FREE,
                             mip_rel_gap=GAP)
    cost, _queries, _updates = small.evaluate(keys)
    assert cost == pytest.approx(brute.total_cost, rel=2 * GAP,
                                 abs=1e-9)


@SETTINGS
@given(instance=instances(), windows=st.integers(2, 3))
def test_free_windows_cost_like_single_schemas(instance, windows):
    model, workload = instance
    nose, recommendation, _problem = solved(model, workload)
    window = (workload.active_mix, REQUESTS)
    # one window, nothing held before it, free migrations: the windowed
    # program is the single-schema BIP under that window's weights
    (one,) = recommend_windows(nose, workload, WindowSchedule([window]),
                               migration_model=FREE,
                               mip_rel_gap=GAP).windows
    assert one.migration_cost == 0.0
    assert one.serving_cost == pytest.approx(recommendation.total_cost,
                                             rel=2 * GAP, abs=1e-9)
    # identical windows with free migrations: W times that optimum
    repeated = recommend_windows(nose, workload,
                                 WindowSchedule([window] * windows),
                                 migration_model=FREE, mip_rel_gap=GAP)
    assert repeated.migration_cost == 0.0
    assert repeated.total_cost == pytest.approx(
        windows * recommendation.total_cost, rel=2 * GAP, abs=1e-9)


@SETTINGS
@given(instance=instances())
def test_evaluate_scores_the_recommendation(instance):
    model, workload = instance
    _nose, recommendation, problem = solved(model, workload)
    keys = {index.key for index in recommendation.indexes}
    cost, query_plans, update_plans = problem.evaluate(keys)
    assert cost == pytest.approx(recommendation.total_cost, rel=2 * GAP,
                                 abs=1e-9)
    for plan in query_plans.values():
        assert {index.key for index in plan.indexes} <= keys
    for plans in update_plans.values():
        for update_plan in plans:
            assert update_plan.index.key in keys

    # a key set missing every column family one query could read
    plans = next(iter(problem.query_plans.values()))
    needed = {index.key for plan in plans for index in plan.indexes}
    assert problem.evaluate(keys - needed) is None
    assert problem.evaluate(()) is None

    size = sum(index.size for index in problem.indexes
               if index.key in keys)
    fits = OptimizationProblem(problem.query_plans, problem.update_plans,
                               problem.weights, space_limit=size)
    assert fits.evaluate(keys)[0] == pytest.approx(cost)
    over = OptimizationProblem(problem.query_plans, problem.update_plans,
                               problem.weights, space_limit=size - 1.0)
    assert over.evaluate(keys) is None
