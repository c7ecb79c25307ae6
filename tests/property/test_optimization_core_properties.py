"""Oracle properties of the one optimization core.

The single-schema BIP and the windowed program are one program class,
and every schema is scored by ``OptimizationProblem.evaluate``.  On
small random instances the one-window program must match exhaustive
search, a one-window schedule with free migrations must match the
single-schema advisor, ``W`` identical windows must cost ``W`` times
one, ``evaluate`` must agree with the recommendation it scores,
phase 2 must only shrink phase 1's schema within its cost cap, and
phase-1 fixing must keep the phase-1 optimum.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Advisor
from repro.optimizer import (
    BIPOptimizer,
    BruteForceOptimizer,
    OptimizationProblem,
)
from repro.optimizer import bip
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


def instance_of(seed):
    model = random_model(entities=4, seed=seed)
    workload = random_workload(model, queries=3, updates=1, inserts=1,
                               seed=seed)
    return model, workload


@st.composite
def instances(draw):
    return instance_of(draw(st.integers(0, 30)))


def advisor(model):
    return Advisor(model, max_plans=40,
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


def brute_forceable(instance, restricted):
    """The solved problem over at most ``BRUTE_KEYS`` candidates, the
    recommended ones first, or None when its closure is larger."""
    _nose, recommendation, problem = solved(*instance)
    chosen = [index.key for index in recommendation.indexes]
    others = sorted(index.key for index in problem.indexes
                    if index.key not in chosen)
    small = restricted(problem,
                       chosen + others[:max(BRUTE_KEYS - len(chosen), 0)])
    return small if len(small.indexes) <= BRUTE_KEYS else None


@SETTINGS
@given(instance=instances())
def test_one_window_program_matches_brute_force(instance, restricted):
    small = brute_forceable(instance, restricted)
    if small is None:
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


@SETTINGS
@given(instance=instances())
# seeds on which phase 2 drops a column family phase 1 used
@example(instance=instance_of(20))
@example(instance=instance_of(26))
def test_phase2_shrinks_the_phase1_schema(instance, restricted):
    small = brute_forceable(instance, restricted)
    if small is None:
        return
    brute = BruteForceOptimizer(max_indexes=BRUTE_KEYS).solve(small)
    phase1 = BIPOptimizer(minimize_schema_size=False,
                          mip_rel_gap=GAP).solve(small)
    optimizer = BIPOptimizer(mip_rel_gap=GAP)
    program = optimizer.prepare(small)
    solves = []
    solve = bip.milp

    def milp(**kwargs):
        solves.append(solve(**kwargs))
        return solves[-1]

    with mock.patch.object(bip, "milp", milp):
        smallest = optimizer.optimize(program)
    assert program.phase2_outcome == "finished"
    # phase 2 opens only what phase 1 selected or what costs nothing
    held = {index.key for column, index in enumerate(program.indexes)
            if solves[0].x[column] > 0.5 or program.costs[column] == 0.0}
    keys = {index.key for index in smallest.indexes}
    assert keys <= held
    assert len(keys) <= len(phase1.indexes)
    # within the phase-2 cost cap of phase 1, itself within the MIP gap
    # of the exhaustive optimum
    best = smallest.total_cost
    assert best == pytest.approx(brute.total_cost, rel=2 * GAP, abs=1e-9)
    cap = best + GAP * abs(best) + 1e-7 * (1.0 + abs(best))
    cost, _queries, _updates = small.evaluate(keys)
    assert brute.total_cost - 1e-9 <= cost <= cap


def phase1_cost(program, bounds):
    result = program._solve(program.costs, [program._matrix()],
                            {"mip_rel_gap": GAP, "time_limit": 60.0},
                            bounds=bounds)
    return float(np.asarray(program.costs) @ result.x)


def write_heavy_instance(seed, idle):
    """A randgen instance with more writes, and the weight of every
    write whose label is in ``idle`` set to 0: such writes make the
    column families they maintain free to hold, unless a support query
    needs a column family a weighted write maintains."""
    model = random_model(entities=5, seed=seed)
    workload = random_workload(model, queries=4, updates=3, inserts=1,
                               seed=seed)
    weights = absolute_weights(workload)
    for label in idle:
        weights[label] = 0.0
    return model, workload, weights


@st.composite
def write_heavy_instances(draw):
    seed = draw(st.integers(0, 30))
    idle = draw(st.sets(st.sampled_from(["u0", "u1", "u2", "i0"])))
    return write_heavy_instance(seed, idle)


@SETTINGS
@given(instance=write_heavy_instances())
# u2 idle: dropping the support-gate condition from the free set fixes
# plans the optimum needs (12514.25 becomes 14720.17)
@example(instance=write_heavy_instance(18, {"u2"}))
def test_phase1_fixing_keeps_the_optimum(instance):
    model, workload, weights = instance
    nose = advisor(model)
    prepared = nose.prepare(workload)
    nose.recommend_prepared(prepared, weights=weights)
    problem = OptimizationProblem(*nose.pruned_plans(prepared), weights)
    program = bip._Program(problem)
    assert phase1_cost(program, program._phase1_bounds()) \
        == pytest.approx(phase1_cost(program, None), rel=2 * GAP,
                         abs=1e-9)
    # a space limit charges free column families, and so do the
    # windowed program's migrations: neither fixes anything
    size = sum(index.size for index in problem.indexes)
    limited = bip._Program(OptimizationProblem(
        problem.query_plans, problem.update_plans, weights,
        space_limit=size))
    assert limited._phase1_bounds() is None
    windowed = bip._Program(problem, indexes=problem.indexes,
                            migration=(FREE, frozenset()))
    assert windowed._phase1_bounds() is None
