"""Ablation: BIP solver versus exhaustive search (§V's motivation).

The paper rejects the naive power-set approach because it is
exponential in the number of candidates.  This harness measures both
optimizers on a problem small enough for brute force, verifies they
agree, and benchmarks the solve times; a second benchmark times the
two-phase BIP on the full RUBiS problem, far beyond brute force.
"""

import pytest

from bench_common import write_result
from repro import Advisor
from repro.cost import CassandraCostModel
from repro.demo import hotel_model
from repro.dominance import dedupe_cheapest
from repro.optimizer import (
    BIPOptimizer,
    BruteForceOptimizer,
    OptimizationProblem,
)
from repro.planner import QueryPlanner, UpdatePlanner
from repro.rubis import rubis_model, rubis_workload
from repro.workload import Workload


@pytest.fixture(scope="module")
def small_problem():
    """A hotel problem with a pool small enough for brute force."""
    model = hotel_model()
    workload = Workload(model)
    workload.add_statement(
        "SELECT Room.RoomID FROM Room WHERE "
        "Room.Hotel.HotelCity = ?city AND Room.RoomRate > ?rate",
        label="rooms")
    workload.add_statement(
        "SELECT Room.RoomNumber FROM Room WHERE Room.RoomID = ?room",
        label="room_number")
    workload.add_statement(
        "UPDATE Room SET RoomRate = ?rate WHERE Room.RoomID = ?room",
        label="set_rate")
    from repro.enumerator import CandidateEnumerator
    pool = sorted(CandidateEnumerator(model).candidates(workload),
                  key=lambda index: index.key)[:12]
    planner = QueryPlanner(model, pool)
    update_planner = UpdatePlanner(model, planner)
    cost_model = CassandraCostModel()
    query_plans = {}
    for query in workload.queries:
        plans = planner.plans_for(query, require=False)
        if not plans:
            continue
        for plan in plans:
            cost_model.cost_plan(plan)
        query_plans[query] = dedupe_cheapest(plans)
    update_plans = update_planner.plan_all(workload.updates,
                                           require=False)
    for plans in update_plans.values():
        for plan in plans:
            cost_model.cost_update_plan(plan)
    weights = {statement.label: weight
               for statement, weight in workload.weighted_statements}
    return OptimizationProblem(query_plans, update_plans, weights)


def test_solver_bip_small(benchmark, small_problem):
    optimizer = BIPOptimizer(mip_rel_gap=0.0)
    result = benchmark.pedantic(lambda: optimizer.solve(small_problem),
                                rounds=5, iterations=1)
    assert result.total_cost > 0


def test_solver_brute_force_small(benchmark, small_problem):
    optimizer = BruteForceOptimizer()
    result = benchmark.pedantic(lambda: optimizer.solve(small_problem),
                                rounds=2, iterations=1)
    bip = BIPOptimizer(mip_rel_gap=0.0).solve(small_problem)
    assert result.total_cost == pytest.approx(bip.total_cost, rel=1e-6)
    candidates = len(small_problem.indexes)
    write_result(
        "ablation_solver.txt",
        f"candidates: {candidates}\n"
        f"optimal cost (both solvers agree): {result.total_cost:.4f}\n"
        "see the pytest-benchmark table for solve times\n")


def test_solver_bip_rubis_scale(benchmark):
    """The BIP at RUBiS scale (hundreds of candidates) — brute force
    would need 2^N subsets and is not even attempted."""
    model = rubis_model(users=20_000)
    workload = rubis_workload(model, mix="bidding")
    advisor = Advisor(model)
    result = benchmark.pedantic(lambda: advisor.recommend(workload),
                                rounds=2, iterations=1)
    assert result.indexes
