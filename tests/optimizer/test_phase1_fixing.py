"""Phase-1 variable fixing and solves over the live columns only.

``_Program._phase1_bounds`` fixes plan columns that a cheaper sibling
reading only *free* column families beats; ``_solve`` hands HiGHS only
the columns left unfixed.  Neither may change the phase-1 optimum.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds

from repro import Advisor, telemetry
from repro.exceptions import OptimizationError
from repro.optimizer import OptimizationProblem
from repro.optimizer import bip
from repro.rubis import rubis_model, rubis_workload

OPTIONS = {"mip_rel_gap": 0.0, "time_limit": 60.0}


class _Index:
    def __init__(self, key):
        self.key = key
        self.size = 1.0


class _Statement:
    def __init__(self, label):
        self.label = label


class _Plan:
    def __init__(self, query, cost, *indexes):
        self.query = query
        self.cost = cost
        self.indexes = indexes
        self.signature = "|".join(index.key for index in indexes)


class _UpdatePlan:
    def __init__(self, index, update_cost, support_plans_by_query):
        self.index = index
        self.update_cost = update_cost
        self.support_plans_by_query = support_plans_by_query
        self.support_plans = [plan for plans
                              in support_plans_by_query.values()
                              for plan in plans]


def gate_problem(busy_weight):
    """One query: 5.0 on column family B, or 1.0 on J.  J costs
    nothing to select (its update has weight 0), but its support query
    reads K, which an update of weight ``busy_weight`` maintains at
    100 per unit."""
    b, j, k = _Index("B"), _Index("J"), _Index("K")
    query, support = _Statement("q"), _Statement("idle_support")
    idle, busy = _Statement("idle"), _Statement("busy")
    alone = _Plan(query, 5.0, b)
    shared = _Plan(query, 1.0, j)
    update_plans = {
        idle: [_UpdatePlan(j, 1.0, {support: [_Plan(support, 1.0, k)]})],
        busy: [_UpdatePlan(k, 100.0, {})],
    }
    weights = {"q": 1.0, "idle": 0.0, "busy": busy_weight}
    return OptimizationProblem({query: [alone, shared]}, update_plans,
                               weights)


def phase1_cost(program, bounds):
    result = program._solve(program.costs, [program._matrix()], OPTIONS,
                            bounds=bounds)
    return float(np.asarray(program.costs) @ result.x)


@pytest.mark.parametrize("busy_weight, cost", [(1.0, 5.0), (0.0, 1.0)])
def test_a_free_column_family_needs_free_support_plans(busy_weight, cost):
    program = bip._Program(gate_problem(busy_weight))
    bounds = program._phase1_bounds()
    alone = program.query_classes[0][2][0]
    if busy_weight:
        # holding J means holding K, so J is not free: nothing is fixed
        assert bounds is None
    else:
        # K is free, so J is, and the dearer plan on B is fixed
        assert bounds.ub[alone] == 0.0
    assert phase1_cost(program, bounds) == pytest.approx(cost)
    assert phase1_cost(program, None) == pytest.approx(cost)


def test_every_column_family_is_free_on_a_read_only_mix():
    model = rubis_model()
    advisor = Advisor(model)
    with telemetry.activate() as sink:
        recommendation = advisor.recommend(
            rubis_workload(model, mix="browsing"))
    (program,) = next(iter(advisor._prepared.values()))._programs.values()
    costs = np.asarray(program.costs)
    assert not costs[:program.binaries].any()
    free = program._free_mask(costs)
    assert free == (1 << program.binaries) - 1
    bounds = program._phase1_bounds()
    fixed = int((bounds.ub == 0.0).sum())
    assert fixed > 0
    if sink.enabled:
        assert sink.metrics.gauges["bip.phase1_fixed_columns"] == fixed
    assert phase1_cost(program, bounds) == pytest.approx(
        phase1_cost(program, None), rel=1e-9)
    assert recommendation.timing.phase2_outcome == "finished"


def test_a_solve_with_every_column_fixed_still_solves_or_raises():
    program = bip._Program(gate_problem(1.0))
    # the query's choose-one row excludes x = 0
    with pytest.raises(OptimizationError):
        program._solve(program.costs, [program._matrix()], OPTIONS,
                       bounds=Bounds(0, np.zeros(program.columns)))
    # without queries x = 0 satisfies every row
    updates_only = bip._Program(OptimizationProblem(
        {}, gate_problem(1.0).update_plans,
        {"idle": 0.0, "busy": 1.0}))
    result = updates_only._solve(
        updates_only.costs, [updates_only._matrix()], OPTIONS,
        bounds=Bounds(0, np.zeros(updates_only.columns)))
    assert result.status == 0
    assert result.x.tolist() == [0.0] * updates_only.columns


def test_live_column_solves_return_full_width_solutions(monkeypatch):
    program = bip._Program(gate_problem(0.0))
    bounds = program._phase1_bounds()
    widths = []
    solve = bip.milp

    def milp(**kwargs):
        widths.append(len(kwargs["c"]))
        return solve(**kwargs)

    monkeypatch.setattr(bip, "milp", milp)
    result = program._solve(program.costs, [program._matrix()], OPTIONS,
                            bounds=bounds)
    assert widths == [program.columns - int((bounds.ub == 0.0).sum())]
    assert len(result.x) == program.columns
    assert result.x[program.query_classes[0][2][0]] == 0.0
