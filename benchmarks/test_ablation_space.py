"""Ablation: the cost/storage trade-off (§V's space constraint).

Sweeps the storage budget from unconstrained down toward the smallest
covering schema and reports the optimizer's cost at each point — the
normalization/performance knob §IX highlights as an explicit feature.
"""

import pytest

from bench_common import write_result
from repro import Advisor, OptimizationError
from repro.demo import hotel_model, hotel_workload

FRACTIONS = (1.0, 0.9, 0.75, 0.6, 0.5, 0.4, 0.3)


@pytest.fixture(scope="module")
def sweep():
    model = hotel_model()
    workload = hotel_workload(model, include_updates=True)
    advisor = Advisor(model)
    unconstrained = advisor.recommend(workload)
    full_size = unconstrained.size
    rows = []
    for fraction in FRACTIONS:
        try:
            recommendation = advisor.recommend(
                workload, space_limit=full_size * fraction)
            rows.append((fraction, recommendation.size / 1e6,
                         len(recommendation.indexes),
                         recommendation.total_cost))
        except OptimizationError:
            rows.append((fraction, None, None, None))
    return full_size, rows


def test_ablation_space_tradeoff(benchmark, sweep):
    full_size, rows = sweep
    model = hotel_model()
    workload = hotel_workload(model, include_updates=True)
    advisor = Advisor(model)
    tightest = min((fraction for fraction, _s, _i, cost in rows
                    if cost is not None), default=1.0)
    benchmark.pedantic(
        lambda: advisor.recommend(workload,
                                  space_limit=full_size * tightest),
        rounds=2, iterations=1)

    lines = [f"{'budget':>8}{'used MB':>9}{'CFs':>5}{'cost':>10}"]
    for fraction, size_mb, indexes, cost in rows:
        if cost is None:
            lines.append(f"{fraction:>8.0%}{'—':>9}{'—':>5}"
                         f"{'infeasible':>12}")
        else:
            lines.append(f"{fraction:>8.0%}{size_mb:>9.2f}{indexes:>5}"
                         f"{cost:>10.2f}")
    table = "\n".join(lines)
    print("\n" + table)
    write_result("ablation_space.txt", table)

    # every schema fits its budget, and tightening the budget never
    # lowers the cost, until infeasibility
    solved = [(fraction, size_mb, cost)
              for fraction, size_mb, _i, cost in rows if cost is not None]
    for fraction, size_mb, _cost in solved:
        assert size_mb * 1e6 <= full_size * fraction, fraction
    for (looser, _s, looser_cost), (tighter, _t, tighter_cost) in zip(
            solved, solved[1:]):
        assert tighter_cost >= looser_cost, \
            f"a {tighter:.0%} budget costs less than a {looser:.0%} one"
    feasible = [cost is not None for _f, _s, _i, cost in rows]
    assert feasible == sorted(feasible, reverse=True), \
        "feasibility must be monotone in the storage budget"
