"""Oracle properties of advising per statement signature class.

Random small workloads get duplicate statements under new labels and
new parameter names.  The advisor solves each signature class once with
the summed weight; the result must match exhaustive search, match the
workload with every class merged into one statement, bind every plan to
its own statement, and serve the schema correctly.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Advisor
from repro.optimizer import (
    BIPOptimizer,
    BruteForceOptimizer,
    OptimizationProblem,
)
from repro.randgen import (
    BindingGenerator,
    random_dataset,
    random_model,
    random_workload,
)
from repro.verify import DifferentialRunner
from repro.workload import Workload, parse_statement

#: candidates the exhaustive search may range over (2**10 subsets)
BRUTE_KEYS = 10
GAP = 1e-4


def renamed(model, statement, label):
    """``statement`` under a new label, every parameter renamed."""
    text = re.sub(r"\?(\w+)", r"?\1_dup", str(statement))
    return parse_statement(model, text, label=label)


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 30))
    model = random_model(entities=4, seed=seed)
    base = random_workload(model, queries=3, updates=1, inserts=1,
                           seed=seed)
    twins = Workload(model)
    merged = Workload(model)
    for statement, weight in base.weighted_statements:
        twins.add_statement(statement, weight=weight)
        total = weight
        for copy in range(draw(st.integers(0, 2))):
            extra = draw(st.floats(0.1, 10.0))
            twins.add_statement(
                renamed(model, statement, f"{statement.label}_{copy}"),
                weight=extra)
            total += extra
        merged.add_statement(statement, weight=total)
    return seed, model, twins, merged


def advisor(model):
    return Advisor(model, max_plans=40, prune_to=8, support_prune_to=4)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(instance=instances())
def test_classes_solve_like_their_statements(instance, restricted):
    seed, model, twins, merged = instance
    dataset = random_dataset(model, seed=seed, rows_per_entity=10)
    dataset.sync_counts()

    twin_advisor = advisor(model)
    prepared = twin_advisor.prepare(twins)
    recommendation = twin_advisor.recommend_prepared(prepared)
    merged_recommendation = advisor(model).recommend(merged)
    assert recommendation.total_cost == pytest.approx(
        merged_recommendation.total_cost, rel=2 * GAP, abs=1e-9)
    assert recommendation.timing.statement_classes \
        == merged_recommendation.timing.statement_classes

    for query in twins.queries:
        assert recommendation.query_plans[query].query is query
    for update, plans in recommendation.update_plans.items():
        for plan in plans:
            assert plan.update is update

    # the class-collapsed BIP against exhaustive search, over the
    # recommended schema plus the first few other candidates
    query_plans, update_plans = twin_advisor.pruned_plans(prepared)
    problem = OptimizationProblem(query_plans, update_plans,
                                  dict(recommendation.weights))
    chosen = [index.key for index in recommendation.indexes]
    others = sorted(index.key for index in problem.indexes
                    if index.key not in chosen)
    small = restricted(problem,
                       chosen + others[:max(BRUTE_KEYS - len(chosen), 0)])
    if len(small.indexes) <= BRUTE_KEYS:
        solved = BIPOptimizer(mip_rel_gap=GAP).solve(small)
        brute = BruteForceOptimizer(max_indexes=BRUTE_KEYS).solve(small)
        assert solved.total_cost == pytest.approx(brute.total_cost,
                                                  rel=2 * GAP, abs=1e-9)

    live = dataset.copy()
    runner = DifferentialRunner(model, recommendation, live)
    bindings = BindingGenerator(live, seed=seed)
    for statement in twins.statements.values():
        runner.check(statement, bindings.bindings_for(statement))
    runner.sweep()
    assert runner.ok, [divergence.as_dict()
                       for divergence in runner.divergences]
