"""Shared helpers for the property tests."""

import pytest

from repro.optimizer import OptimizationProblem
from repro.planner.plans import UpdatePlan


def _restricted(problem, keep):
    """``problem`` over the column families in ``keep`` only.

    Plan lists are filtered once per shared list, so the statements of
    a class keep sharing plan objects; column families whose support
    queries lose every plan are dropped until the set is closed.
    """
    keep = set(keep)
    while True:
        filtered = {}

        def within(plans):
            kept = filtered.get(id(plans))
            if kept is None:
                kept = filtered[id(plans)] = [
                    plan for plan in plans
                    if all(index.key in keep for index in plan.indexes)]
            return kept

        maintained = {}
        for update, plans in problem.update_plans.items():
            rows = []
            for update_plan in plans:
                if update_plan.index.key not in keep:
                    continue
                groups = [within(group) for group
                          in update_plan.support_plans_by_query.values()]
                if not all(groups):
                    keep.discard(update_plan.index.key)
                    break
                rows.append(filtered.setdefault(
                    ("update", id(update_plan)),
                    UpdatePlan(update_plan.update, update_plan.index,
                               [plan for group in groups
                                for plan in group], update_plan.steps)))
            else:
                maintained[update] = rows
                continue
            break
        else:
            queries = {query: within(plans)
                       for query, plans in problem.query_plans.items()}
            return OptimizationProblem(queries, maintained,
                                       problem.weights)


@pytest.fixture(scope="module")
def restricted():
    """:func:`_restricted`, for tests comparing against brute force."""
    return _restricted
