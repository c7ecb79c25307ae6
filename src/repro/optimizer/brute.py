"""Exhaustive schema optimization, for validating the BIP encoding.

Enumerates every subset of the candidate pool (the naive approach §V
mentions and rejects for scale) and picks the feasible subset with the
lowest weighted cost, breaking ties toward fewer column families.  Only
usable for small candidate pools; property tests assert it agrees with
:class:`~repro.optimizer.bip.BIPOptimizer`.
"""

from __future__ import annotations

from itertools import combinations

from repro.exceptions import OptimizationError
from repro.optimizer.results import SchemaRecommendation
from repro.planner.plans import UpdatePlan


class BruteForceOptimizer:
    """Exponential-time reference optimizer."""

    def __init__(self, max_indexes=16):
        self.max_indexes = max_indexes

    def solve(self, problem):
        indexes = problem.indexes
        if len(indexes) > self.max_indexes:
            raise OptimizationError(
                f"brute force supports at most {self.max_indexes} "
                f"candidates, got {len(indexes)}")
        query_requirements = {
            query: [(plan, frozenset(i.key for i in plan.indexes))
                    for plan in plans]
            for query, plans in problem.query_plans.items()}
        best = None
        for subset_size in range(len(indexes) + 1):
            for subset in combinations(indexes, subset_size):
                outcome = self._evaluate(problem, subset,
                                         query_requirements)
                if outcome is None:
                    continue
                cost, query_plans, update_plans = outcome
                candidate = (cost, len(subset))
                if best is None or candidate < best[0]:
                    best = (candidate, subset, query_plans, update_plans)
        if best is None:
            raise OptimizationError("no feasible schema exists")
        (cost, _size), subset, query_plans, update_plans = best
        query_plans = {query: plan.bind(query)
                       for query, plan in query_plans.items()}
        update_plans = {update: [plan.bind(update) for plan in plans]
                        for update, plans in update_plans.items()}
        return SchemaRecommendation(subset, query_plans, update_plans,
                                    problem.weights, cost)

    def _evaluate(self, problem, subset, query_requirements):
        keys = frozenset(index.key for index in subset)
        if problem.space_limit is not None:
            if sum(index.size for index in subset) > problem.space_limit:
                return None
        cost = 0.0
        query_plans = {}
        for query, plans in query_requirements.items():
            usable = [plan for plan, required in plans
                      if required <= keys]
            if not usable:
                return None
            chosen = min(usable, key=lambda plan: plan.cost)
            query_plans[query] = chosen
            cost += problem.weight(query) * chosen.cost
        update_plans = {}
        for update, plans in problem.update_plans.items():
            kept = []
            for update_plan in plans:
                if update_plan.index.key not in keys:
                    continue
                weight = problem.weight(update)
                cost += weight * update_plan.update_cost
                chosen_support = []
                for _support, support_plans in \
                        update_plan.support_plans_by_query.items():
                    usable = [plan for plan in support_plans
                              if frozenset(i.key for i in plan.indexes)
                              <= keys]
                    if not usable:
                        return None
                    chosen = min(usable, key=lambda plan: plan.cost)
                    chosen_support.append(chosen)
                    cost += weight * chosen.cost
                kept.append(UpdatePlan(update_plan.update,
                                       update_plan.index, chosen_support,
                                       update_plan.steps))
            if kept:
                update_plans[update] = kept
        return cost, query_plans, update_plans
