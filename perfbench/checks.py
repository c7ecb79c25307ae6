"""Output checks run outside the timed regions.

Each check returns a list of failure messages; an empty list is a
pass.  The benchmark counts every message toward ``failed``.
"""

from __future__ import annotations

import json

from repro.exceptions import NoseError
from repro.explain import explain_document


def explain_bytes(recommendation):
    """The canonical explain document of a recommendation, as bytes."""
    return json.dumps(explain_document(recommendation),
                      sort_keys=True).encode()


def check_identical(documents, what):
    """Every document must equal the first, byte for byte."""
    first = documents[0]
    return [f"{what} of repetition {number} differs from repetition 0"
            for number, document in enumerate(documents) if
            document != first]


def check_consistent(workload, recommendation, gap):
    """The recommendation must be self-consistent.

    Every chosen plan may use only column families of the schema, every
    query of the workload must have a plan, and the reported cost must
    equal the weighted cost of the chosen plans within the MIP gap.
    """
    schema = {index.key for index in recommendation.indexes}
    failures = []
    used = set()
    for plan in recommendation.query_plans.values():
        used.update(index.key for index in plan.indexes)
    for plans in recommendation.update_plans.values():
        for update_plan in plans:
            used.add(update_plan.index.key)
            for support in update_plan.support_plans:
                used.update(index.key for index in support.indexes)
    for key in sorted(used - schema):
        failures.append(f"a chosen plan uses column family {key}, "
                        f"which is not in the schema")
    planned = {query.label for query in recommendation.query_plans}
    for query in workload.queries:
        if query.label not in planned:
            failures.append(f"query {query.label} has no plan")
    total = sum(weight * cost for weight, cost
                in recommendation.statement_costs.values())
    reported = recommendation.total_cost
    if abs(total - reported) > gap * abs(reported) + 1e-7 * (1 + total):
        failures.append(f"reported cost {reported:.6f} differs from the "
                        f"chosen plans' cost {total:.6f}")
    return failures


def check_cost_achievable(advisor, workload, recommendation, gap):
    """The reported cost must be achievable on the chosen schema.

    ``plan_for_schema`` picks the cheapest plan per statement over
    exactly the recommended column families; its total may not exceed
    the recommendation's cost by more than the MIP gap.  A schema that
    cannot answer the workload, or a cost that was understated, fails.
    Returns ``(failures, achieved cost or None)``.
    """
    try:
        achieved = advisor.plan_for_schema(
            workload, recommendation.indexes).total_cost
    except NoseError as error:
        return [f"schema cannot serve the workload: "
                f"{type(error).__name__}: {error}"], None
    cap = recommendation.total_cost * (1.0 + gap)
    if achieved > cap:
        return [f"cost {recommendation.total_cost:.6f} is not achievable "
                f"on the chosen schema: plan_for_schema gives "
                f"{achieved:.6f} > {cap:.6f}"], achieved
    return [], achieved


def check_windows(recommendation, tolerance):
    """The windowed total may not exceed either baseline."""
    total = recommendation.total_cost
    failures = []
    for name, baseline in sorted(recommendation.baselines.items()):
        limit = baseline["total"] * (1.0 + tolerance)
        if total > limit:
            failures.append(f"windowed total {total:.6f} exceeds the "
                            f"{name} baseline {baseline['total']:.6f}")
    return failures


def check_oracle(runner, call, *args):
    """Divergences one differential-runner call finds, as failures.

    ``call`` is ``runner.check`` (one statement against the reference
    interpreter) or ``runner.sweep`` (every column family against the
    ground-truth dataset).
    """
    before = len(runner.divergences)
    call(*args)
    return [f"{divergence.kind} on {divergence.label}: "
            f"{divergence.message}"
            for divergence in runner.divergences[before:]]
