"""Pruning and solver ledgers: why plans and candidates were rejected.

Two decision points discard work between enumeration and the final
recommendation, and both record their reasoning here:

* **dominance pruning** (``repro.advisor.prune_plan_space``) removes
  plans per statement; each removal is logged with the rule that killed
  the plan and the signature of the plan that dominated it;
* **the BIP** selects column families and one plan per statement; the
  solver ledger records each candidate's selection status and, per
  statement, the chosen plan's cost next to the best rejected
  alternative — the numbers a designer needs to judge how close the
  call was.

Both ledgers are plain dicts with deterministic key order so they
serialize into the explain document unchanged.
"""

from __future__ import annotations

#: rules of :func:`repro.advisor.prune_plan_space`, in application order
PRUNE_RULES = ("duplicate-cfset", "superset-cfset")

#: candidate selection statuses in the solver ledger
INDEX_STATUSES = ("chosen", "selected-unused", "rejected")


def prune_entry(plan, rule, dominated_by=None):
    """One pruning-ledger removal record."""
    if rule not in PRUNE_RULES:
        from repro.exceptions import NoseError
        raise NoseError(f"unknown prune rule {rule!r}; known rules: "
                        f"{', '.join(PRUNE_RULES)}")
    entry = {"plan": getattr(plan, "signature", "") or repr(plan),
             "rule": rule}
    if dominated_by is not None:
        entry["dominated_by"] = (getattr(dominated_by, "signature", "")
                                 or repr(dominated_by))
    return entry


def prune_record(statement, considered, kept, removed):
    """The pruning ledger's per-statement record."""
    by_rule = {}
    for entry in removed:
        by_rule[entry["rule"]] = by_rule.get(entry["rule"], 0) + 1
    return {
        "statement": getattr(statement, "label", None) or str(statement),
        "considered": considered,
        "kept": kept,
        "removed_by_rule": {rule: by_rule[rule]
                            for rule in sorted(by_rule)},
        "removed": list(removed),
    }


def _statement_record(plans, chosen):
    """A statement's solver-ledger record: its plan count, chosen plan
    and best rejected plan."""
    record = {
        "alternatives_in_solver": len(plans),
        "chosen_cost": chosen.cost if chosen is not None else None,
        "chosen_signature": (chosen.signature
                             if chosen is not None else None),
    }
    rejected = [plan for plan in plans if plan is not chosen]
    if rejected:
        best = min(rejected, key=lambda plan: (plan.cost, plan.signature))
        record["best_rejected_cost"] = best.cost
        record["best_rejected_signature"] = best.signature
    else:
        record["best_rejected_cost"] = None
        record["best_rejected_signature"] = None
    return record


def solver_ledger(problem, chosen_keys, selected_keys, query_plans):
    """Build the BIP's decision ledger from an extracted solution.

    ``chosen_keys`` are the column families in the final schema,
    ``selected_keys`` everything the solver set to 1 (a superset —
    cost-free selections the extraction pruned are "selected-unused").
    ``query_plans`` maps each workload query to its chosen plan; the
    problem's plan spaces, which the solver saw, give per-statement
    alternatives and the best rejected plan cost.
    """
    space_limited = problem.space_limit is not None
    indexes = {}
    for index in problem.indexes:
        if index.key in chosen_keys:
            status, reason = "chosen", None
        elif index.key in selected_keys:
            status, reason = "selected-unused", "no chosen plan uses it"
        else:
            status = "rejected"
            reason = "space-budget" if space_limited else "cost"
        record = {"status": status}
        if reason is not None:
            record["reason"] = reason
        indexes[index.key] = record

    # the statements of a signature class share their plan list and
    # their chosen plan, so one record serves the whole class
    shared = {}
    statements = {}
    for query, plans in problem.query_plans.items():
        chosen = query_plans.get(query)
        record = shared.get((id(plans), id(chosen)))
        if record is None:
            record = shared[id(plans), id(chosen)] = _statement_record(
                plans, chosen)
        label = getattr(query, "label", None) or str(query)
        statements[label] = dict(record)

    return {
        "space_limit": problem.space_limit,
        "indexes": {key: indexes[key] for key in sorted(indexes)},
        "statements": {label: statements[label]
                       for label in sorted(statements)},
    }
