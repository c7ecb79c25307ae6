"""Dominance pruning over candidate-set bitsets.

The advisor's plan-space pruning applies two rules per statement
(:func:`repro.advisor.prune_plan_space`): keep the cheapest plan per
distinct column-family set, then drop any plan whose column-family set
is a proper superset of a cheaper kept plan's.  The superset rule is
the expensive one — it compares every plan against every cheaper
survivor — and this module implements it twice:

* a **scalar** engine, the reference pairwise scan over ``frozenset``
  keys, and
* a **vector** engine that encodes each plan's column-family set as one
  row of a boolean membership matrix (one column per column family) and
  answers all pairwise subset tests with a single matrix product:
  ``keys_j ⊆ keys_i  ⟺  |keys_i ∩ keys_j| == |keys_j|``, where the
  intersection sizes are ``M @ M.T``.

Both engines produce byte-identical results — the same kept plans in
the same order and the same pruning-ledger entries, each dominated plan
attributed to the *first kept* cheaper plan whose set it contains
(ascending (cost, signature) order).  The scalar loop only ever tests
kept plans; the vector path tests *all* earlier plans, which is
equivalent by transitivity: a dominated dominator's own kept dominator
is a subset of it, hence also of the dominated plan.

The engine is chosen by space size: the vector path runs for spaces of
at least :data:`VECTOR_MIN_PLANS` plans, below which the matrix build
costs more than the scan it replaces.  The test suite cross-checks the
two engines (``tests/test_dominance_engines.py``).

The module also hosts the vectorized maintenance-plan reachability
closure (:func:`reachable_update_plans`): one boolean support-matrix
row per maintenance plan, closed over a reachable-key vector instead of
a Python worklist.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.explain import prune_entry

__all__ = [
    "VECTOR_MIN_PLANS",
    "dedupe_cheapest",
    "plan_keys",
    "reachable_update_plans",
    "superset_filter",
]

#: below this many plans the scalar scan beats building the matrices
VECTOR_MIN_PLANS = 64


def _signature(plan):
    # cost ties are broken by plan signature for reproducibility; plain
    # stand-in plan objects (as used in tests) may not carry one
    return getattr(plan, "signature", "")


def plan_keys(plan):
    """The plan's column-family key set, cached on the plan.

    Pruning consults each plan's set several times (dedupe, superset
    matrix build, reachability seeding); the steps are immutable, so
    the frozenset is computed once.  Slotted stand-ins that cannot take
    the attribute are handled by recomputing.
    """
    try:
        return plan._cfkeys
    except AttributeError:
        pass
    keyset = frozenset(index.key for index in plan.indexes)
    try:
        plan._cfkeys = keyset
    except AttributeError:  # pragma: no cover - slotted stand-ins
        pass
    return keyset


def dedupe_cheapest(plans, removals=None):
    """The duplicate-cfset rule: cheapest plan per column-family set.

    Returns survivors sorted ascending by (cost, signature).
    ``removals`` receives one ``duplicate-cfset`` ledger entry per
    dropped plan, in discovery order.
    """
    best = {}
    for plan in plans:
        keyset = plan_keys(plan)
        current = best.get(keyset)
        if current is None:
            best[keyset] = plan
            continue
        cost = plan.cost
        current_cost = current.cost
        # signatures are only consulted on exact cost ties — building
        # the signature string for every plan measurably dominates the
        # pass on large spaces
        if cost < current_cost or (cost == current_cost
                                   and _signature(plan)
                                   < _signature(current)):
            if removals is not None:
                removals.append(prune_entry(current, "duplicate-cfset",
                                            dominated_by=plan))
            best[keyset] = plan
        elif removals is not None:
            removals.append(prune_entry(plan, "duplicate-cfset",
                                        dominated_by=current))
    return sorted(best.values(),
                  key=lambda plan: (plan.cost, _signature(plan)))


def superset_filter(plans, removals=None):
    """The superset-cfset rule over a deduplicated, sorted plan list.

    ``plans`` must be in ascending (cost, signature) order with
    pairwise-distinct column-family sets (the output of
    :func:`dedupe_cheapest`).  Drops every plan whose set properly
    contains an earlier plan's set; returns the kept plans in order.
    ``removals`` receives one ``superset-cfset`` entry per dropped
    plan, attributed to its first kept dominator.
    """
    plans = list(plans)
    use_vector = len(plans) >= VECTOR_MIN_PLANS
    active = telemetry.current()
    if active.enabled:
        active.count("prune.vector_spaces" if use_vector
                     else "prune.scalar_spaces")
    if use_vector:
        return _superset_vector(plans, removals)
    return _superset_scalar(plans, removals)


def _superset_scalar(plans, removals):
    kept = []
    kept_keys = []
    for plan in plans:
        keys = plan_keys(plan)
        dominator = next((position
                          for position, existing in enumerate(kept_keys)
                          if existing < keys), None)
        if dominator is not None:
            if removals is not None:
                removals.append(prune_entry(
                    plan, "superset-cfset",
                    dominated_by=kept[dominator]))
            continue
        kept.append(plan)
        kept_keys.append(keys)
    return kept


def _superset_vector(plans, removals):
    count = len(plans)
    if count < 2:
        return plans
    keysets = [plan_keys(plan) for plan in plans]
    columns = {}
    for keyset in keysets:
        for key in keyset:
            if key not in columns:
                columns[key] = len(columns)
    width = len(columns)
    if width == 0:
        # all-empty sets are pairwise equal, never proper sub/supersets
        return plans
    matrix = np.zeros((count, width), dtype=np.float32)
    for row, keyset in enumerate(keysets):
        for key in keyset:
            matrix[row, columns[key]] = 1.0
    # intersections[i, j] = |keys_i ∩ keys_j|; the values are small
    # integers, exact in float32
    popcount = matrix.sum(axis=1)
    intersections = matrix @ matrix.T
    # proper subset: full containment and strictly smaller set (sets
    # are pairwise distinct after dedupe, so equality means identity)
    subset = (intersections == popcount[None, :]) \
        & (popcount[None, :] < popcount[:, None])
    earlier = np.tri(count, count, -1, dtype=bool)
    dominating = subset & earlier
    dominated = dominating.any(axis=1)
    if not dominated.any():
        return plans
    kept = [plan for plan, dead in zip(plans, dominated) if not dead]
    if removals is not None:
        # the ledger names the first *kept* dominator, matching the
        # scalar scan; every dominated plan has one by transitivity
        allowed = dominating & ~dominated[None, :]
        dominators = np.argmax(allowed, axis=1)
        for position in np.flatnonzero(dominated):
            removals.append(prune_entry(
                plans[position], "superset-cfset",
                dominated_by=plans[int(dominators[position])]))
    return kept


def reachable_update_plans(query_plans, update_plans):
    """Drop maintenance plans for unreachable candidates.

    After plan-space pruning, a candidate column family may appear in
    no retained query plan and in no support plan reachable from one.
    Selecting such a candidate can only add maintenance cost and
    storage (all costs are nonnegative), so some optimal solution —
    also under a space limit, and for the schema-minimising second
    solve — never selects it, and its maintenance plans can be dropped
    from the BIP outright.  The reachable set is closed transitively: a
    reachable candidate's support plans may themselves look up further
    candidates.

    The closure runs over bit vectors: one boolean support-matrix row
    per maintenance plan, OR-folded into the reachable-key vector until
    a pass activates no new plan.
    """
    flat = [update_plan for plans in update_plans.values()
            for update_plan in plans]
    if not flat:
        return {update: list(plans)
                for update, plans in update_plans.items()}
    columns = {}

    def column(key):
        position = columns.get(key)
        if position is None:
            position = columns[key] = len(columns)
        return position

    maintained = np.array([column(update_plan.index.key)
                           for update_plan in flat])
    support_columns = []
    for update_plan in flat:
        cols = set()
        for plan in update_plan.support_plans:
            for key in plan_keys(plan):
                cols.add(column(key))
        support_columns.append(sorted(cols))
    seeds = {column(key)
             for plans in query_plans.values()
             for plan in plans
             for key in plan_keys(plan)}
    support_matrix = np.zeros((len(flat), len(columns)), dtype=bool)
    for row, cols in enumerate(support_columns):
        support_matrix[row, cols] = True
    reachable = np.zeros(len(columns), dtype=bool)
    reachable[sorted(seeds)] = True
    visited = np.zeros(len(flat), dtype=bool)
    while True:
        activated = reachable[maintained] & ~visited
        if not activated.any():
            break
        reachable |= support_matrix[activated].any(axis=0)
        visited |= activated
    survivors = reachable[maintained]
    result = {}
    position = 0
    for update, plans in update_plans.items():
        kept = []
        for update_plan in plans:
            if survivors[position]:
                kept.append(update_plan)
            position += 1
        result[update] = kept
    return result
