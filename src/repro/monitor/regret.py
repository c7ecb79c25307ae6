"""Regret estimation: what does standing still cost under the live mix?

``estimate_regret`` prices the *current* recommendation under the
monitor's observed statement weights — reusing the per-statement
unweighted costs the recommendation already carries, no replanning —
and compares it against a *fresh* re-advise for the same structure
under those weights.  The structural prepared-workload cache (PR 1)
and per-statement artifact store (PR 4) make the re-advise cheap: the
observed workload differs from the advised one only in weights, so
``Advisor.prepare`` is a cache hit and only cost/prune/solve rerun.

Regret is ``stale_cost - fresh_cost`` (non-negative up to solver
tolerance, since the fresh solve optimizes exactly the objective the
stale schema is being scored on).  A large regret is the signal that
re-advising is worth a migration; a small one says the old schema is
still fine even though the mix moved.
"""

from __future__ import annotations

__all__ = ["estimate_regret"]


def estimate_regret(advisor, workload, recommendation, observed,
                    space_limit=None):
    """Price ``recommendation`` under ``observed`` weights vs re-advising.

    ``observed`` is either a ``{label: weight}`` mapping or anything
    with an ``observed_weights()`` method (a ``WorkloadMonitor``).
    Weights are normalized to sum 1 so the reported costs are
    per-request expectations, comparable across runs of different
    lengths; labels the advised ``workload`` knows but the observation
    missed are priced at weight 0 (the BIP requires every prepared
    statement to carry a weight).

    Returns the regret section of the monitor document plus the fresh
    recommendation under ``"recommendation"`` (not serialized — the
    document builder summarizes it).
    """
    if hasattr(observed, "observed_weights"):
        observed = observed.observed_weights()
    total = sum(weight for weight in observed.values() if weight > 0)
    if total <= 0.0:
        return {
            "observed_requests": 0,
            "stale_cost": None,
            "fresh_cost": None,
            "regret": None,
            "regret_pct": None,
            "recommendation": None,
        }
    weights = {label: max(observed.get(label, 0.0), 0.0) / total
               for label in workload.statements}
    ignored = sorted(label for label in observed
                     if label not in workload.statements)
    stale = 0.0
    for label, (_advised_weight, unweighted) in \
            recommendation.statement_costs.items():
        stale += weights.get(label, 0.0) * unweighted
    prepared = advisor.prepare(workload)
    fresh = advisor.recommend_prepared(prepared, weights=weights,
                                       space_limit=space_limit)
    regret = stale - fresh.total_cost
    section = {
        "stale_cost": round(stale, 6),
        "fresh_cost": round(fresh.total_cost, 6),
        "regret": round(regret, 6),
        "regret_pct": (round(100.0 * regret / stale, 3)
                       if stale > 0 else None),
        "fresh_indexes": len(fresh.indexes),
        "stale_indexes": len(recommendation.indexes),
        "recommendation": fresh,
    }
    if ignored:
        section["ignored_labels"] = ignored
    return section
