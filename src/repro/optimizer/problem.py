"""The schema-design optimization problem instance."""

from __future__ import annotations

from repro.exceptions import OptimizationError


def cheapest_plan(plans, keys):
    """The cheapest plan using only column families in ``keys``.

    Cost ties go to the smallest plan signature, so extraction is
    byte-identical across runs and hash seeds.  None when no plan fits.
    """
    best = None
    best_rank = None
    for plan in plans:
        if any(index.key not in keys for index in plan.indexes):
            continue
        rank = (plan.cost, getattr(plan, "signature", ""))
        if best is None or rank < best_rank:
            best, best_rank = plan, rank
    return best


def used_keys(query_plans, update_plans):
    """Column families some chosen plan reads.

    ``query_plans`` maps queries to their chosen plan, ``update_plans``
    updates to the maintenance plans of the column families held (with
    their chosen support plans).  Holding a column family runs its
    support plans, whose lookups may need further column families, so
    the set is closed over them.
    """
    used = set()
    for plan in query_plans.values():
        used.update(index.key for index in plan.indexes)
    by_target = {}
    for plans in update_plans.values():
        for update_plan in plans:
            by_target.setdefault(update_plan.index.key,
                                 []).append(update_plan)
    frontier = set(used)
    while frontier:
        next_frontier = set()
        for key in frontier:
            for update_plan in by_target.get(key, ()):
                for plan in update_plan.support_plans:
                    for index in plan.indexes:
                        if index.key not in used:
                            next_frontier.add(index.key)
        used |= next_frontier
        frontier = next_frontier
    return used


class OptimizationProblem:
    """Everything the optimizers need, in one container.

    ``query_plans`` maps each workload query to its (costed) plan space;
    ``update_plans`` maps each update to its list of
    :class:`~repro.planner.plans.UpdatePlan` (one per modified candidate
    column family, support plans costed).  ``weights`` maps statements to
    their workload weights.  ``space_limit`` optionally bounds the total
    estimated size of the recommended schema in bytes.
    """

    def __init__(self, query_plans, update_plans, weights,
                 space_limit=None):
        self.query_plans = dict(query_plans)
        self.update_plans = dict(update_plans)
        self.weights = dict(weights)
        self.space_limit = space_limit
        self._indexes = None
        for query, plans in self.query_plans.items():
            if not plans:
                raise OptimizationError(
                    f"query has an empty plan space: {query.text or query!r}")

    @property
    def indexes(self):
        """Every candidate column family referenced by any plan.

        The plan spaces are fixed at construction, so the scan is done
        once and cached — the BIP consults this list per column.
        """
        if self._indexes is None:
            seen = {}
            for plans in self.query_plans.values():
                for plan in plans:
                    for index in plan.indexes:
                        seen.setdefault(index.key, index)
            for update_plans in self.update_plans.values():
                for update_plan in update_plans:
                    seen.setdefault(update_plan.index.key,
                                    update_plan.index)
                    for plan in update_plan.support_plans:
                        for index in plan.indexes:
                            seen.setdefault(index.key, index)
            self._indexes = list(seen.values())
        return list(self._indexes)

    def weight(self, statement):
        try:
            return self.weights[statement.label]
        except KeyError:
            raise OptimizationError(
                f"no weight for statement {statement.label!r}") from None

    def set_weights(self, weights):
        """Replace the statement weights (plan spaces stay fixed).

        Every statement with a plan space must keep a weight — the BIP's
        constraint structure is weight-independent, so a prepared
        program can be re-costed in place after this.
        """
        weights = dict(weights)
        statements = list(self.query_plans) + list(self.update_plans)
        missing = [s.label for s in statements if s.label not in weights]
        if missing:
            raise OptimizationError(
                f"new weights miss statements: {sorted(missing)}")
        self.weights = weights

    def evaluate_schema(self, keys):
        """Total weighted cost of selecting exactly ``keys``, or None.

        Evaluates the feasible solution that materializes every listed
        column family: the cheapest plan per query restricted to
        ``keys``, plus — for every maintained column family in ``keys``
        — its update cost and the cheapest feasible plan per support
        query.  Returns None when some query or open support gate has
        no plan within ``keys`` or the schema exceeds the space limit.
        Requires costed plans; used to turn a previous recommendation
        into a warm-start incumbent bound for the BIP.
        """
        known = {index.key for index in self.indexes}
        keys = frozenset(keys) & known
        if self.space_limit is not None:
            total_size = sum(index.size for index in self.indexes
                             if index.key in keys)
            if total_size > self.space_limit:
                return None

        def cheapest(plans):
            plan = cheapest_plan(plans, keys)
            return None if plan is None else plan.cost

        total = 0.0
        for query, plans in self.query_plans.items():
            cost = cheapest(plans)
            if cost is None:
                return None
            total += self.weight(query) * cost
        for update, update_plans in self.update_plans.items():
            weight = self.weight(update)
            for update_plan in update_plans:
                if update_plan.index.key not in keys:
                    continue
                total += weight * update_plan.update_cost
                grouped = update_plan.support_plans_by_query
                for _support, plans in grouped.items():
                    cost = cheapest(plans)
                    if cost is None:
                        return None
                    total += weight * cost
        return total

    @property
    def size(self):
        """Rough problem size: (candidates, query plans, support plans)."""
        query_plan_count = sum(len(p) for p in self.query_plans.values())
        support_plan_count = sum(
            len(up.support_plans)
            for plans in self.update_plans.values() for up in plans)
        return (len(self.indexes), query_plan_count, support_plan_count)

    def __repr__(self):
        candidates, query_plans, support_plans = self.size
        return (f"OptimizationProblem(candidates={candidates}, "
                f"query_plans={query_plans}, "
                f"support_plans={support_plans})")
