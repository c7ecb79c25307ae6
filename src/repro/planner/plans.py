"""Plan containers: one implementation strategy for one statement."""

from __future__ import annotations

import copy

from repro.exceptions import PlanningError
from repro.planner.steps import (
    DeleteStep,
    FilterStep,
    IndexLookupStep,
    InsertStep,
)


def _paired_conditions(statement, other):
    """The two statements' conditions, paired by position."""
    if len(statement.conditions) != len(other.conditions):
        raise PlanningError(
            f"cannot bind a plan for {statement.label or statement!r} to "
            f"{other.label or other!r}: their predicates differ")
    return zip(statement.conditions, other.conditions)


def _condition_map(query, statement):
    """``{id(condition of query): condition of statement}``."""
    return {id(old): new
            for old, new in _paired_conditions(query, statement)}


def _parameter_map(update, other):
    """``{parameter of update: other's parameter in its place}``."""
    names = {}

    def pair(mine, theirs):
        if isinstance(mine, tuple):  # IN lists
            names.update(zip(mine, theirs))
        else:
            names[mine] = theirs

    for mine, theirs in _paired_conditions(update, other):
        pair(mine.parameter, theirs.parameter)
    for attribute in ("settings", "connections"):
        theirs = {key.id: parameter for key, parameter
                  in _items(getattr(other, attribute, ()))}
        for key, parameter in _items(getattr(update, attribute, ())):
            if key.id in theirs:
                pair(parameter, theirs[key.id])
    return names


def _renamed(parameter, names):
    if isinstance(parameter, tuple):
        return tuple(names.get(name, name) for name in parameter)
    return names.get(parameter, parameter)


def _items(pairs):
    return pairs.items() if isinstance(pairs, dict) else pairs


class PlanSpace(list):
    """The enumerated plans for one query, with provenance.

    Behaves exactly like the plain list the planner used to return, but
    additionally records whether the depth-first enumeration was cut
    short by the planner's ``max_plans`` cap (``truncated``) — a capped
    space must never be mistaken for an exhaustive one.
    """

    def __init__(self, plans=(), query=None, truncated=False):
        super().__init__(plans)
        self.query = query
        #: True when ``max_plans`` stopped the DFS with branches left
        self.truncated = truncated


class QueryPlan:
    """A sequence of primitive steps answering one query.

    Plans are comparable by cost once a cost model has annotated their
    steps; ``indexes`` is the set of column families the plan requires,
    which is what the optimizer's BIP links plan choice to schema choice
    with.
    """

    def __init__(self, query, steps):
        self.query = query
        self.steps = tuple(steps)
        #: total cost stamped by the last cost-model pass (the steps are
        #: immutable, so dominance pruning and BIP construction read the
        #: cached scalar instead of re-summing step costs per access)
        self._cost = None
        self._indexes = None
        self._signature = None

    @property
    def indexes(self):
        """Distinct column families used, in first-use order."""
        if self._indexes is None:
            seen = {}
            for step in self.steps:
                if isinstance(step, IndexLookupStep):
                    seen.setdefault(step.index.key, step.index)
            self._indexes = tuple(seen.values())
        return self._indexes

    @property
    def lookup_steps(self):
        return tuple(s for s in self.steps
                     if isinstance(s, IndexLookupStep))

    @property
    def cost(self):
        """Total plan cost; requires a prior cost-model pass."""
        if self._cost is not None:
            return self._cost
        total = 0.0
        for step in self.steps:
            if step.cost is None:
                raise ValueError(
                    f"step {step!r} has no cost; run a cost model first")
            total += step.cost
        self._cost = total
        return total

    @property
    def cardinality(self):
        """Estimated number of result rows."""
        return self.steps[-1].cardinality if self.steps else 0.0

    @property
    def signature(self):
        """Stable identity for de-duplication within a plan space."""
        if self._signature is None:
            parts = []
            for step in self.steps:
                if isinstance(step, IndexLookupStep):
                    parts.append(f"L:{step.index.key}")
                else:
                    parts.append(type(step).__name__[0])
            self._signature = "|".join(parts)
        return self._signature

    def bind(self, statement):
        """This plan, answering ``statement`` instead of :attr:`query`.

        Statements of one signature class share one plan space, whose
        plans name the class's first statement as their query.  Another
        member gets a copy whose ``query`` and filter conditions are its
        own; conditions correspond by position, since one signature
        means one ordered (field, operator) list.  Costs, column
        families and the signature carry over.  Returns the plan itself
        for its own query.
        """
        if statement is self.query:
            return self
        bound = copy.copy(self)
        bound.query = statement
        conditions = _condition_map(self.query, statement)
        bound.steps = tuple(step.bind(conditions)
                            if isinstance(step, FilterStep) else step
                            for step in self.steps)
        return bound

    def describe(self):
        lines = [f"Plan for {self.query.label or self.query}:"]
        lines.extend(f"  {i + 1}. {step.describe()}"
                     for i, step in enumerate(self.steps))
        return "\n".join(lines)

    def __repr__(self):
        return f"QueryPlan({self.signature})"


class UnionPlan(QueryPlan):
    """A plan answering a disjunctive query as a union of branch plans.

    One complete :class:`QueryPlan` per OR branch, followed by tail
    steps that merge the branch streams (and sort/aggregate/limit the
    merged result).  ``steps`` concatenates every branch's steps with
    the tail, so cost models, dominance pruning and the BIP see one
    flat step sequence; the executor instead walks ``branch_plans``
    (each with its branch query's predicate context) and then
    ``tail_steps``.
    """

    def __init__(self, query, branch_plans, tail_steps):
        self.branch_plans = tuple(branch_plans)
        self.tail_steps = tuple(tail_steps)
        steps = [step for plan in self.branch_plans for step in plan.steps]
        steps.extend(tail_steps)
        super().__init__(query, steps)

    def bind(self, statement):
        """Bind every branch plan to ``statement``'s branch query (see
        :meth:`QueryPlan.bind`)."""
        if statement is self.query:
            return self
        bound = copy.copy(self)
        bound.query = statement
        bound.branch_plans = tuple(
            plan.bind(branch) for plan, branch
            in zip(self.branch_plans, statement.branch_queries))
        bound.steps = tuple(step for plan in bound.branch_plans
                            for step in plan.steps) + self.tail_steps
        return bound

    @property
    def signature(self):
        """Branch signatures in parallel, then the tail skeleton."""
        if self._signature is None:
            branches = ")U(".join(plan.signature
                                  for plan in self.branch_plans)
            parts = [f"({branches})"]
            parts.extend(type(step).__name__[0]
                         for step in self.tail_steps)
            self._signature = "|".join(parts)
        return self._signature

    def describe(self):
        lines = [f"Union plan for {self.query.label or self.query}:"]
        for number, plan in enumerate(self.branch_plans):
            lines.append(f"  branch {number}:")
            lines.extend(f"    {step.describe()}" for step in plan.steps)
        lines.extend(f"  {step.describe()}" for step in self.tail_steps)
        return "\n".join(lines)

    def __repr__(self):
        return f"UnionPlan({self.signature})"


class UpdatePlan:
    """Maintenance of one column family under one update statement (§VI-B).

    Consists of the support query plans that locate the affected rows,
    followed by delete and/or insert steps against the maintained column
    family.  The optimizer charges ``cost`` only when the column family
    is part of the recommended schema.
    """

    def __init__(self, update, index, support_plans, steps,
                 truncated_support=()):
        self.update = update
        self.index = index
        self.support_plans = tuple(support_plans)
        self.steps = tuple(steps)
        #: support queries whose plan spaces hit the planner cap
        self.truncated_support = tuple(truncated_support)
        #: update-step cost stamped by the last cost-model pass
        self._update_cost = None
        self._by_query = None

    def bind(self, update):
        """This maintenance plan, carried out for ``update`` instead.

        The counterpart of :meth:`QueryPlan.bind` for a member of the
        update's signature class: the support plans are bound to the
        member's own support queries (matched by position), so they
        read the member's parameters.  Returns the plan itself for its
        own update.
        """
        if update is self.update:
            return self
        supports = self.support_queries_of(update)
        bound = UpdatePlan(
            update, self.index,
            [plan.bind(supports[plan.query])
             for plan in self.support_plans],
            self.steps,
            truncated_support=[supports.get(query, query)
                               for query in self.truncated_support])
        bound._update_cost = self._update_cost
        return bound

    def support_queries_of(self, update):
        """``{support query: update's own counterpart}``.

        ``update`` must share this plan's update's signature.  Each
        counterpart is the support query with its parameters renamed to
        ``update``'s and its label derived from ``update``'s.  The
        predicates stay over this plan's fields.
        """
        from repro.workload.conditions import Condition
        from repro.workload.statements import SupportQuery
        names = _parameter_map(self.update, update)
        prefix = self.update.label or type(self.update).__name__
        own_prefix = update.label or type(update).__name__
        supports = {}
        for support in self.support_plans_by_query:
            label = support.label
            if label and label.startswith(prefix):
                label = own_prefix + label[len(prefix):]
            own = [Condition(condition.field, condition.operator,
                             _renamed(condition.parameter, names))
                   for condition in support.conditions]
            supports[support] = SupportQuery(
                support.key_path, support.select, own, update=update,
                index=support.index, label=label)
        return supports

    @property
    def update_steps(self):
        return tuple(s for s in self.steps
                     if isinstance(s, (InsertStep, DeleteStep)))

    @property
    def update_cost(self):
        """Cost of the put/delete work alone (C'_mn in the paper's BIP)."""
        if self._update_cost is not None:
            return self._update_cost
        total = 0.0
        for step in self.steps:
            if step.cost is None:
                raise ValueError(
                    f"step {step!r} has no cost; run a cost model first")
            total += step.cost
        self._update_cost = total
        return total

    @property
    def cost(self):
        """Update cost plus the cost of the cheapest support-query plans.

        Used by reporting and the brute-force optimizer; the BIP instead
        lets the solver choose support-query plans jointly.
        """
        total = self.update_cost
        for plans in self.support_plans_by_query.values():
            total += min(plan.cost for plan in plans)
        return total

    @property
    def support_plans_by_query(self):
        """Support-query plan spaces, grouped per support query.

        Cached — the plan tuple is immutable and the grouping is read
        repeatedly by the BIP builder and the explain renderers.
        """
        if self._by_query is None:
            grouped = {}
            for plan in self.support_plans:
                grouped.setdefault(plan.query, []).append(plan)
            self._by_query = grouped
        return self._by_query

    def describe(self):
        label = self.update.label or str(self.update)
        lines = [f"Maintenance of {self.index.key} under {label}:"]
        for query, plans in self.support_plans_by_query.items():
            best = min(plans, key=lambda p: p.cost if p.steps
                       and p.steps[0].cost is not None else 0)
            lines.append(f"  support: {query.text or query}")
            lines.extend(f"    {step.describe()}" for step in best.steps)
        lines.extend(f"  {step.describe()}" for step in self.update_steps)
        return "\n".join(lines)

    def __repr__(self):
        return (f"UpdatePlan({self.update.label or type(self.update).__name__}"
                f" on {self.index.key})")
