"""Primitive plan operations of the application model (paper §IV-B).

Only :class:`IndexLookupStep` (and the put/delete steps of update plans)
touch the record store; filtering, sorting and limiting happen client
side in the application, exactly as in the paper's application model.
Each step carries the cardinality estimates the cost model consumes.
"""

from __future__ import annotations

import copy


class PlanStep:
    """Base class for plan operations.

    ``cardinality`` is the estimated number of rows flowing *out* of the
    step; ``cost`` is filled in by a cost model during the cost
    -calculation pass (kept separate from planning so the advisor can
    report the paper's Fig 13 runtime decomposition).
    """

    def __init__(self, cardinality):
        self.cardinality = cardinality
        self.cost = None

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class IndexLookupStep(PlanStep):
    """One get request pattern against a column family.

    ``bindings`` is the number of get requests issued (one per row of the
    previous step, or one for the initial parameter binding);
    ``raw_rows`` the total rows fetched before any client-side filtering
    applied at later steps.  ``eq_fields`` are bound exactly (partition
    key plus a clustering-key prefix), ``range_field`` by the query's
    range predicate when the clustering order supports it.
    """

    def __init__(self, index, bindings, raw_rows, cardinality,
                 eq_fields=(), range_field=None, order_served=False,
                 is_fetch=False):
        super().__init__(cardinality)
        self.index = index
        self.bindings = bindings
        self.raw_rows = raw_rows
        self.eq_fields = tuple(eq_fields)
        self.range_field = range_field
        self.order_served = order_served
        #: True for point lookups that only widen rows (no path advance)
        self.is_fetch = is_fetch

    def describe(self):
        kind = "fetch" if self.is_fetch else "lookup"
        bound = ", ".join(f.id for f in self.eq_fields)
        if self.range_field is not None:
            bound += f", range {self.range_field.id}"
        return (f"{kind} {self.index.key} by [{bound}] "
                f"x{self.bindings:.3g} -> {self.cardinality:.3g} rows")


class FilterStep(PlanStep):
    """Client-side predicate evaluation on already-fetched rows."""

    def __init__(self, conditions, input_cardinality, cardinality):
        super().__init__(cardinality)
        self.conditions = tuple(conditions)
        self.input_cardinality = input_cardinality

    def bind(self, conditions):
        """A copy filtering on other conditions: ``conditions`` maps
        ``id()`` of each of this step's conditions to its replacement."""
        bound = copy.copy(self)
        bound.conditions = tuple(conditions.get(id(condition), condition)
                                 for condition in self.conditions)
        return bound

    def describe(self):
        preds = " AND ".join(str(c) for c in self.conditions)
        return f"filter {preds} -> {self.cardinality:.3g} rows"


class SortStep(PlanStep):
    """Client-side sort of the result rows."""

    def __init__(self, fields, cardinality):
        super().__init__(cardinality)
        self.fields = tuple(fields)

    def describe(self):
        names = ", ".join(f.id for f in self.fields)
        return f"sort by {names} ({self.cardinality:.3g} rows)"


class UnionStep(PlanStep):
    """Client-side merge of the OR-branch result streams.

    Concatenates the branch outputs; duplicate elimination happens in
    the application's final projection (the same multiset-dedup every
    query result goes through), so the step itself just merges.
    """

    def __init__(self, input_cardinality, cardinality):
        super().__init__(cardinality)
        self.input_cardinality = input_cardinality

    def describe(self):
        return (f"union {self.input_cardinality:.3g} branch rows "
                f"-> {self.cardinality:.3g} rows")


class AggregateStep(PlanStep):
    """Client-side grouping and aggregate folding.

    Deduplicates to distinct target rows, groups by ``group_by`` (one
    global group when empty) and folds the ``aggregates``; output
    cardinality is the expected number of groups.
    """

    def __init__(self, group_by, aggregates, input_cardinality,
                 cardinality):
        super().__init__(cardinality)
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self.input_cardinality = input_cardinality

    def describe(self):
        folds = ", ".join(str(a) for a in self.aggregates)
        if self.group_by:
            keys = ", ".join(f.id for f in self.group_by)
            return (f"aggregate {folds} by [{keys}] "
                    f"-> {self.cardinality:.3g} groups")
        return f"aggregate {folds} -> 1 row"


class LimitStep(PlanStep):
    """Truncate the result to the query's LIMIT."""

    def __init__(self, limit, input_cardinality):
        super().__init__(min(float(limit), input_cardinality))
        self.limit = limit
        self.input_cardinality = input_cardinality

    def describe(self):
        return f"limit {self.limit}"


class InsertStep(PlanStep):
    """Insert (put) rows into a column family during update execution."""

    def __init__(self, index, cardinality):
        super().__init__(cardinality)
        self.index = index

    def describe(self):
        return f"insert {self.cardinality:.3g} rows into {self.index.key}"


class DeleteStep(PlanStep):
    """Remove rows from a column family during update execution."""

    def __init__(self, index, cardinality):
        super().__init__(cardinality)
        self.index = index

    def describe(self):
        return f"delete {self.cardinality:.3g} rows from {self.index.key}"
