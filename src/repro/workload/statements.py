"""Statement IR: queries and the five update statement types (Fig 8).

Statements are expressed over the conceptual model: each names a target
entity and a path through the entity graph rooted at it, with predicates
over attributes of entities along the path.  They are normally produced
by :func:`repro.workload.parser.parse_statement`, but can be constructed
directly for programmatic workloads.

Beyond the paper's core language, queries support three extensions that
flow through every downstream layer (enumeration, planning, costing,
execution and differential verification):

* aggregation — ``COUNT/SUM/AVG/MIN/MAX`` select items with ``GROUP
  BY``, evaluated over *distinct* target-entity rows;
* ``IN``-lists — a k-way equality binding a column to a multi-get;
* disjunction — a WHERE clause in disjunctive normal form, held as a
  tuple of predicate branches (``disjuncts``) and planned as a union
  over the per-branch plan spaces.
"""

from __future__ import annotations

from repro.exceptions import ParseError
from repro.model.fields import ForeignKeyField
from repro.model.paths import KeyPath
from repro.workload import semantics
from repro.workload.conditions import Condition


class Aggregate:
    """An aggregate select item: ``FUNC(Entity.Field)`` or ``COUNT(*)``.

    Immutable value object.  ``field`` is ``None`` only for ``COUNT(*)``,
    which counts group rows.
    """

    __slots__ = ("func", "field")

    def __init__(self, func, field=None):
        func = func.upper()
        if func not in semantics.AGGREGATE_FUNCTIONS:
            raise ValueError(f"unsupported aggregate function {func!r}")
        if field is None and func != "COUNT":
            raise ValueError(f"{func}(*) is not defined; only COUNT(*)")
        self.func = func
        self.field = field

    @property
    def output_id(self):
        """Stable result-column name, e.g. ``SUM(Room.RoomRate)``."""
        return f"{self.func}({self.field.id if self.field else '*'})"

    def __eq__(self, other):
        if not isinstance(other, Aggregate):
            return NotImplemented
        return self.func == other.func and self.field is other.field

    def __hash__(self):
        return hash((self.func, id(self.field)))

    def __repr__(self):
        return f"Aggregate({self.output_id})"

    def __str__(self):
        return self.output_id


def _render_parameter(parameter):
    return f"?{parameter}"


def _render_condition(condition):
    if condition.is_membership:
        members = ", ".join(_render_parameter(name)
                            for name in condition.parameter)
        return f"{condition.field.id} IN ({members})"
    return (f"{condition.field.id} {condition.operator} "
            f"{_render_parameter(condition.parameter)}")


def _render_where(disjuncts):
    """Render a DNF predicate list back to statement syntax."""
    branches = [branch for branch in disjuncts if branch]
    if not branches:
        return ""
    if len(branches) == 1:
        body = " AND ".join(_render_condition(c) for c in branches[0])
    else:
        body = " OR ".join(
            "(" + " AND ".join(_render_condition(c) for c in branch) + ")"
            for branch in branches)
    return f" WHERE {body}"


class Statement:
    """Common behaviour of every workload statement.

    ``key_path`` is the statement's walk through the entity graph; its
    first entity is the statement's target.  Predicates are held as
    ``disjuncts`` — a tuple of branches, each a tuple of conditions over
    attributes of entities on the path — with ``conditions`` the
    flattened deduplicated view.  Non-query statements always have a
    single branch.  Within each branch at most one predicate may be a
    range (a restriction inherited from the single-get semantics of
    extensible record stores).
    """

    def __init__(self, key_path, conditions=(), text=None, label=None,
                 disjuncts=None):
        if not isinstance(key_path, KeyPath):
            raise ParseError("statement requires a KeyPath", text)
        self.key_path = key_path
        if disjuncts is None:
            disjuncts = (tuple(conditions),)
        self.disjuncts = tuple(tuple(branch) for branch in disjuncts)
        if not self.disjuncts:
            self.disjuncts = ((),)
        flattened = {}
        for branch in self.disjuncts:
            for condition in branch:
                flattened.setdefault(condition)
        self.conditions = tuple(flattened)
        self.text = text
        self.label = label
        self._validate_conditions()

    def _validate_conditions(self):
        for branch in self.disjuncts:
            ranges = [c for c in branch if c.is_range]
            if len(ranges) > 1:
                raise ParseError(
                    "at most one range predicate is supported per "
                    "predicate branch", self.text)
            seen = set()
            for condition in branch:
                if not self.key_path.includes(condition.field.parent):
                    raise ParseError(
                        f"condition on {condition.field.id} lies off the "
                        f"statement path {self.key_path}", self.text)
                if condition.field.id in seen:
                    raise ParseError(
                        f"duplicate condition on {condition.field.id}",
                        self.text)
                seen.add(condition.field.id)

    # -- structure ---------------------------------------------------------

    @property
    def entity(self):
        """The statement's target entity (the FROM entity)."""
        return self.key_path.first

    @property
    def is_disjunctive(self):
        """True when the WHERE clause has more than one OR branch."""
        return len(self.disjuncts) > 1

    @property
    def eq_conditions(self):
        return tuple(c for c in self.conditions if c.is_equality)

    @property
    def bindable_conditions(self):
        """Predicates that can seed get requests (equality and IN)."""
        return tuple(c for c in self.conditions if c.is_bindable)

    @property
    def range_condition(self):
        """The single range predicate, or None."""
        for condition in self.conditions:
            if condition.is_range:
                return condition
        return None

    def condition_on(self, field):
        """The predicate over ``field``, or None."""
        for condition in self.conditions:
            if condition.field is field:
                return condition
        return None

    @property
    def given_fields(self):
        """Fields whose values arrive as equality parameters."""
        return tuple(c.field for c in self.eq_conditions)

    def unparse(self):
        """Render the statement back to canonical source text.

        The result re-parses to a structurally identical statement
        (same digest), which is what lets statements built
        programmatically — e.g. by :mod:`repro.randgen` — be serialized
        and round-tripped.
        """
        raise NotImplementedError

    # -- statistics ----------------------------------------------------------

    @staticmethod
    def _branch_selectivity(branch):
        selectivity = 1.0
        for condition in branch:
            selectivity *= condition.selectivity
        return selectivity

    @property
    def matching_join_rows(self):
        """Expected rows of the full path join satisfying all predicates.

        For a disjunctive WHERE clause, branch estimates are summed
        (treating branches as disjoint) and capped at the path's join
        cardinality.
        """
        total = self.key_path.cardinality
        rows = sum(total * self._branch_selectivity(branch)
                   for branch in self.disjuncts)
        return max(min(rows, total), 1.0)

    @property
    def matching_target_rows(self):
        """Expected distinct target-entity rows satisfying all predicates."""
        total = float(self.entity.count)
        rows = sum(total * self._branch_selectivity(branch)
                   for branch in self.disjuncts)
        return max(min(rows, total), 1.0)

    def __repr__(self):
        text = self.text or f"{type(self).__name__} over {self.key_path}"
        return f"{type(self).__name__}({text!r})"

    def __str__(self):
        return self.text or self.unparse()


class Query(Statement):
    """A read statement: SELECT over a path (Fig 3).

    ``select`` holds the requested items — fields of the target entity
    (the same restriction as the paper's prototype; support queries
    relax it, see :class:`SupportQuery`), possibly mixed with
    :class:`Aggregate` items.  When aggregates are present the query is
    evaluated over distinct target rows: grouped by ``group_by`` (or as
    one global group), with plain selected fields required to appear in
    ``group_by`` and ``order_by`` restricted to grouping fields.  The
    underlying ``select`` tuple then holds the fields the plan must
    materialize (group fields, aggregate arguments, and the target id
    for distinctness); ``select_items`` preserves what was written.
    """

    #: distinguishes workload queries from maintenance support queries
    is_support = False

    def __init__(self, key_path, select, conditions=(), order_by=(),
                 limit=None, text=None, label=None, group_by=(),
                 disjuncts=None):
        super().__init__(key_path, conditions, text=text, label=label,
                         disjuncts=disjuncts)
        self.select_items = tuple(select)
        self.aggregates = tuple(item for item in self.select_items
                                if isinstance(item, Aggregate))
        plain = tuple(item for item in self.select_items
                      if not isinstance(item, Aggregate))
        self.group_by = tuple(group_by)
        self.order_by = tuple(order_by)
        self.limit = limit
        self._branch_queries = None
        if not self.select_items:
            raise ParseError("query selects no fields", text)
        if self.aggregates:
            if self.is_support:
                raise ParseError(
                    "support queries cannot aggregate", text)
            for aggregate in self.aggregates:
                if aggregate.field is not None \
                        and aggregate.field.parent is not self.entity:
                    raise ParseError(
                        f"aggregated field {aggregate.field.id} does not "
                        f"belong to the target entity {self.entity.name}",
                        text)
            for field in self.group_by:
                if field.parent is not self.entity:
                    raise ParseError(
                        f"GROUP BY field {field.id} does not belong to "
                        f"the target entity {self.entity.name}", text)
            group_set = set(self.group_by)
            for field in plain:
                if field not in group_set:
                    raise ParseError(
                        f"selected field {field.id} must appear in GROUP "
                        "BY when the query aggregates", text)
            for field in self.order_by:
                if field not in group_set:
                    raise ParseError(
                        f"ORDER BY field {field.id} must be a GROUP BY "
                        "field when the query aggregates", text)
            # fields the plan must materialize: group keys, aggregate
            # arguments, and the target id so groups fold over distinct
            # target rows rather than join rows
            underlying = dict.fromkeys(self.group_by)
            for aggregate in self.aggregates:
                if aggregate.field is not None:
                    underlying.setdefault(aggregate.field)
            underlying.setdefault(self.entity.id_field)
            self.select = tuple(underlying)
        else:
            if self.group_by:
                raise ParseError(
                    "GROUP BY requires at least one aggregate select "
                    "item", text)
            self.select = plain
        for field in self.select:
            if field.parent is not self.entity and not self.is_support:
                raise ParseError(
                    f"selected field {field.id} does not belong to the "
                    f"target entity {self.entity.name}", text)
        for field in self.order_by:
            if not self.key_path.includes(field.parent):
                raise ParseError(
                    f"ORDER BY field {field.id} lies off the statement path",
                    text)
        if limit is not None and limit < 1:
            raise ParseError("LIMIT must be positive", text)
        for branch in self.disjuncts:
            if not any(c.is_bindable for c in branch):
                raise ParseError(
                    "a query needs at least one equality (or IN) "
                    "predicate per OR branch to seed a get request", text)

    @property
    def is_aggregate(self):
        """True when the select list contains aggregate items."""
        return bool(self.aggregates)

    @property
    def output_ids(self):
        """Result-column identifiers, in select order.

        Plain queries project their selected fields; aggregated queries
        project the written select items (group fields and aggregate
        columns such as ``COUNT(*)``).
        """
        if self.is_aggregate:
            return tuple(item.output_id if isinstance(item, Aggregate)
                         else item.id for item in self.select_items)
        return tuple(field.id for field in self.select)

    @property
    def branch_queries(self):
        """One plain conjunctive query per OR branch.

        Disjunctive queries are planned as a union: each branch becomes
        an ordinary query over the same path, selecting the same
        underlying fields and carrying the parent's ORDER BY (so branch
        plans materialize the sort columns); aggregation, LIMIT and the
        final merge happen in the union tail.  Single-branch queries
        return ``(self,)``.
        """
        if not self.is_disjunctive:
            return (self,)
        if self._branch_queries is None:
            label = self.label or "query"
            self._branch_queries = tuple(
                Query(self.key_path, self.select, branch,
                      order_by=self.order_by,
                      label=f"{label}~or{number}")
                for number, branch in enumerate(self.disjuncts))
        return self._branch_queries

    @property
    def all_fields(self):
        """Every field the query touches: selected, filtered, ordered."""
        fields = dict.fromkeys(self.select)
        for condition in self.conditions:
            fields.setdefault(condition.field)
        for field in self.order_by:
            fields.setdefault(field)
        return tuple(fields)

    @property
    def group_rows(self):
        """Expected number of groups an aggregated query produces."""
        if not self.group_by:
            return 1.0
        groups = 1.0
        for field in self.group_by:
            groups *= max(field.cardinality, 1)
        return max(min(groups, self.matching_target_rows), 1.0)

    @property
    def result_rows(self):
        """Expected result size, honouring aggregation and LIMIT."""
        if self.is_aggregate:
            rows = self.group_rows
        else:
            rows = self.matching_join_rows
        if self.limit is not None:
            rows = min(rows, float(self.limit))
        return rows

    def unparse(self):
        items = ", ".join(str(item) if isinstance(item, Aggregate)
                          else item.id for item in self.select_items)
        parts = [f"SELECT {items} FROM {self.key_path}"]
        parts.append(_render_where(self.disjuncts))
        if self.group_by:
            fields = ", ".join(field.id for field in self.group_by)
            parts.append(f" GROUP BY {fields}")
        if self.order_by:
            fields = ", ".join(field.id for field in self.order_by)
            parts.append(f" ORDER BY {fields}")
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        return "".join(parts)


class SupportQuery(Query):
    """A query generated to maintain a column family under an update.

    Support queries fetch the primary-key attributes (and displaced old
    values) of the column-family rows an update touches (§VI-B).  They may
    select fields from any entity along their path, since the keys of a
    multi-entity column family span several entities.
    """

    is_support = True

    def __init__(self, key_path, select, conditions=(), update=None,
                 index=None, text=None, label=None):
        super().__init__(key_path, select, conditions, text=text, label=label)
        #: the update statement this query supports
        self.update = update
        #: the column family being maintained
        self.index = index

    def __repr__(self):
        # support queries are enumerator-generated, never round-tripped
        # through the parser, so they keep the provenance-style rendering
        # that explain documents have always used
        text = self.text or f"SupportQuery over {self.key_path}"
        return f"SupportQuery({text!r})"

    def __str__(self):
        return self.text or repr(self)


class _ModifyingStatement(Statement):
    """Base for the write statements of Fig 8."""

    is_support = False

    @property
    def modified_entity(self):
        """The entity whose rows (or connections) this statement changes."""
        return self.entity


class Insert(_ModifyingStatement):
    """``INSERT INTO Entity SET f = ?, ... [AND CONNECT TO rel(?), ...]``.

    Creates one new entity row.  The primary key is always provided (the
    paper assumes the same); relationships named in the CONNECT clause are
    established atomically with the insert.
    """

    def __init__(self, key_path, settings, connections=(), text=None,
                 label=None):
        super().__init__(key_path, conditions=(), text=text, label=label)
        if len(key_path) != 1:
            raise ParseError("INSERT targets a single entity", text)
        #: mapping of field -> parameter name for the new row's values
        self.settings = dict(settings)
        #: pairs of (foreign key on the target entity, parameter name)
        self.connections = tuple(connections)
        for field in self.settings:
            if field.parent is not self.entity:
                raise ParseError(
                    f"SET field {field.id} does not belong to "
                    f"{self.entity.name}", text)
        for key, _parameter in self.connections:
            if not isinstance(key, ForeignKeyField) \
                    or key.parent is not self.entity:
                raise ParseError(
                    f"CONNECT TO target {key!r} is not a relationship of "
                    f"{self.entity.name}", text)
        id_field = self.entity.id_field
        if id_field not in self.settings:
            # The paper assumes the primary key accompanies every insert.
            self.settings[id_field] = id_field.name

    @property
    def set_fields(self):
        return tuple(self.settings)

    @property
    def connected_keys(self):
        return tuple(key for key, _ in self.connections)

    def unparse(self):
        assignments = ", ".join(
            f"{field.name} = {_render_parameter(parameter)}"
            for field, parameter in self.settings.items())
        text = f"INSERT INTO {self.entity.name} SET {assignments}"
        if self.connections:
            links = ", ".join(
                f"{key.name}({_render_parameter(parameter)})"
                for key, parameter in self.connections)
            text += f" AND CONNECT TO {links}"
        return text


class Update(_ModifyingStatement):
    """``UPDATE Entity FROM path SET f = ? WHERE ...`` (Fig 8).

    Modifies attributes of target-entity rows selected by the predicates,
    which may reference entities along the FROM path.
    """

    def __init__(self, key_path, settings, conditions, text=None, label=None):
        super().__init__(key_path, conditions, text=text, label=label)
        self.settings = dict(settings)
        if not self.settings:
            raise ParseError("UPDATE sets no fields", text)
        for field in self.settings:
            if field.parent is not self.entity:
                raise ParseError(
                    f"SET field {field.id} does not belong to "
                    f"{self.entity.name}", text)
            if field is self.entity.id_field:
                raise ParseError("cannot UPDATE a primary key", text)
        if not self.conditions:
            raise ParseError("UPDATE requires a WHERE clause", text)

    @property
    def set_fields(self):
        return tuple(self.settings)

    def unparse(self):
        assignments = ", ".join(
            f"{field.name} = {_render_parameter(parameter)}"
            for field, parameter in self.settings.items())
        text = f"UPDATE {self.entity.name}"
        if len(self.key_path) > 1:
            text += f" FROM {self.key_path}"
        text += f" SET {assignments}"
        return text + _render_where(self.disjuncts)


class Delete(_ModifyingStatement):
    """``DELETE FROM path WHERE ...`` — removes matching target rows."""

    def __init__(self, key_path, conditions, text=None, label=None):
        super().__init__(key_path, conditions, text=text, label=label)
        if not self.conditions:
            raise ParseError("DELETE requires a WHERE clause", text)

    def unparse(self):
        return (f"DELETE FROM {self.key_path}"
                + _render_where(self.disjuncts))


class Connect(_ModifyingStatement):
    """``CONNECT Entity(?id) TO rel(?target_id)`` — add a relationship."""

    #: False for CONNECT, True for DISCONNECT
    removes_link = False

    def __init__(self, key_path, source_parameter, target_parameter,
                 text=None, label=None):
        if len(key_path) != 2:
            raise ParseError(
                "CONNECT/DISCONNECT traverses exactly one relationship",
                text)
        source = key_path.first
        conditions = (
            Condition(source.id_field, "=", source_parameter),
            Condition(key_path.last.id_field, "=", target_parameter),
        )
        super().__init__(key_path, conditions, text=text, label=label)
        self.source_parameter = source_parameter
        self.target_parameter = target_parameter

    @property
    def relationship(self):
        """The foreign key being connected or disconnected."""
        return self.key_path.keys[0]

    def unparse(self):
        verb, link = (("DISCONNECT", "FROM") if self.removes_link
                      else ("CONNECT", "TO"))
        return (f"{verb} {self.entity.name}"
                f"({_render_parameter(self.source_parameter)}) {link} "
                f"{self.relationship.name}"
                f"({_render_parameter(self.target_parameter)})")


class Disconnect(Connect):
    """``DISCONNECT Entity(?id) FROM Rel(?target_id)`` — remove a link."""

    removes_link = True
