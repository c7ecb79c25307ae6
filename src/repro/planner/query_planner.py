"""Plan-space enumeration for queries (paper §IV-C).

A plan answers a query by walking the query's path *backwards* — from the
far end (where the anchoring equality predicates usually live) toward the
target entity — through a chain of get requests, exactly mirroring the
prefix/remainder decomposition of Fig 5.  Each get advances the frontier
across one contiguous path segment using a column family defined over
that segment; predicates are served inside the get (partition key and
clustering-prefix binding), applied as client-side filters when the
column family stores the attribute, or resolved through an extra point
lookup ("fetch") on the attribute's entity followed by a filter — the
CF2/CF5 pattern of Fig 6.

The planner enumerates every such chain over a pool of candidate column
families and returns the resulting plan space.  Costs are *not* assigned
here; the advisor runs a separate cost-calculation pass so the runtime
decomposition of Fig 13 can be reported.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from repro import telemetry
from repro.exceptions import PlanningError
from repro.parallel import parallel_map
from repro.planner.plans import PlanSpace, QueryPlan, UnionPlan
from repro.planner.steps import (
    AggregateStep,
    FilterStep,
    IndexLookupStep,
    LimitStep,
    SortStep,
    UnionStep,
)


class _Binding:
    """How one column family serves one get in a plan: which predicates
    bind the partition/clustering keys, which become client filters, and
    which are left pending for a later fetch.

    ``binding_factor`` multiplies the get-request count: an ``IN``
    predicate bound to a key column turns one get into a k-way
    multi-get (one request per list member combination)."""

    __slots__ = ("eq_fields", "range_condition", "filters", "pending",
                 "served", "per_binding_raw", "order_served",
                 "binding_factor")

    def __init__(self, eq_fields, range_condition, filters, pending,
                 served, per_binding_raw, order_served, binding_factor):
        self.eq_fields = eq_fields
        self.range_condition = range_condition
        self.filters = filters
        self.pending = pending
        self.served = served
        self.per_binding_raw = per_binding_raw
        self.order_served = order_served
        self.binding_factor = binding_factor


class QueryPlanner:
    """Enumerates the space of implementation plans for queries.

    ``indexes`` is the candidate pool (or a fixed schema, when planning
    against a user-supplied design).  ``max_plans`` bounds the plan space
    per query to keep the optimizer's program tractable.
    """

    def __init__(self, model, indexes, max_plans=500):
        self.model = model
        self.pool = list(dict.fromkeys(indexes))
        self.max_plans = max_plans
        self._segments = {}
        self._fetches = {}
        for index in self.pool:
            for segment_key, single in _servable_segments(index):
                self._segments.setdefault(segment_key, []).append(index)
                if single is not None \
                        and index.hash_fields == (single.id_field,):
                    self._fetches.setdefault(single.name,
                                             []).append(index)
        # -- pool bitset layout (vectorized membership checks) ---------
        # one row per candidate, columns ordered by candidate key; a
        # path-segment membership mask per registered segment signature
        # lets relevant_pool_key() union pool subsets as boolean ORs
        # instead of Python set unions, and the per-entity fetch
        # matrices below answer "which point-lookup candidates cover
        # these fields" as one vectorized row scan
        keys = sorted(index.key for index in self.pool)
        self._sorted_keys = keys
        position = {key: column for column, key in enumerate(keys)}
        self._segment_masks = {}
        for signature, members in self._segments.items():
            mask = np.zeros(len(keys), dtype=bool)
            for index in members:
                mask[position[index.key]] = True
            self._segment_masks[signature] = mask
        #: entity name -> (options, field-id columns, bool matrix); one
        #: row per fetch candidate, one column per stored field id
        self._fetch_matrices = {}
        #: (entity name, frozenset of field ids) -> covering candidates
        self._fetch_memo = {}
        #: reversed-path signature -> relevant-pool fingerprint; the
        #: relevant subset is a function of the path alone
        self._pool_key_memo = {}
        #: candidate key -> expected entries, stable for this planner's
        #: lifetime (one prepare); entity counts only change between
        #: prepares (Dataset.sync_counts), never inside one
        self._entries_memo = {}

    # -- public API ---------------------------------------------------------

    def plans_for(self, query, require=True, max_plans=None):
        """All plans for ``query`` over the pool, deduplicated.

        Raises :class:`PlanningError` when ``require`` is set and no plan
        exists (i.e. the pool cannot answer the query).  ``max_plans``
        overrides the planner-wide cap for this query.  The returned
        :class:`~repro.planner.plans.PlanSpace` records whether the cap
        cut the enumeration short (``.truncated``).

        Disjunctive queries are planned as a plan-space union: every
        combination of per-branch plans becomes one
        :class:`~repro.planner.plans.UnionPlan` merging the branch
        streams client side.
        """
        if getattr(query, "is_disjunctive", False):
            return self._union_plans(query, require,
                                     max_plans or self.max_plans)
        rpath = query.key_path.reverse() if len(query.key_path) > 1 \
            else query.key_path
        plans = {}
        state = _PlannerState(self, query, rpath, plans,
                              max_plans or self.max_plans)
        state.advance(-1, (), 1.0, frozenset(), frozenset(), False)
        if require and not plans:
            raise PlanningError(
                f"no plan found for query: {query.text or query!r}")
        active = telemetry.current()
        if active.enabled:
            active.count("planner.plans_generated", len(plans))
            active.observe("planner.plans_per_query", len(plans))
            if state.truncated:
                active.count("planner.truncated_spaces")
        return PlanSpace(plans.values(), query=query,
                         truncated=state.truncated)

    def _union_plans(self, query, require, max_plans):
        """Plan a disjunctive query as a union over its branch spaces.

        Each branch (a conjunctive query) is planned independently;
        every combination of branch plans yields one
        :class:`~repro.planner.plans.UnionPlan` whose tail merges the
        branch streams and applies the query's sort, aggregation and
        limit client side (a union can never ride a single clustering
        order, so ORDER BY always sorts the merged rows).
        """
        spaces = [self.plans_for(branch, require=require,
                                 max_plans=max_plans)
                  for branch in query.branch_queries]
        truncated = any(space.truncated for space in spaces)
        if any(not space for space in spaces):
            return PlanSpace((), query=query, truncated=truncated)
        plans = {}
        for combo in itertools.product(*spaces):
            if len(plans) >= max_plans:
                truncated = True
                break
            plan = self._union_plan(query, combo)
            plans.setdefault(plan.signature, plan)
        active = telemetry.current()
        if active.enabled:
            active.count("planner.union_plans", len(plans))
        return PlanSpace(plans.values(), query=query, truncated=truncated)

    def _union_plan(self, query, branch_plans):
        merged_in = sum(plan.cardinality for plan in branch_plans)
        out = min(max(merged_in, 0.0), query.matching_join_rows)
        tail = [UnionStep(merged_in, out)]
        if query.order_by:
            tail.append(SortStep(query.order_by, out))
        if getattr(query, "is_aggregate", False):
            groups = min(query.group_rows, max(out, 1.0))
            tail.append(AggregateStep(query.group_by, query.aggregates,
                                      out, groups))
            out = groups
        if query.limit is not None:
            tail.append(LimitStep(query.limit, out))
        return UnionPlan(query, branch_plans, tail)

    def plan_all(self, queries, require=True):
        """Plan spaces for many queries: ``{query: PlanSpace}``.

        A failure names the query that raised it.
        """
        queries = list(queries)
        spaces = parallel_map(
            lambda query: self.plans_for(query, require=require),
            queries)
        return dict(zip(queries, spaces))

    def best_plan(self, query, cost_model):
        """Cost all plans and return the cheapest one."""
        plans = self.plans_for(query)
        for plan in plans:
            cost_model.cost_plan(plan)
        return min(plans, key=lambda p: p.cost)

    # -- pool access ----------------------------------------------------------

    def segment_indexes(self, segment):
        """Pool indexes defined over exactly this path segment."""
        return self._segments.get(segment.signature, [])

    def entries_of(self, index):
        """``index.entries``, memoized for this planner's lifetime.

        The expected row count walks the index path's cardinalities on
        every access; the planner reads it once per (candidate,
        predicate) binding attempt, so the walk is done once per
        candidate instead.
        """
        try:
            return self._entries_memo[index.key]
        except KeyError:
            entries = self._entries_memo[index.key] = index.entries
            return entries

    def relevant_pool_key(self, query):
        """Fingerprint of the pool subset that can serve ``query``.

        Plan enumeration only ever consults indexes registered under a
        contiguous sub-path of the query's (reversed) path — segment
        lookups directly, fetch lookups through the single-entity
        segments of on-path entities — so the plan space is a pure
        function of the query's structure and this subset.  Two pools
        with the same fingerprint for a query therefore yield identical
        plan spaces, which is what lets the advisor reuse per-statement
        plan artifacts across pool changes elsewhere in the workload.

        The subset depends on the query's *path* only, so fingerprints
        are memoized per reversed-path signature, and the subset union
        is a boolean OR over the precomputed segment membership masks
        (one row per candidate) rather than a Python set union.
        """
        rpath = query.key_path.reverse() if len(query.key_path) > 1 \
            else query.key_path
        memo_key = rpath.signature
        cached = self._pool_key_memo.get(memo_key)
        if cached is not None:
            return cached
        length = len(rpath)
        signatures = set()
        for start in range(length):
            for end in range(start, length):
                signatures.add(rpath[start:end + 1].signature)
        mask = np.zeros(len(self._sorted_keys), dtype=bool)
        for signature in signatures:
            member = self._segment_masks.get(signature)
            if member is not None:
                mask |= member
        keys = [key for key, hit in zip(self._sorted_keys, mask) if hit]
        payload = "\n".join(keys).encode("utf-8")
        fingerprint = hashlib.sha256(payload).hexdigest()[:16]
        self._pool_key_memo[memo_key] = fingerprint
        return fingerprint

    def fetch_indexes(self, entity, fields):
        """Point-lookup indexes ``[E.id][][...]`` covering ``fields``.

        Coverage is answered from a per-entity bitset matrix — one row
        per fetch candidate, one column per stored field id — and
        memoized per (entity, field-id set): support planning asks the
        same questions for every (update, column family) pair, millions
        of times on large pools.
        """
        ids = frozenset(f.id for f in fields)
        memo_key = (entity.name, ids)
        cached = self._fetch_memo.get(memo_key)
        if cached is not None:
            return cached
        entry = self._fetch_matrices.get(entity.name)
        if entry is None:
            options = self._fetches.get(entity.name, [])
            columns = {}
            for option in options:
                for field_id in option.all_field_ids:
                    columns.setdefault(field_id, len(columns))
            matrix = np.zeros((len(options), len(columns)), dtype=bool)
            for row, option in enumerate(options):
                for field_id in option.all_field_ids:
                    matrix[row, columns[field_id]] = True
            entry = (options, columns, matrix)
            self._fetch_matrices[entity.name] = entry
        options, columns, matrix = entry
        try:
            wanted = [columns[field_id] for field_id in ids]
        except KeyError:
            # some requested field is stored by no fetch candidate
            self._fetch_memo[memo_key] = []
            return []
        if options:
            hits = matrix[:, wanted].all(axis=1)
            result = [option for option, hit in zip(options, hits) if hit]
        else:
            result = []
        self._fetch_memo[memo_key] = result
        return result


def _servable_segments(index):
    """Path segments an index can serve without changing the row set.

    An index always serves its own path (either orientation).  It can
    additionally serve a contiguous sub-path when every trimmed edge,
    oriented away from the kept segment, is a *total* to-one
    relationship — the paper's "possibly larger" column families.
    To-one keeps the join from duplicating rows; totality (mandatory
    participation) keeps it from dropping them: over a partial edge the
    extended join loses rows that lack the relationship, which the
    differential oracle observes as result rows missing from plans that
    read the larger column family.  Yields ``(path signature,
    entity-or-None)`` pairs, the entity being set for single-entity
    segments (fetch candidates).
    """
    path = index.path
    length = len(path)
    produced = set()
    for start in range(length):
        if any(key.reverse is None or key.reverse.relationship != "one"
               or not key.reverse.total
               for key in path.keys[:start]):
            continue
        for end in range(length - 1, start - 1, -1):
            if any(key.relationship != "one" or not key.total
                   for key in path.keys[end:]):
                continue
            signature = path[start:end + 1].signature
            if signature in produced:
                continue
            produced.add(signature)
            single = path.entities[start] if start == end else None
            yield signature, single


class _PlannerState:
    """Depth-first enumeration of lookup chains for one query."""

    def __init__(self, planner, query, rpath, plans, max_plans):
        self.planner = planner
        self.query = query
        self.rpath = rpath
        self.plans = plans
        self.max_plans = max_plans
        #: set when the cap stopped the DFS with work left (an
        #: unexplored branch may only hold duplicate plans, so this is
        #: a conservative "may be incomplete", never a false negative)
        self.truncated = False
        self.length = len(rpath)
        self.order_by = tuple(query.order_by) \
            if hasattr(query, "order_by") else ()
        # conditions assigned to the first reversed-path position covering
        # their entity
        self.conditions_at = {}
        for condition in query.conditions:
            position = rpath.index_of(condition.field.parent)
            self.conditions_at.setdefault(position, []).append(condition)

    # -- recursion ------------------------------------------------------------

    def advance(self, position, steps, cardinality, consumed, available,
                order_served):
        """Extend the chain from frontier ``position`` (-1 = nothing yet)."""
        if len(self.plans) >= self.max_plans:
            self.truncated = True
            return
        if position == self.length - 1:
            self._finalize(steps, cardinality, available, order_served)
            return
        start = max(position, 0)
        pivot = None if position < 0 else self.rpath[position].id_field
        if pivot is not None and pivot.id not in available:
            return
        # explore the longest segments first: the single-get materialized
        # view plan is always found before the plan cap can bite
        first_end = start + (0 if position < 0 else 1)
        for end in range(self.length - 1, first_end - 1, -1):
            segment = self.rpath[start:end + 1]
            span = range(start if position < 0 else position,
                         end + 1)
            segment_conditions = self._conditions_in(span, consumed)
            for index in self.planner.segment_indexes(segment):
                # once the cap is hit no plan can ever be added again, so
                # stop iterating instead of binding candidates that only
                # bounce off the cap while the recursion unwinds
                if len(self.plans) >= self.max_plans:
                    self.truncated = True
                    return
                binding = self._bind(index, segment_conditions, pivot)
                if binding is None:
                    continue
                self._emit(index, segment, binding, position, end, steps,
                           cardinality, consumed, available, order_served)

    def _conditions_in(self, positions, consumed):
        conditions = []
        for position in positions:
            for condition in self.conditions_at.get(position, []):
                if condition.field.id not in consumed:
                    conditions.append(condition)
        return conditions

    def _bind(self, index, conditions, pivot):
        """Work out how ``index`` can serve one get over its segment."""
        by_field = {c.field.id: c for c in conditions}
        served = []
        eq_fields = []
        per_binding_raw = self.planner.entries_of(index)
        # IN predicates bind a key column as a k-way multi-get: each of
        # the k requests narrows like an equality, and the request count
        # multiplies by k
        binding_factor = 1.0
        for field in index.hash_fields:
            if pivot is not None and field is pivot:
                eq_fields.append(field)
                per_binding_raw /= max(field.parent.count, 1)
                continue
            condition = by_field.get(field.id)
            if condition is None or not condition.is_bindable:
                return None
            served.append(condition)
            eq_fields.append(field)
            per_binding_raw *= condition.selectivity \
                / condition.cardinality
            binding_factor *= condition.cardinality
        # clustering prefix: bind equalities (and INs) greedily, then
        # one range
        position = 0
        order_fields = index.order_fields
        while position < len(order_fields):
            condition = by_field.get(order_fields[position].id)
            if condition is None or not condition.is_bindable \
                    or condition in served:
                break
            served.append(condition)
            eq_fields.append(order_fields[position])
            per_binding_raw *= condition.selectivity \
                / condition.cardinality
            binding_factor *= condition.cardinality
            position += 1
        eq_prefix_end = position
        range_condition = None
        if position < len(order_fields):
            condition = by_field.get(order_fields[position].id)
            if condition is not None and condition.is_range:
                range_condition = condition
                served.append(condition)
                per_binding_raw *= condition.selectivity
                position += 1
        # results come back sorted by the clustering columns that follow
        # the equality-bound prefix (a bound range column still orders its
        # rows), so the ordering is served when those columns lead with
        # the query's ORDER BY list
        remaining = tuple(order_fields[eq_prefix_end:])
        # a multi-get (IN binding) interleaves its requests' rows, so it
        # cannot serve the ordering even when the clustering order fits
        order_served = bool(self.order_by) \
            and remaining[:len(self.order_by)] == self.order_by \
            and binding_factor == 1.0
        filters = []
        pending = []
        for condition in conditions:
            if condition in served:
                continue
            if index.contains_field(condition.field):
                filters.append(condition)
            else:
                pending.append(condition)
        return _Binding(tuple(eq_fields), range_condition, tuple(filters),
                        tuple(pending), tuple(served), per_binding_raw,
                        order_served, binding_factor)

    def _emit(self, index, segment, binding, position, end, steps,
              cardinality, consumed, available, order_served):
        """Create the lookup (+ filter/fetch) steps and recurse."""
        bindings = cardinality * binding.binding_factor
        raw_rows = max(bindings * binding.per_binding_raw, 0.0)
        out = raw_rows
        new_steps = list(steps)
        lookup = IndexLookupStep(
            index, bindings, raw_rows, out,
            eq_fields=binding.eq_fields,
            range_field=(binding.range_condition.field
                         if binding.range_condition else None),
            order_served=binding.order_served)
        new_steps.append(lookup)
        new_available = set(available)
        new_available.update(f.id for f in index.all_fields)
        new_consumed = set(consumed)
        new_consumed.update(c.field.id for c in binding.served)
        if binding.filters:
            filtered = out
            for condition in binding.filters:
                filtered *= condition.selectivity
                new_consumed.add(condition.field.id)
            new_steps.append(FilterStep(binding.filters, out, filtered))
            out = filtered
        # the first (and only) lookup of a plan can serve the ordering;
        # later joins interleave partitions and lose it
        new_order = binding.order_served if position < 0 else False
        fetch_groups = self._fetch_options(binding.pending, new_available)
        if fetch_groups is None:
            return
        for fetch_combo in fetch_groups:
            if len(self.plans) >= self.max_plans:
                self.truncated = True
                return
            combo_steps = list(new_steps)
            combo_out = out
            combo_consumed = set(new_consumed)
            combo_available = set(new_available)
            for fetch_index, fetch_conditions in fetch_combo:
                fetch = IndexLookupStep(
                    fetch_index, combo_out, combo_out, combo_out,
                    eq_fields=fetch_index.hash_fields, is_fetch=True)
                combo_steps.append(fetch)
                combo_available.update(
                    f.id for f in fetch_index.all_fields)
                filtered = combo_out
                for condition in fetch_conditions:
                    filtered *= condition.selectivity
                    combo_consumed.add(condition.field.id)
                combo_steps.append(
                    FilterStep(fetch_conditions, combo_out, filtered))
                combo_out = filtered
            self.advance(end, tuple(combo_steps), max(combo_out, 0.0),
                         frozenset(combo_consumed),
                         frozenset(combo_available), new_order)

    def _fetch_options(self, pending, available):
        """Ways to resolve pending predicates via point lookups.

        Returns a list of alternatives, each a tuple of
        ``(fetch index, conditions filtered after it)``; None when some
        predicate cannot be resolved with the current pool.
        """
        if not pending:
            return [()]
        by_entity = {}
        for condition in pending:
            by_entity.setdefault(condition.field.parent, []).append(condition)
        per_entity_options = []
        for entity, conditions in by_entity.items():
            if entity.id_field.id not in available:
                return None
            fields = [c.field for c in conditions]
            options = self.planner.fetch_indexes(entity, fields)
            if not options:
                return None
            per_entity_options.append(
                [(index, tuple(conditions)) for index in options])
        return [tuple(combo) for combo
                in itertools.product(*per_entity_options)]

    # -- plan completion ---------------------------------------------------------

    def _finalize(self, steps, cardinality, available, order_served):
        """Resolve remaining select fields, ordering and limit; record."""
        select = tuple(getattr(self.query, "select", ()))
        needed = dict.fromkeys(select)
        if self.order_by and not order_served:
            # a client-side sort needs the ordering attributes fetched
            needed.update(dict.fromkeys(self.order_by))
        missing = [f for f in needed if f.id not in available]
        variants = [()]
        if missing:
            by_entity = {}
            for field in missing:
                by_entity.setdefault(field.parent, []).append(field)
            per_entity = []
            for entity, fields in by_entity.items():
                if entity.id_field.id not in available:
                    return
                options = self.planner.fetch_indexes(entity, fields)
                if not options:
                    return
                per_entity.append(options)
            variants = [tuple(combo)
                        for combo in itertools.product(*per_entity)]
        # compute each variant's signature from the step skeleton and skip
        # duplicates before building any step or plan objects — distinct
        # DFS branches converge on the same plan far more often than not,
        # so most variants never get past this string check
        prefix_parts = []
        for step in steps:
            if isinstance(step, IndexLookupStep):
                prefix_parts.append(f"L:{step.index.key}")
            else:
                prefix_parts.append(type(step).__name__[0])
        needs_sort = bool(self.order_by) and not order_served
        limit = getattr(self.query, "limit", None)
        aggregated = getattr(self.query, "is_aggregate", False)
        suffix_parts = ([SortStep.__name__[0]] if needs_sort else []) \
            + ([AggregateStep.__name__[0]] if aggregated else []) \
            + ([LimitStep.__name__[0]] if limit is not None else [])
        last_variant = len(variants) - 1
        for variant, fetch_indexes in enumerate(variants):
            parts = list(prefix_parts)
            parts.extend(f"L:{fetch_index.key}"
                         for fetch_index in fetch_indexes)
            parts.extend(suffix_parts)
            signature = "|".join(parts)
            if signature not in self.plans:
                final_steps = list(steps)
                out = cardinality
                for fetch_index in fetch_indexes:
                    final_steps.append(IndexLookupStep(
                        fetch_index, out, out, out,
                        eq_fields=fetch_index.hash_fields, is_fetch=True))
                if needs_sort:
                    final_steps.append(SortStep(self.order_by, out))
                if aggregated:
                    groups = min(self.query.group_rows, max(out, 1.0))
                    final_steps.append(AggregateStep(
                        self.query.group_by, self.query.aggregates,
                        out, groups))
                    out = groups
                if limit is not None:
                    final_steps.append(LimitStep(limit, out))
                self.plans[signature] = QueryPlan(self.query, final_steps)
            if len(self.plans) >= self.max_plans:
                if variant < last_variant:
                    self.truncated = True
                return
