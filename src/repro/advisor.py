"""The NoSE schema advisor facade (Fig 2 / Fig 4 of the paper).

Wires the four stages together — candidate enumeration, query planning,
schema optimization, plan recommendation — and records a wall-clock
breakdown per stage so the Fig 13 runtime-decomposition experiment can
be reproduced (cost calculation / BIP construction / BIP solving /
other).

The pipeline is staged and cached: :meth:`Advisor.prepare` runs
enumeration and plan-space generation and caches the result keyed by
the *structure* of the workload's active statements, and
:meth:`Advisor.recommend_prepared` runs costing, pruning and the BIP.
Weight-only changes — the repeated-tuning scenario of time-dependent
workloads — therefore skip enumeration and planning entirely and
re-solve a re-costed program.  :meth:`Advisor.recommend` remains the
one-shot entry point as a thin wrapper over the two stages.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

from repro import dominance, telemetry
from repro.cost import CassandraCostModel
from repro.enumerator import CandidateEnumerator
from repro.enumerator.support import modifies
from repro.exceptions import TruncationWarning
from repro.explain import ExplainData, prune_record
from repro.optimizer import BIPOptimizer, OptimizationProblem
from repro.optimizer.results import SchemaRecommendation
from repro.parallel import parallel_map
from repro.pipeline import (
    ArtifactStore,
    PlanArtifact,
    UpdatePlanArtifact,
)
from repro.planner import QueryPlanner, UpdatePlanner
from repro.planner.plans import UpdatePlan
from repro.workload.digest import statement_signature

__all__ = [
    "Advisor",
    "AdvisorTiming",
    "PreparedWorkload",
    "SchemaRecommendation",
    "prune_plan_space",
]

logger = logging.getLogger("repro.advisor")


def prune_plan_space(plans, removals=None):
    """Dominance-prune one statement's plan space for the optimizer.

    Keeps the cheapest plan per distinct column-family set
    (:func:`repro.dominance.dedupe_cheapest`), then drops any plan
    whose column-family set is a proper superset of a cheaper (or
    equal-cost) kept plan's: wherever the superset plan is feasible the
    subset plan is too, using no more storage and costing no more, so
    the superset plan appears in no optimal solution — the argument
    holds under a space limit and for the schema-minimising second
    solve as well.  This typically halves the BIP's plan columns.
    Nothing else is dropped: a plan dearer on its own can still be the
    cheapest once the column families it reads are shared, so the
    optimizer sees every plan these rules keep.
    ``removals`` receives one pruning-ledger entry per dropped plan.
    """
    plans = list(plans)
    pruned = dominance.dedupe_cheapest(plans, removals=removals)
    kept = dominance.superset_filter(pruned, removals=removals)
    active = telemetry.current()
    if active.enabled:
        active.count("prune.plans_in", len(plans))
        active.count("prune.removed_duplicate_cfset",
                      len(plans) - len(pruned))
        active.count("prune.removed_superset", len(pruned) - len(kept))
        active.count("prune.plans_out", len(kept))
    return kept


@dataclass
class AdvisorTiming:
    """Wall-clock seconds spent in each advisor stage.

    ``cost_calculation``, ``bip_construction`` and ``bip_solving`` match
    the three named components of the paper's Fig 13; enumeration,
    planning, dominance pruning and result extraction form the figure's
    "other" share, each attributed to its own bucket so no stage time
    lands unaccounted between buckets.  ``bip_construction`` covers
    problem assembly plus program construction (or re-costing on a
    cache hit); ``recommendation`` is result extraction.  Stages that a
    prepared-workload cache hit skips report zero.
    """

    enumeration: float = 0.0
    planning: float = 0.0
    cost_calculation: float = 0.0
    pruning: float = 0.0
    bip_construction: float = 0.0
    bip_solving: float = 0.0
    recommendation: float = 0.0
    total: float = 0.0
    candidates: int = 0
    query_plan_count: int = 0
    support_plan_count: int = 0
    #: cache hits serving this call: 1 when the prepared workload came
    #: from the advisor's structural cache, plus lookup-cost memo hits
    #: during this call's costing pass
    cache_hits: int = 0
    #: statements (incl. support queries) whose plan space was capped
    truncated_queries: int = 0
    #: statements whose plan spaces were served from the per-statement
    #: artifact store during this call's prepare (delta reuse)
    reused_statements: int = 0
    #: statements actually re-enumerated/re-planned during prepare
    replanned_statements: int = 0
    #: statement signature classes the program solved (statements
    #: sharing one plan space are solved once, with summed weight)
    statement_classes: int = 0
    #: how the schema-minimising second solve ended: "finished",
    #: "time-limit" (phase-1 solution kept), "failed" or "skipped";
    #: None until a solve fills it
    phase2_outcome: str | None = None

    @property
    def other(self):
        """Everything outside the three Fig 13 named components."""
        named = (self.cost_calculation + self.bip_construction
                 + self.bip_solving)
        return max(self.total - named, 0.0)

    def stage_breakdown(self):
        """Disjoint wall-clock buckets that partition ``total``.

        Every named stage appears exactly once, and the residual
        ``other`` bucket covers only the bookkeeping *between* stages —
        so the values sum to ``total`` (to float precision) and the row
        is safe to stack in a chart or to re-aggregate.  Contrast
        :meth:`as_figure13_row`, whose coarser ``other`` bucket *rolls
        up* several named stages for the paper's figure.
        """
        stages = {
            "enumeration": self.enumeration,
            "planning": self.planning,
            "cost_calculation": self.cost_calculation,
            "pruning": self.pruning,
            "bip_construction": self.bip_construction,
            "bip_solving": self.bip_solving,
            "recommendation": self.recommendation,
        }
        stages["other"] = max(self.total - sum(stages.values()), 0.0)
        return stages

    def as_figure13_row(self):
        """The four series of Fig 13 for one workload size.

        The figure names cost calculation, BIP construction and BIP
        solving; everything else — enumeration, planning, pruning,
        result extraction and inter-stage bookkeeping — is its
        ``other`` share.  The four buckets partition ``total``.
        """
        stages = self.stage_breakdown()
        return {
            "cost_calculation": stages["cost_calculation"],
            "bip_construction": stages["bip_construction"],
            "bip_solving": stages["bip_solving"],
            "other": (stages["enumeration"] + stages["planning"]
                      + stages["pruning"] + stages["recommendation"]
                      + stages["other"]),
            "total": self.total,
        }


class PreparedWorkload:
    """Reusable product of the enumeration and planning stages.

    Created by :meth:`Advisor.prepare` for one workload *structure*
    (weights excluded).  Besides the candidate pool and raw plan
    spaces, it accumulates the weight-independent downstream artifacts
    — costed and pruned plan spaces, and one constructed program per
    space limit — as :meth:`Advisor.recommend_prepared` produces them,
    so repeated solves over the same structure redo only the cost
    vector and the solve itself.
    """

    def __init__(self, key, workload, candidates, query_plans,
                 update_plans, enumeration_seconds=0.0,
                 planning_seconds=0.0, plan_artifacts=None,
                 update_artifacts=None):
        self.key = key
        #: the workload last prepared/looked-up with this structure;
        #: supplies default weights to recommend_prepared
        self.workload = workload
        self.candidates = candidates
        #: {query: PlanSpace} — raw, unpruned plan spaces
        self.query_plans = dict(query_plans)
        #: {update: [UpdatePlan]} — raw maintenance plans
        self.update_plans = dict(update_plans)
        self.enumeration_seconds = enumeration_seconds
        self.planning_seconds = planning_seconds
        #: {query: PlanArtifact} — store entries backing query_plans;
        #: costed/pruned derivatives ride here for cross-prepare reuse
        self.plan_artifacts = dict(plan_artifacts or {})
        #: {update: [UpdatePlanArtifact]} — parallel to update_plans
        self.update_artifacts = dict(update_artifacts or {})
        #: delta accounting for the prepare that produced (or served)
        #: this object; mirrored into AdvisorTiming per recommend
        self.reused_statements = 0
        self.replanned_statements = 0
        #: statements (queries and support queries) whose enumeration
        #: hit the planner's plan cap
        truncated = [query for query, space in self.query_plans.items()
                     if getattr(space, "truncated", False)]
        for plans in self.update_plans.values():
            for update_plan in plans:
                truncated.extend(update_plan.truncated_support)
        self.truncated = tuple(truncated)
        #: times this prepared workload was served from the cache
        self.reuse_count = 0
        # lazily filled by Advisor.recommend_prepared
        self._fresh = True
        self._costed_by = None
        self._cost_seconds = 0.0
        self._cost_cache_hits = 0
        self._pruned_query_plans = None
        self._pruned_update_plans = None
        self._pruning_seconds = 0.0
        #: {statement label: pruning record} — filled during pruning
        self._prune_ledger = {}
        self._programs = {}

    def consume_fresh(self):
        """True on the first call after actual enumeration/planning —
        the caller then attributes those stage timings to itself."""
        fresh, self._fresh = self._fresh, False
        return fresh

    @property
    def plan_count(self):
        return sum(len(space) for space in self.query_plans.values())

    def __repr__(self):
        return (f"PreparedWorkload(candidates={len(self.candidates)}, "
                f"queries={len(self.query_plans)}, "
                f"updates={len(self.update_plans)}, "
                f"reused={self.reuse_count})")


def _own_record(record, label):
    """A signature class's shared pruning record, under one member's
    label."""
    if record["statement"] == label:
        return record
    return dict(record, statement=label)


def _own_records(records, update_plan, update):
    """Support-query pruning records of a shared maintenance plan,
    keyed by ``update``'s own support-query labels."""
    own = {}
    for support, mine in update_plan.support_queries_of(update).items():
        record = records.get(support.label or str(support))
        if record is not None:
            label = mine.label or str(mine)
            own[label] = _own_record(record, label)
    return own


def _statement_key(statement):
    """A structural identity for one statement.

    Covers everything enumeration and planning look at — statement
    type, label, path, predicates, selected/ordered fields, settings —
    and deliberately excludes weights and parameter names, so workloads
    differing only in weights share a prepared workload.
    """
    parts = [
        type(statement).__name__,
        statement.label or "",
        statement.key_path.signature,
        tuple((condition.field.id, condition.operator)
              for condition in statement.conditions),
    ]
    select = getattr(statement, "select", None)
    if select is not None:
        parts.append(tuple(field.id for field in select))
        parts.append(tuple(field.id
                           for field in getattr(statement, "order_by", ())))
        parts.append(getattr(statement, "limit", None))
    settings = getattr(statement, "settings", None)
    if settings is not None:
        parts.append(tuple(sorted(field.id for field in settings)))
    connections = getattr(statement, "connections", None)
    if connections is not None:
        parts.append(tuple(sorted(key.id for key, _ in connections)))
    return tuple(parts)


class Advisor:
    """End-to-end schema advisor.

    >>> advisor = Advisor(model)
    >>> recommendation = advisor.recommend(workload)
    >>> print(recommendation.describe())

    For repeated solves over the same statements with changing weights,
    either keep calling :meth:`recommend` (the structural cache makes
    repeats cheap) or drive the stages explicitly::

    >>> prepared = advisor.prepare(workload)
    >>> for weights in weight_epochs:
    ...     advisor.recommend_prepared(prepared, weights=weights)

    ``cost_model`` defaults to the Cassandra-style model.  ``enumerator``
    is a configured :class:`~repro.enumerator.CandidateEnumerator` and
    ``optimizer`` a configured :class:`~repro.optimizer.BIPOptimizer`
    (the ablation studies pass their own settings); both default to
    the paper's configuration.
    """

    def __init__(self, model, cost_model=None, enumerator=None,
                 optimizer=None, max_plans=500, cache_size=8,
                 artifact_cache_size=4096):
        self.model = model
        self.cost_model = cost_model or CassandraCostModel()
        self.enumerator = enumerator or CandidateEnumerator(model)
        self.optimizer = optimizer or BIPOptimizer()
        self.max_plans = max_plans
        #: prepared workloads kept (FIFO-evicted), keyed by structure
        self.cache_size = cache_size
        self._prepared = {}
        #: per-statement artifacts (enumeration, plan spaces,
        #: maintenance plans), keyed by structural signature + stage
        #: config; every prepare — cold or incremental — goes through
        #: it, so editing one statement replans only that statement
        self.artifacts = ArtifactStore(artifact_cache_size)

    # -- main entry point ----------------------------------------------------

    def recommend(self, workload, space_limit=None, warm_start=None):
        """Recommend a schema and one plan per statement for a workload.

        A thin wrapper over :meth:`prepare` + :meth:`recommend_prepared`:
        repeated calls with structurally identical workloads (weight
        changes included) reuse the cached plan spaces and program and
        only re-cost and re-solve.  ``warm_start`` optionally passes a
        previous recommendation (or iterable of column families) as an
        incumbent — see :meth:`recommend_prepared`.
        """
        with telemetry.current().span("recommend"):
            prepared = self.prepare(workload)
            return self.recommend_prepared(prepared, weights=workload,
                                           space_limit=space_limit,
                                           warm_start=warm_start)

    # -- stage 1: enumeration + planning -------------------------------------

    def _workload_key(self, workload):
        statements = tuple(_statement_key(statement) for statement, _
                           in workload.weighted_statements)
        return (statements, self.max_plans)

    def prepare(self, workload):
        """Enumerate candidates and generate per-statement plan spaces.

        Preparation is incremental at two levels.  Whole prepared
        workloads are cached on the advisor keyed by the structure of
        the workload's active statements — weights are excluded, so any
        workload differing only in (positive) weights is served with
        enumeration and planning skipped entirely.  Below that, every
        prepare runs through the advisor's per-statement artifact
        store: enumeration results, plan spaces and maintenance plans
        are keyed by structural statement signature plus stage
        configuration, so after an edit only the changed statements are
        re-enumerated and re-planned while unchanged ones are served
        from the store (only the cross-statement Combine step and the
        BIP look across statements and always re-run).  Cold and
        incremental prepares share this one code path — a fresh advisor
        simply starts with an empty store — so incremental results are
        identical to cold ones by construction.
        """
        active = telemetry.current()
        key = self._workload_key(workload)
        prepared = self._prepared.get(key)
        if prepared is not None:
            prepared.reuse_count += 1
            prepared._fresh = False
            prepared.workload = workload
            total = (len(prepared.query_plans)
                     + len(prepared.update_plans))
            prepared.reused_statements = total
            prepared.replanned_statements = 0
            active.count("advisor.prepared_cache_hits")
            active.count("advisor.delta_reused_statements", total)
            return prepared
        active.count("advisor.prepared_cache_misses")

        with active.span("enumeration"):
            started = time.perf_counter()
            candidates = self.enumerator.candidates(
                workload, store=self.artifacts)
            enumeration_seconds = time.perf_counter() - started

        with active.span("planning"):
            stage = time.perf_counter()
            planner = QueryPlanner(self.model, candidates,
                                   max_plans=self.max_plans)
            update_planner = UpdatePlanner(self.model, planner)
            plan_artifacts = {}
            query_plans, reused_queries = self._plan_queries(
                workload.queries, planner, plan_artifacts)
            update_artifacts = {}
            update_plans, reused_updates = self._plan_updates(
                workload.updates, planner, update_planner,
                update_artifacts)
            planning_seconds = time.perf_counter() - stage

        prepared = PreparedWorkload(key, workload, candidates,
                                    query_plans, update_plans,
                                    enumeration_seconds,
                                    planning_seconds,
                                    plan_artifacts=plan_artifacts,
                                    update_artifacts=update_artifacts)
        reused = reused_queries + reused_updates
        replanned = len(query_plans) + len(update_plans) - reused
        prepared.reused_statements = reused
        prepared.replanned_statements = replanned
        active.count("advisor.delta_reused_statements", reused)
        active.count("advisor.delta_replanned_statements", replanned)
        if active.enabled:
            active.gauge("enumeration.pool_size", len(candidates))
            active.gauge("planner.query_plan_count", prepared.plan_count)
            active.count("planner.truncated_statements",
                         len(prepared.truncated))
        self._warn_truncation(prepared)
        if len(self._prepared) >= self.cache_size:
            self._prepared.pop(next(iter(self._prepared)))
        self._prepared[key] = prepared
        return prepared

    def _plan_queries(self, queries, planner, artifacts):
        """Per-query plan spaces: ``({query: space}, reused count)``.

        A query's plan space is a pure function of its structure, the
        planner's plan cap and the pool subset its plans can touch —
        the artifact key captures exactly that (see
        :meth:`~repro.planner.QueryPlanner.relevant_pool_key`), so a
        cached space is served even when unrelated parts of the pool
        changed.  Labels are not part of the key: the queries of one
        signature class share one artifact, planned once for the first
        of them (whose plans name it as their query; see
        :meth:`~repro.planner.plans.QueryPlan.bind`).  Store hits are
        resolved first; the misses are then planned once per class, and
        stored in workload order.
        """
        store = self.artifacts
        missing = {}  # key -> the queries of one signature class
        reused = 0
        for query in queries:
            key = ("plan", statement_signature(query), planner.max_plans,
                   planner.relevant_pool_key(query))
            artifact = store.get(key)
            if artifact is None:
                missing.setdefault(key, []).append(query)
            else:
                artifacts[query] = artifact
                reused += 1
        planned = parallel_map(
            lambda members: planner.plans_for(members[0]),
            list(missing.values()))
        for (key, members), space in zip(missing.items(), planned):
            artifact = PlanArtifact(space)
            store.put(key, artifact)
            for query in members:
                artifacts[query] = artifact
        spaces = {query: artifacts[query].space for query in queries}
        return spaces, reused

    def _plan_updates(self, updates, planner, update_planner,
                      artifacts):
        """Maintenance plans: ``({update: [UpdatePlan]}, reused count)``.

        One artifact per (update, modified column family) pair, keyed
        by the update's signature, the column family, the support-plan
        cap and a fingerprint of the pool subset each support query can
        touch; the updates of one signature class share it.  An update
        counts as reused only when every one of its pairs was served
        from the store.

        A first pass walks the pool, resolves keys and serves store
        hits; the misses — the actual support-query planning — are then
        planned once per distinct key, one (update, column family) pair
        per work item, and stored.
        """
        store = self.artifacts
        pool = planner.pool
        slots = []     # (update, [artifact | position into missing])
        stale = set()  # updates with at least one store miss
        missing = []   # (update, index, supports, key) work items
        positions = {}  # key -> position into missing
        for update in updates:
            signature = statement_signature(update)
            pairs = []
            for index in pool:
                if not modifies(update, index):
                    continue
                supports = update_planner.support_queries_for(update,
                                                              index)
                fingerprint = tuple(planner.relevant_pool_key(support)
                                    for support in supports)
                key = ("update-plan", signature, index.key,
                       update_planner.max_support_plans, fingerprint)
                artifact = store.get(key)
                if artifact is None:
                    stale.add(update)
                    if key not in positions:
                        positions[key] = len(missing)
                        missing.append((update, index, supports, key))
                    pairs.append(positions[key])
                else:
                    pairs.append(artifact)
            slots.append((update, pairs))
        planned = parallel_map(
            lambda item: update_planner.plan_one(item[0], item[1],
                                                 supports=item[2]),
            missing)
        fresh = []
        for (update, index, supports, key), plan in zip(missing,
                                                        planned):
            artifact = UpdatePlanArtifact(plan)
            store.put(key, artifact)
            fresh.append(artifact)
        update_plans = {}
        reused = 0
        for update, pairs in slots:
            resolved = [pair if isinstance(pair, UpdatePlanArtifact)
                        else fresh[pair] for pair in pairs]
            artifacts[update] = resolved
            update_plans[update] = [artifact.plan
                                    for artifact in resolved]
            if update not in stale:
                reused += 1
        return update_plans, reused

    def _warn_truncation(self, prepared):
        """Warn when a *workload query's* plan space was capped.

        Support-query spaces are deliberately dense-capped
        (``max_support_plans``), so their truncation is routine; it is
        surfaced through ``timing.truncated_queries`` and the per-plan
        ``truncated_support`` flags rather than a warning.
        """
        capped = [statement for statement in prepared.truncated
                  if not getattr(statement, "is_support", False)]
        if not capped:
            return
        labels = sorted({statement.label or repr(statement)
                         for statement in capped})
        shown = ", ".join(labels[:5]) + (", ..." if len(labels) > 5
                                         else "")
        message = (f"plan enumeration hit the planner's plan cap for "
                   f"{len(labels)} statement(s) ({shown}); the plan "
                   f"space may be incomplete — raise max_plans for an "
                   f"exhaustive search")
        # emitted both ways: a warning for interactive use, a log
        # record so library users get signal without filtering warnings
        logger.warning("%s", message)
        warnings.warn(TruncationWarning(message), stacklevel=3)

    def clear_cache(self):
        """Drop all cached prepared workloads."""
        self._prepared.clear()

    # -- stage 2: costing + pruning + optimization ----------------------------

    def _resolve_weights(self, prepared, weights):
        if weights is None:
            weights = prepared.workload
        if hasattr(weights, "weighted_statements"):
            weights = {statement.label: weight
                       for statement, weight in weights.weighted_statements}
        return dict(weights)

    def recommend_prepared(self, prepared, weights=None,
                           space_limit=None, warm_start=None):
        """Cost, prune and solve a prepared workload.

        ``weights`` maps statement labels to weights; a
        :class:`~repro.workload.Workload` may be passed instead (its
        active mix is read), and the default is the workload the
        structure was last prepared from.  Costing, dominance pruning
        and program construction all cache on ``prepared``: after the
        first solve, a weight change rebuilds only the program's cost
        vector and re-solves.

        ``warm_start`` optionally passes a previous
        :class:`SchemaRecommendation` (or any iterable of column
        families / keys): the previous schema is evaluated as a
        feasible incumbent and its cost bounds the new solve.  The
        bound can change which of several *equal-cost* optima the
        solver returns, so warm starting is opt-in; leave it unset when
        byte-identical reproducibility across runs matters more than
        solve time.
        """
        timing = AdvisorTiming()
        started = time.perf_counter()
        weights = self._resolve_weights(prepared, weights)

        if prepared.consume_fresh():
            timing.enumeration = prepared.enumeration_seconds
            timing.planning = prepared.planning_seconds
        else:
            timing.cache_hits += 1
        timing.candidates = len(prepared.candidates)
        timing.truncated_queries = len(prepared.truncated)
        timing.query_plan_count = prepared.plan_count
        timing.support_plan_count = sum(
            len(update_plan.support_plans)
            for plans in prepared.update_plans.values()
            for update_plan in plans)
        timing.reused_statements = prepared.reused_statements
        timing.replanned_statements = prepared.replanned_statements

        query_plans, update_plans = self.pruned_plans(prepared, timing)
        recommendation = self._optimize_prepared(
            prepared, query_plans, update_plans, weights, space_limit,
            timing, warm_start=warm_start)
        recommendation.timing = timing
        # decision provenance: candidate derivations from enumeration,
        # the dominance-pruning ledger, and the cost model for per-step
        # explain terms (the BIP attached its own ledger in extraction)
        recommendation.explain_data = ExplainData(
            provenance=getattr(prepared.candidates, "provenance", None),
            pruning=prepared._prune_ledger,
            cost_model=self.cost_model)
        timing.total = (time.perf_counter() - started
                        + timing.enumeration + timing.planning)
        return recommendation

    def pruned_plans(self, prepared, timing=None):
        """The costed, dominance-pruned plan spaces of ``prepared``.

        Returns ``(query_plans, update_plans)``, the optimizer's input:
        every prepared statement's pruned plan list, and every update's
        maintenance plans for reachable column families (support plans
        pruned).  Costing and pruning run once per cost model and cache
        on ``prepared``; ``timing`` (an :class:`AdvisorTiming`) receives
        their seconds.
        """
        if timing is None:
            timing = AdvisorTiming()
        self._cost_prepared(prepared, timing)
        self._prune_prepared(prepared, timing)
        return prepared._pruned_query_plans, prepared._pruned_update_plans

    def _cost_prepared(self, prepared, timing):
        """Cost all plans once per cost model (plan costs are
        weight-independent).  Costing *mutates* the shared plan objects
        in place (step costs, the per-plan cost cache), so each space
        shared by a signature class is costed once.  Plans whose
        artifact was already costed by this model (in an earlier
        prepare sharing the artifact) are skipped — their step costs
        are already in place."""
        if prepared._costed_by == id(self.cost_model):
            return
        active = telemetry.current()
        model_id = id(self.cost_model)
        with active.span("cost_calculation"):
            stage = time.perf_counter()
            hits_before, misses_before, _ = self.cost_model.cache_info()

            def cost_space(space):
                for plan in space:
                    self.cost_model.cost_plan(plan)

            def cost_update_space(plans):
                for update_plan in plans:
                    self.cost_model.cost_update_plan(update_plan)

            # a signature class shares its spaces: cost each once
            query_spaces = {}
            for query, space in prepared.query_plans.items():
                artifact = prepared.plan_artifacts.get(query)
                if artifact is not None \
                        and artifact.costed_by == model_id:
                    continue
                query_spaces.setdefault(id(space), space)
            query_spaces = list(query_spaces.values())
            update_spaces = []
            queued = set()
            for update, plans in prepared.update_plans.items():
                pairs = prepared.update_artifacts.get(update)
                if pairs:
                    plans = [artifact.plan for artifact in pairs
                             if artifact.costed_by != model_id]
                pending = [plan for plan in plans
                           if id(plan) not in queued]
                queued.update(map(id, pending))
                if pending:
                    update_spaces.append(pending)
            parallel_map(cost_space, query_spaces)
            parallel_map(cost_update_space, update_spaces)
            for artifact in prepared.plan_artifacts.values():
                artifact.costed_by = model_id
            for pairs in prepared.update_artifacts.values():
                for artifact in pairs:
                    artifact.costed_by = model_id
            prepared._costed_by = model_id
            # costs changed: downstream artifacts are stale
            prepared._pruned_query_plans = None
            prepared._pruned_update_plans = None
            prepared._programs.clear()
            prepared._cost_seconds = time.perf_counter() - stage
            hits, misses, _ = self.cost_model.cache_info()
            prepared._cost_cache_hits = hits - hits_before
        if active.enabled:
            active.count("cost.cache_hits", hits - hits_before)
            active.count("cost.cache_misses", misses - misses_before)
            self.cost_model.record_metrics(active)
        timing.cost_calculation = prepared._cost_seconds
        timing.cache_hits += prepared._cost_cache_hits

    @staticmethod
    def _pruned_hit(artifact, pruned_key):
        """True when an artifact already carries pruning results for
        this cost model."""
        return artifact is not None and artifact.pruned_key == pruned_key

    def _prune_prepared(self, prepared, timing):
        """Dominance-prune every distinct plan space once, and fill the
        pruning ledger in workload order with one record per statement.
        """
        if prepared._pruned_query_plans is not None:
            return
        active = telemetry.current()
        with active.span("pruning"):
            stage = time.perf_counter()
            ledger = prepared._prune_ledger
            # pruned results are a pure function of costed plans, so
            # artifacts costed+pruned under the same model serve their
            # pruned plans and ledger records as-is.
            pruned_key = id(self.cost_model)
            reused_prunes = 0

            def prune_query(item):
                query, plans = item
                removals = []
                kept = prune_plan_space(plans, removals=removals)
                return kept, prune_record(query, len(plans), len(kept),
                                          removals)

            # hit/miss is decided once up front; the statements of one
            # signature class share their artifact, so each distinct
            # space is pruned once and its record relabelled per member
            query_items = []
            pending = {}
            for query, plans in prepared.query_plans.items():
                artifact = prepared.plan_artifacts.get(query)
                hit = self._pruned_hit(artifact, pruned_key)
                query_items.append((query, plans, artifact, hit))
                if not hit:
                    pending.setdefault(id(plans), (query, plans))
            pruned = dict(zip(pending, parallel_map(
                prune_query, list(pending.values()))))
            pruned_query_plans = {}
            for query, plans, artifact, hit in query_items:
                if hit:
                    kept, record = artifact.pruned, artifact.record
                    reused_prunes += 1
                else:
                    kept, record = pruned[id(plans)]
                    if artifact is not None:
                        artifact.pruned = kept
                        artifact.record = record
                        artifact.pruned_key = pruned_key
                pruned_query_plans[query] = kept
                label = query.label or str(query)
                ledger[label] = _own_record(record, label)
            prepared._pruned_query_plans = pruned_query_plans

            def prune_update(update_plan):
                records = {}
                pruned_plan = self._prune_update_plan(update_plan,
                                                      records)
                return pruned_plan, records

            update_items = []
            pending = {}
            for update, plans in prepared.update_plans.items():
                pairs = prepared.update_artifacts.get(update)
                rows = []
                for position, update_plan in enumerate(plans):
                    artifact = pairs[position] if pairs else None
                    hit = self._pruned_hit(artifact, pruned_key)
                    rows.append((update_plan, artifact, hit))
                    if not hit:
                        pending.setdefault(id(update_plan), update_plan)
                update_items.append((update, rows))
            pruned = dict(zip(pending, parallel_map(
                prune_update, list(pending.values()))))
            pruned_updates = {}
            for update, rows in update_items:
                pruned_plans = []
                for update_plan, artifact, hit in rows:
                    if hit:
                        pruned_plan = artifact.pruned
                        records = artifact.records
                        reused_prunes += 1
                    else:
                        pruned_plan, records = pruned[id(update_plan)]
                        if artifact is not None:
                            artifact.pruned = pruned_plan
                            artifact.records = dict(records)
                            artifact.pruned_key = pruned_key
                    pruned_plans.append(pruned_plan)
                    if update is not pruned_plan.update:
                        records = _own_records(records, pruned_plan,
                                               update)
                    ledger.update(records)
                pruned_updates[update] = pruned_plans
            prepared._pruned_update_plans = \
                dominance.reachable_update_plans(
                    prepared._pruned_query_plans, pruned_updates)
            prepared._pruning_seconds = time.perf_counter() - stage
        if active.enabled:
            active.count("prune.spaces_reused", reused_prunes)
            before = sum(len(plans)
                         for plans in pruned_updates.values())
            after = sum(len(plans) for plans
                        in prepared._pruned_update_plans.values())
            active.count("prune.update_plans_removed_unreachable",
                         before - after)
        timing.pruning = prepared._pruning_seconds

    def _optimize_prepared(self, prepared, query_plans, update_plans,
                           weights, space_limit, timing, warm_start=None):
        active = telemetry.current()
        stage = time.perf_counter()
        with active.span("bip_construction") as span:
            program = prepared._programs.get(space_limit)
            if program is not None:
                self.optimizer.reweight(program, weights)
                active.count("bip.programs_reweighted")
                if span is not None:
                    span.set(mode="reweight")
            else:
                problem = OptimizationProblem(query_plans, update_plans,
                                              weights,
                                              space_limit=space_limit)
                program = self.optimizer.prepare(problem)
                prepared._programs[space_limit] = program
                active.count("bip.programs_built")
                if span is not None:
                    span.set(mode="build")
        timing.bip_construction = time.perf_counter() - stage

        stage = time.perf_counter()
        recommendation = self.optimizer.optimize(program,
                                                 warm_start=warm_start)
        solving = time.perf_counter() - stage
        # the program separates solver time from result extraction
        timing.bip_solving = max(solving - program.extract_seconds, 0.0)
        timing.recommendation = program.extract_seconds
        timing.statement_classes = program.statement_classes
        timing.phase2_outcome = program.phase2_outcome
        return recommendation

    def _prune_update_plan(self, update_plan, ledger=None):
        """Dominance-prune each support query's plan space."""
        pruned = []
        for query, plans in update_plan.support_plans_by_query.items():
            removals = [] if ledger is not None else None
            kept = prune_plan_space(plans, removals=removals)
            pruned.extend(kept)
            if ledger is not None:
                label = query.label or str(query)
                ledger[label] = prune_record(query, len(plans),
                                             len(kept), removals)
        return UpdatePlan(update_plan.update, update_plan.index, pruned,
                          update_plan.steps,
                          truncated_support=update_plan.truncated_support)

    # -- fixed-schema evaluation -------------------------------------------------

    def plan_for_schema(self, workload, indexes, require_updates=True):
        """Plan the workload against a fixed, user-supplied schema.

        Used to evaluate hand-designed schemas (the paper's "normalized"
        and "expert" baselines): no enumeration or optimization happens,
        the cheapest plan per statement over exactly ``indexes`` is
        chosen.  Raises :class:`~repro.exceptions.PlanningError` when the
        schema cannot answer the workload.
        """
        planner = QueryPlanner(self.model, indexes,
                               max_plans=self.max_plans)
        update_planner = UpdatePlanner(self.model, planner)
        query_plans = {}
        total = 0.0
        for query in workload.queries:
            plans = planner.plans_for(query)
            for plan in plans:
                self.cost_model.cost_plan(plan)
            chosen = min(plans, key=lambda plan: plan.cost)
            query_plans[query] = chosen
            total += workload.weight(query) * chosen.cost
        update_plans = {}
        for update in workload.updates:
            plans = update_planner.plans_for(update,
                                             require=require_updates)
            chosen_plans = []
            for update_plan in plans:
                self.cost_model.cost_update_plan(update_plan)
                chosen_support = []
                for support_plans in \
                        update_plan.support_plans_by_query.values():
                    chosen_support.append(
                        min(support_plans, key=lambda plan: plan.cost))
                chosen_plans.append(
                    UpdatePlan(update, update_plan.index, chosen_support,
                               update_plan.steps))
                total += workload.weight(update) * (
                    update_plan.update_cost
                    + sum(plan.cost for plan in chosen_support))
            update_plans[update] = chosen_plans
        weights = {statement.label: weight
                   for statement, weight in workload.weighted_statements}
        recommendation = SchemaRecommendation(indexes, query_plans,
                                              update_plans, weights, total)
        # a fixed schema has no enumeration provenance or solver ledger,
        # but explain() can still annotate plan steps with cost terms
        recommendation.explain_data = ExplainData(
            cost_model=self.cost_model)
        return recommendation
