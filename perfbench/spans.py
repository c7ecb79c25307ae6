"""Outside-in layer tracing for the benchmark.

Every layer of the program is measured by wrapping its public
functions from here, never by code inside ``src/``.  A wrapper opens a
span when the wrapped function is entered and closes it when it
returns.  Spans are aggregated as they close, so a long serve loop
costs constant memory:

* ``calls`` counts entries;
* ``busy`` sums the duration of the outermost span of each name (a
  span nested inside another of the same name adds nothing), so it is
  wall time during which the layer was active;
* ``exclusive`` sums each span's duration minus its direct children's,
  so every instant is charged to the innermost span open at the time.

Stats are kept per *region* (``setup``, ``cold``, ``warm``,
``windows``, ``evaluate``, ``serve``, ``check``), which the workload
switches as it moves between its steps.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class SpanStats:
    __slots__ = ("calls", "busy", "exclusive", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.exclusive = 0.0
        #: work counts recorded at this span's boundary (plans in/out,
        #: candidates, items ...)
        self.counts = defaultdict(float)


class Tracer:
    """Aggregating span recorder with monkeypatch-based wrappers."""

    def __init__(self):
        self.region = "setup"
        #: {region: {span name: SpanStats}}
        self.stats = defaultdict(lambda: defaultdict(SpanStats))
        #: one record per solver call (see :func:`instrument`)
        self.census = []
        self._stack = []  # [name, start, child seconds]
        self._depth = defaultdict(int)
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        stats = self.stats[self.region][name]
        stats.calls += 1
        stats.exclusive += duration - children
        if self._depth[name] == 0:
            stats.busy += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def count(self, name, key, amount=1):
        self.stats[self.region][name].counts[key] += amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attribute, name, after=None):
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``after(result, args, kwargs)`` runs once the span is closed
        and may record counts for ``name``; its own time is charged to
        the enclosing span, not to the wrapped layer.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result, args, kwargs)
            return result

        self.replace(owner, attribute, wrapper)

    def replace(self, owner, attribute, replacement):
        """Set ``owner.attribute``, remembering what to restore."""
        self._patches.append((owner, attribute,
                              owner.__dict__.get(attribute, _ABSENT)))
        setattr(owner, attribute, replacement)

    def restore(self):
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False


_ABSENT = object()


def _phase(kwargs, args):
    """Classify one ``milp`` call of the advisor's two-phase solve.

    The schema-minimising second solve is the only one whose objective
    is exactly the binary-column indicator; the LP gate's relaxation is
    the only one with no integer columns.
    """
    import numpy as np

    objective = np.asarray(kwargs.get("c", args[0] if args else ()))
    integrality = kwargs.get("integrality")
    if integrality is None:
        return "phase1"
    integrality = np.asarray(integrality)
    if not integrality.any():
        return "lp_gate"
    if np.array_equal(objective, integrality.astype(float)):
        return "phase2"
    return "phase1"


def _census_wrapper(tracer, original, source):
    """``milp`` wrapper recording one census entry per call."""

    @functools.wraps(original)
    def milp(*args, **kwargs):
        import numpy as np

        phase = "windows" if source == "windows" else _phase(kwargs, args)
        constraints = kwargs.get("constraints") or []
        if not isinstance(constraints, (list, tuple)):
            constraints = [constraints]
        rows = sum(constraint.A.shape[0] for constraint in constraints)
        nonzeros = sum(getattr(constraint.A, "nnz", 0)
                       for constraint in constraints)
        integrality = np.asarray(kwargs.get("integrality", ()))
        options = kwargs.get("options") or {}
        tracer.open("solver")
        try:
            result = original(*args, **kwargs)
        finally:
            seconds = tracer.close()
        tracer.census.append({
            "region": tracer.region,
            "source": source,
            "phase": phase,
            "seconds": seconds,
            "status": int(result.status),
            "time_limit": options.get("time_limit"),
            "time_limit_hit": int(result.status) == 1,
            "gap": _number(getattr(result, "mip_gap", None)),
            "dual_bound": _number(getattr(result, "mip_dual_bound", None)),
            "objective": _number(getattr(result, "fun", None)),
            "nodes": int(getattr(result, "mip_node_count", 0) or 0),
            "columns": int(len(kwargs.get("c", ()))),
            "binary_columns": int(integrality.sum()),
            "rows": int(rows),
            "nonzeros": int(nonzeros),
        })
        return result

    return milp


def _number(value):
    if value is None:
        return None
    value = float(value)
    return value if value == value else None  # NaN -> None


def instrument(tracer):
    """Wrap the public entry points of every layer; returns ``tracer``.

    Each wrapper replaces the name where its callers look it up: class
    attributes for methods, and module globals for functions the
    advisor imported by name (``parallel_map``, ``milp``,
    ``prune_plan_space``), so the program's own calls go through the
    wrapper.
    """
    import repro.advisor as advisor_module
    import repro.optimizer.bip as bip_module
    import repro.rubis as rubis
    import repro.windows as windows
    import repro.windows.bip as windows_bip
    from repro import dominance
    from repro.advisor import Advisor
    from repro.backend import ColumnFamily, ExecutionEngine
    from repro.cost import CassandraCostModel
    from repro.enumerator import CandidateEnumerator
    from repro.optimizer import BIPOptimizer
    from repro.planner import QueryPlanner, UpdatePlanner
    from repro.verify import DifferentialRunner

    wrap = tracer.wrap

    wrap(Advisor, "prepare", "advisor.prepare")
    wrap(Advisor, "recommend_prepared", "advisor.recommend_prepared")

    def candidates(result, args, kwargs):
        tracer.count("enumerator", "candidates", len(result))
    wrap(CandidateEnumerator, "candidates", "enumerator", after=candidates)

    def query_plans(result, args, kwargs):
        tracer.count("planner.query", "plans", len(result))
        if getattr(result, "truncated", False):
            tracer.count("planner.query", "truncated")
    wrap(QueryPlanner, "plans_for", "planner.query", after=query_plans)

    def support_plans(result, args, kwargs):
        tracer.count("planner.update", "support_plans",
                     len(result.support_plans))
    # plans_for loops over plan_one, so plan_one alone sees every call
    wrap(UpdatePlanner, "plan_one", "planner.update", after=support_plans)

    wrap(CassandraCostModel, "cost_plan", "cost")
    wrap(CassandraCostModel, "cost_update_plan", "cost")

    def pruned(result, args, kwargs):
        tracer.count("dominance", "plans_in", len(args[0]))
        tracer.count("dominance", "plans_out", len(result))
    wrap(advisor_module, "prune_plan_space", "dominance", after=pruned)
    wrap(dominance, "reachable_update_plans", "dominance")

    def mapped(result, args, kwargs):
        tracer.count("parallel", "items", len(result))
    wrap(advisor_module, "parallel_map", "parallel", after=mapped)

    wrap(BIPOptimizer, "prepare", "optimizer.build")
    wrap(BIPOptimizer, "reweight", "optimizer.reweight")

    def optimized(result, args, kwargs):
        program = args[1] if len(args) > 1 else kwargs.get("program")
        tracer.count("optimizer.optimize", "extract_s",
                     getattr(program, "extract_seconds", 0.0))
    wrap(BIPOptimizer, "optimize", "optimizer.optimize", after=optimized)

    for module, source in ((bip_module, "optimizer"),
                           (windows_bip, "windows")):
        tracer.replace(module, "milp",
                       _census_wrapper(tracer, module.milp, source))

    wrap(windows, "recommend_windows", "windows")
    wrap(rubis, "generate_dataset", "datagen")

    wrap(ExecutionEngine, "execute_query", "executor.query")
    wrap(ExecutionEngine, "execute_update", "executor.update")
    wrap(ExecutionEngine, "load", "executor.load")
    wrap(ColumnFamily, "get", "store.get")
    wrap(ColumnFamily, "put_many", "store.put")
    wrap(ColumnFamily, "delete_many", "store.delete")

    wrap(DifferentialRunner, "check", "oracle")
    wrap(DifferentialRunner, "sweep", "oracle")
    return tracer
