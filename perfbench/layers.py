"""Per-layer metrics of a traced run, named after the program's modules.

``per_layer`` turns a :class:`spans.Tracer` and the workload it traced
into the flat metric table ``BENCHMARK.json`` lists under
``per_layer``, plus the detail the benchmark writes next to it: the
solver census, the outside-in stage spans of the traced cold advise
next to the advisor's own ``stage_breakdown()``, and the tracing
overhead.  Layers a workload does not exercise read zero.
"""

from __future__ import annotations

from spans import SpanStats
from workloads import median

#: regions whose work the per-layer metrics cover; ``check`` is the
#: output checking, which the timings exclude too
WORK = ("setup", "cold", "warm", "windows", "evaluate", "serve")


def merged(tracer, regions):
    """``{span name: SpanStats}`` summed over ``regions``."""
    total = {}
    for region in regions:
        for name, stats in tracer.stats.get(region, {}).items():
            into = total.setdefault(name, SpanStats())
            into.calls += stats.calls
            into.busy += stats.busy
            into.exclusive += stats.exclusive
            for key, value in stats.counts.items():
                into.counts[key] += value
    return total


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _stage_spans(stats):
    """Outside-in seconds per ``AdvisorTiming.stage_breakdown`` stage."""

    def get(name):
        return stats.get(name, SpanStats())

    planning = (get("planner.query").exclusive
                + get("planner.update").exclusive)
    return {
        "enumeration": get("enumerator").busy,
        "planning": planning,
        "cost_calculation": get("cost").busy,
        "pruning": get("dominance").busy,
        "bip_construction": (get("optimizer.build").busy
                             + get("optimizer.reweight").busy),
        "bip_solving": get("solver").busy,
        "recommendation": get("optimizer.optimize").exclusive,
        "other": (get("advisor.prepare").exclusive
                  + get("advisor.recommend_prepared").exclusive
                  + get("parallel").exclusive),
    }


def cross_check(tracer, breakdowns):
    """Outside-in stage spans of the traced cold advises next to the
    advisor's own stage clock for the same calls (``breakdowns``, one
    ``stage_breakdown()`` per call), with the gap (outside minus
    inside)."""
    outside = _stage_spans(merged(tracer, ("cold",)))
    return {stage: {"outside_s": outside[stage],
                    "inside_s": sum(entry[stage] for entry in breakdowns),
                    "gap_s": outside[stage] - sum(entry[stage]
                                                  for entry in breakdowns)}
            for stage in outside}


def per_layer(tracer, workload, untraced):
    """``(metrics, detail)`` for one traced run."""
    work = merged(tracer, WORK)
    serve = merged(tracer, ("serve",))
    setup = merged(tracer, ("setup",))
    checks = merged(tracer, ("check",))
    census = [entry for entry in tracer.census
              if entry["region"] != "check"]

    def stat(name, source=work):
        return source.get(name, SpanStats())

    metrics = {}

    def put(name, value):
        metrics[name] = float(value)

    # advisor
    advisor = workload.advisor
    recommendation = getattr(workload, "cold", None) \
        or workload.recommendation
    put("advisor.prepare.busy_s", stat("advisor.prepare").busy)
    put("advisor.recommend_prepared.busy_s",
        stat("advisor.recommend_prepared").busy)
    put("advisor.self_s", stat("advisor.prepare").exclusive
        + stat("advisor.recommend_prepared").exclusive)
    put("advisor.plan_cap_excess",
        _ratio(recommendation.total_cost, workload.achieved) - 1.0
        if workload.achieved else 0.0)
    # enumerator
    put("enumerator.busy_s", stat("enumerator").busy)
    put("enumerator.candidates", stat("enumerator").counts["candidates"])
    # planner
    query, update = stat("planner.query"), stat("planner.update")
    put("planner.query.calls", query.calls)
    put("planner.query.busy_s", query.busy)
    put("planner.query.plans", query.counts["plans"])
    put("planner.query.truncated", query.counts["truncated"])
    put("planner.update.calls", update.calls)
    put("planner.update.busy_s", update.busy)
    put("planner.update.support_plans", update.counts["support_plans"])
    # cost
    hits, misses, _entries = advisor.cost_model.cache_info()
    put("cost.calls", stat("cost").calls)
    put("cost.busy_s", stat("cost").busy)
    put("cost.memo_hit_ratio", _ratio(hits, hits + misses))
    # dominance
    dominance = stat("dominance")
    put("dominance.calls", dominance.calls)
    put("dominance.busy_s", dominance.busy)
    put("dominance.plans_in", dominance.counts["plans_in"])
    put("dominance.plans_out", dominance.counts["plans_out"])
    put("dominance.keep_ratio", _ratio(dominance.counts["plans_out"],
                                       dominance.counts["plans_in"]))
    # pipeline
    store = advisor.artifacts.stats()
    put("pipeline.hits", store["hits"])
    put("pipeline.misses", store["misses"])
    put("pipeline.hit_ratio", _ratio(store["hits"],
                                     store["hits"] + store["misses"]))
    # parallel
    put("parallel.calls", stat("parallel").calls)
    put("parallel.items", stat("parallel").counts["items"])
    put("parallel.busy_s", stat("parallel").busy)
    # optimizer: program shape of the largest advisor solve
    put("optimizer.build.busy_s", stat("optimizer.build").busy)
    put("optimizer.reweight.busy_s", stat("optimizer.reweight").busy)
    put("optimizer.optimize.busy_s", stat("optimizer.optimize").busy)
    put("optimizer.extract_s",
        stat("optimizer.optimize").counts["extract_s"])
    programs = [entry for entry in census
                if entry["source"] == "optimizer"
                and entry["phase"] == "phase1"]
    largest = max(programs, key=lambda entry: entry["columns"],
                  default={})
    for key in ("columns", "binary_columns", "rows", "nonzeros"):
        put(f"optimizer.{key}", largest.get(key, 0))
    # solver
    put("solver.calls", len(census))
    put("solver.busy_s", stat("solver").busy)
    for phase in ("phase1", "phase2"):
        put(f"solver.{phase}_s", sum(entry["seconds"] for entry in census
                                     if entry["phase"] == phase))
    put("solver.time_limit_hits",
        sum(entry["time_limit_hit"] for entry in census))
    put("solver.nodes", sum(entry["nodes"] for entry in census))
    put("solver.gap_max", max((entry["gap"] or 0.0 for entry in census),
                              default=0.0))
    # the LP gate arms at lp_gate_columns binary columns; a fill
    # below 1 records that it never did on this workload
    binaries = max((entry["binary_columns"] for entry in census),
                   default=0)
    put("solver.binary_columns_max", binaries)
    put("solver.lp_gate_fill",
        _ratio(binaries, advisor.optimizer.lp_gate_columns or 0))
    # windows
    put("windows.busy_s", stat("windows").busy)
    put("windows.self_s", stat("windows").exclusive)
    # backend, over the serve loop; load and datagen over set-up
    for name in ("executor.query", "executor.update", "store.get",
                 "store.put", "store.delete"):
        put(f"{name}.calls", stat(name, serve).calls)
        put(f"{name}.busy_s", stat(name, serve).busy)
    served = {}
    for loop in workload.samples["store"]:
        for key, value in loop.items():
            served[key] = served.get(key, 0) + value
    for key in ("rows_scanned", "rows_read", "rows_written",
                "rows_deleted", "bytes_read", "partitions_touched",
                "simulated_ms"):
        put(f"store.{key}", served.get(key, 0))
    put("store.read_ratio", _ratio(served.get("rows_read", 0),
                                   served.get("rows_scanned", 0)))
    put("executor.load.busy_s", stat("executor.load", setup).busy)
    put("datagen.busy_s", stat("datagen", setup).busy)
    # verify
    put("oracle.checks", stat("oracle", checks).calls)
    put("oracle.divergences", sum(workload.samples["divergences"]))
    put("oracle.busy_s", stat("oracle", checks).busy)
    # workload
    put("workload.build_s", median(workload.samples["build"]))
    # tracing overhead: traced minus untraced
    put("trace.overhead.advise_cold_s",
        median(workload.samples["cold"]) - median(untraced["cold"]))
    rate = getattr(workload, "transaction_rate", None)
    put("trace.overhead.serve_tx_per_s",
        rate(workload.samples) - rate(untraced) if rate else 0.0)

    stages = cross_check(tracer, workload.samples["stages"])
    for stage, entry in stages.items():
        put(f"trace.gap.{stage}_s", entry["gap_s"])
    # what bounds each workload: the share of the traced cold advises
    # spent in each stage, and of the timed serve loop in the backend
    cold = sum(entry["outside_s"] for entry in stages.values())
    shares = {f"cold.{stage}": _ratio(entry["outside_s"], cold)
              for stage, entry in stages.items()}
    backend = sum(stats.exclusive for name, stats in serve.items()
                  if name.startswith(("executor.", "store.")))
    shares["serve.executor_and_store"] = _ratio(
        backend, sum(workload.samples["transaction"]))
    detail = {"census": tracer.census, "stages": stages, "shares": shares,
              "lp_gate_columns": advisor.optimizer.lp_gate_columns,
              "spans": {region: {name: {"calls": stats.calls,
                                        "busy_s": stats.busy,
                                        "exclusive_s": stats.exclusive,
                                        "counts": dict(stats.counts)}
                                 for name, stats in names.items()}
                        for region, names in tracer.stats.items()}}
    return metrics, detail
