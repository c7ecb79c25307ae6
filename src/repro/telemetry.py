"""Tracing, metrics and run reports for the advisor pipeline.

The paper's Fig 13 decomposes advisor runtime into coarse stages; this
module looks *inside* a stage: which query blew up the enumeration
space, how plan counts shrank through each dominance rule, where solver
time went.  Three pieces, no external dependencies:

* a **span tracer** — nested wall-clock intervals (monotonic clocks)
  built with a context manager or the :func:`traced` decorator.  Span
  stacks are per-thread, so spans opened on another thread attach to
  the root rather than to whatever the main thread has open;
* a **metrics registry** — named counters, gauges and fixed-boundary
  histograms, all guarded by one lock (updates happen at per-statement
  frequency, never per plan step);
* a **run report** — spans and metrics aggregated into one JSON-able
  document with stable key order (diffable across runs) and an ASCII
  rendering through :mod:`repro.reporting`.

Telemetry is off by default: the module-level *active* sink is a
:class:`NullTelemetry` whose every operation is a no-op, so the
instrumentation hooks compiled into the pipeline cost one global read
and an attribute check when nothing is listening.  :func:`activate`
installs a real :class:`Telemetry` for the duration of a ``with``
block; setting ``NOSE_TELEMETRY=0`` in the environment is a kill-switch
that keeps the null sink installed even through :func:`activate`.
Instrumented code reads the active sink via :func:`current` and, in
anything resembling a loop, guards metric emission with
``if telemetry.enabled:`` — the overhead policy (< 3% of advisor
runtime with telemetry disabled) is enforced by
``benchmarks/test_telemetry_overhead.py``.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "COUNT_BUCKETS",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "NULL",
    "NullTelemetry",
    "RUN_REPORT_FORMAT",
    "RunReport",
    "Span",
    "TIME_BUCKETS",
    "Telemetry",
    "Tracer",
    "activate",
    "current",
    "env_enabled",
    "span_from_record",
    "traced",
]

#: environment variable that force-disables telemetry when set to "0"
KILL_SWITCH = "NOSE_TELEMETRY"

#: document version tag stamped into serialized run reports
RUN_REPORT_FORMAT = "nose-run-report/1"

#: default boundaries for histograms over counts (plans, candidates)
COUNT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: default boundaries for histograms over durations in seconds
TIME_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                60.0)

#: default boundaries for histograms over simulated request latency in
#: milliseconds (the execution engine's per-statement service times)
LATENCY_BUCKETS_MS = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
                      100.0, 200.0, 500.0, 1000.0)


def env_enabled():
    """False when the ``NOSE_TELEMETRY=0`` kill-switch is set."""
    return os.environ.get(KILL_SWITCH, "") != "0"


# -- spans -------------------------------------------------------------------


class Span:
    """One named wall-clock interval with nested children.

    Times come from ``time.perf_counter`` (monotonic); ``started_at``
    additionally records the wall-clock (``time.time``) start so traces
    can be correlated with external logs.  ``children`` may have been
    recorded on other threads and can therefore overlap each other, so
    ``self_seconds`` clamps at zero rather than going negative when
    concurrent children sum past the parent's wall time.
    """

    __slots__ = ("name", "attributes", "children", "started", "ended",
                 "started_at")

    def __init__(self, name, attributes=None):
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.children = []
        self.started = None
        self.ended = None
        #: wall-clock (epoch seconds) start, None until the span opens
        self.started_at = None

    @property
    def total_seconds(self):
        if self.started is None:
            return 0.0
        ended = self.ended if self.ended is not None \
            else time.perf_counter()
        return max(ended - self.started, 0.0)

    @property
    def self_seconds(self):
        """Total time minus child time (clamped for concurrent children)."""
        child_seconds = sum(child.total_seconds
                            for child in self.children)
        return max(self.total_seconds - child_seconds, 0.0)

    def set(self, **attributes):
        """Attach key/value annotations (JSON-able values only)."""
        self.attributes.update(attributes)

    def as_dict(self):
        """Serializable record with stable key order."""
        record = {
            "name": self.name,
            "total_seconds": round(self.total_seconds, 6),
            "self_seconds": round(self.self_seconds, 6),
        }
        if self.started_at is not None:
            record["started_at"] = round(self.started_at, 3)
        if self.attributes:
            record["attributes"] = {key: self.attributes[key]
                                    for key in sorted(self.attributes)}
        if self.children:
            record["children"] = [child.as_dict()
                                  for child in self.children]
        return record

    def __repr__(self):
        return (f"Span({self.name!r}, {self.total_seconds:.6f}s, "
                f"children={len(self.children)})")


class Tracer:
    """Thread-safe span tracer with per-thread span stacks.

    Every thread sees the same root span; a thread's stack starts at
    the root, so spans opened on a fresh thread attach there.
    """

    def __init__(self, name="run"):
        self.root = Span(name)
        self.root.started = time.perf_counter()
        self.root.started_at = time.time()
        #: spans started over the tracer's lifetime (root excluded)
        self.span_count = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    def current_span(self):
        """The innermost open span on the calling thread."""
        return self._stack()[-1]

    @contextmanager
    def span(self, name, **attributes):
        """Open a child span of the calling thread's current span."""
        stack = self._stack()
        span = Span(name, attributes)
        with self._lock:
            stack[-1].children.append(span)
            self.span_count += 1
        stack.append(span)
        span.started = time.perf_counter()
        span.started_at = time.time()
        try:
            yield span
        finally:
            span.ended = time.perf_counter()
            stack.pop()

    def finish(self):
        """Close the root span (idempotent)."""
        if self.root.ended is None:
            self.root.ended = time.perf_counter()


def span_from_record(record):
    """Rebuild a :class:`Span` tree from its ``as_dict`` record.

    Durations and the wall-clock ``started_at`` are preserved;
    ``started`` is rebased to zero, so the rebuilt span only makes
    sense as a record of durations, not grafted into a live trace.
    """
    span = Span(record["name"], record.get("attributes"))
    span.started = 0.0
    span.ended = record.get("total_seconds", 0.0)
    span.started_at = record.get("started_at")
    span.children = [span_from_record(child)
                     for child in record.get("children", ())]
    return span


# -- metrics -----------------------------------------------------------------


class Histogram:
    """Fixed-boundary histogram: ``counts[i]`` holds observations with
    ``value <= boundaries[i]``; the last bin is the overflow."""

    __slots__ = ("boundaries", "counts", "count", "total", "minimum",
                 "maximum")

    def __init__(self, boundaries=COUNT_BUCKETS):
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def observe(self, value):
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def quantile(self, q):
        """Estimate the ``q``-quantile (``0 <= q <= 1``).

        Linear interpolation within the bucket holding the target rank:
        the bucket's observations are assumed uniformly spread between
        its lower and upper boundary.  The first bucket's lower edge and
        the overflow bucket's upper edge are the observed minimum and
        maximum, so single-bucket histograms still interpolate sensibly.
        Returns ``None`` when nothing was observed.
        """
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for position, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if position == 0:
                    lower = self.minimum
                else:
                    lower = self.boundaries[position - 1]
                if position < len(self.boundaries):
                    upper = self.boundaries[position]
                else:
                    upper = self.maximum
                lower = max(lower, self.minimum)
                upper = min(upper, self.maximum)
                if upper <= lower:
                    return lower
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.maximum

    def as_dict(self):
        def rounded(value):
            return None if value is None else round(value, 6)

        return {
            "boundaries": list(self.boundaries),
            "count": self.count,
            "counts": list(self.counts),
            "max": self.maximum,
            "min": self.minimum,
            "p50": rounded(self.quantile(0.50)),
            "p95": rounded(self.quantile(0.95)),
            "p99": rounded(self.quantile(0.99)),
            "sum": round(self.total, 6),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counters = {}
        self.gauges = {}
        self.histograms = {}
        #: update operations served (the overhead guard's op budget)
        self.ops = 0

    def count(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount
            self.ops += 1

    def gauge(self, name, value):
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value
            self.ops += 1

    def observe(self, name, value, buckets=None):
        """Record ``value`` into histogram ``name``.

        ``buckets`` fixes the boundaries on first use; later calls
        reuse the existing histogram regardless.
        """
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(
                    buckets if buckets is not None else COUNT_BUCKETS)
            histogram.observe(value)
            self.ops += 1

    def as_dict(self):
        """Serializable snapshot, every section sorted by name."""
        with self._lock:
            return {
                "counters": {name: self.counters[name]
                             for name in sorted(self.counters)},
                "gauges": {name: self.gauges[name]
                           for name in sorted(self.gauges)},
                "histograms": {name: self.histograms[name].as_dict()
                               for name in sorted(self.histograms)},
            }


# -- the telemetry facade ----------------------------------------------------


class Telemetry:
    """A tracer and a metrics registry behind one handle.

    Instrumented code calls :func:`current` for the active handle and
    uses these methods; :class:`NullTelemetry` mirrors the interface
    with no-ops so callers never branch on presence (only, optionally,
    on ``enabled`` to skip building metric arguments in loops).
    """

    enabled = True

    #: cap on the append-only event log; older events are dropped with
    #: a final "telemetry.events_dropped" marker so reports stay honest
    MAX_EVENTS = 10000

    def __init__(self, name="run"):
        self.tracer = Tracer(name)
        self.metrics = MetricsRegistry()
        self.events = []
        self._events_dropped = 0
        self._events_lock = threading.Lock()

    # tracing
    def span(self, name, **attributes):
        return self.tracer.span(name, **attributes)

    def current_span(self):
        return self.tracer.current_span()

    # metrics
    def count(self, name, amount=1):
        self.metrics.count(name, amount)

    def gauge(self, name, value):
        self.metrics.gauge(name, value)

    def observe(self, name, value, buckets=None):
        self.metrics.observe(name, value, buckets)

    # events
    def event(self, name, **attributes):
        """Append one named event to the run's event log.

        Events are point-in-time markers (alerts, phase changes) as
        opposed to intervals (spans) or aggregates (metrics).  Each
        record carries seconds since the run started (monotonic) plus a
        wall-clock timestamp, and any JSON-able attributes.  The log is
        capped at :attr:`MAX_EVENTS`; overflow increments a drop
        counter surfaced in the run report rather than silently
        growing without bound.
        """
        record = {
            "name": name,
            "seconds": round(
                time.perf_counter() - self.tracer.root.started, 6),
            "time": round(time.time(), 3),
        }
        if attributes:
            record["attributes"] = {key: attributes[key]
                                    for key in sorted(attributes)}
        with self._events_lock:
            if len(self.events) >= self.MAX_EVENTS:
                self._events_dropped += 1
            else:
                self.events.append(record)

    def report(self, meta=None):
        """Aggregate spans + metrics into a :class:`RunReport`.

        Closes the root span, so the report's total is frozen; spans
        recorded afterwards still land in the tree but the reported
        total no longer moves.
        """
        self.tracer.finish()
        return RunReport.from_telemetry(self, meta=meta)


class _NullContext:
    """Reusable no-op context manager (yields ``None``)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """The disabled sink: every operation is a no-op.

    Installed by default and whenever the ``NOSE_TELEMETRY=0``
    kill-switch is set, so instrumentation in the pipeline costs one
    method call with no allocation, no lock, no clock read.
    """

    enabled = False

    def span(self, name, **attributes):
        return _NULL_CONTEXT

    def current_span(self):
        return None

    def count(self, name, amount=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, value, buckets=None):
        pass

    def event(self, name, **attributes):
        pass

    def report(self, meta=None):
        meta_record = {"enabled": False}
        meta_record.update(meta or {})
        return RunReport((), {}, meta=meta_record)


#: the process-wide disabled sink
NULL = NullTelemetry()

_active = NULL
_active_lock = threading.Lock()


def current():
    """The active telemetry sink (a :class:`NullTelemetry` when none)."""
    return _active


@contextmanager
def activate(telemetry=None):
    """Install ``telemetry`` (default: a fresh :class:`Telemetry`) as
    the active sink for the duration of the ``with`` block.

    The sink is process-wide, not thread-local, so threads spawned
    inside the block report into it.  When the ``NOSE_TELEMETRY=0``
    kill-switch is set the null sink stays installed and the yielded
    handle is disabled — callers can check ``handle.enabled`` to tell.
    """
    global _active
    if telemetry is None:
        telemetry = Telemetry()
    installed = telemetry if env_enabled() else NULL
    with _active_lock:
        previous = _active
        _active = installed
    try:
        yield installed
    finally:
        with _active_lock:
            _active = previous


def traced(name=None):
    """Decorator: run the function under a span on the active sink.

    ``name`` defaults to the function's qualified name.  With telemetry
    disabled the wrapper adds a global read and one branch.
    """
    def decorate(function):
        label = name or function.__qualname__

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            telemetry = _active
            if not telemetry.enabled:
                return function(*args, **kwargs)
            with telemetry.span(label):
                return function(*args, **kwargs)
        return wrapper
    return decorate


# -- run reports -------------------------------------------------------------


class RunReport:
    """Spans + metrics for one run, as one diffable JSON document.

    ``spans`` is a list of serialized span records (the root's
    children, in execution order); ``metrics`` is the registry snapshot
    (sections and names sorted); ``meta`` carries run-level facts
    (total seconds, whether telemetry was enabled).  Key order is
    deterministic everywhere so two reports diff cleanly.  Round-trips
    through :func:`repro.io.serialize.dump_run_report` /
    ``load_run_report``.
    """

    def __init__(self, spans, metrics, meta=None, events=None):
        self.spans = list(spans)
        self.metrics = dict(metrics)
        self.meta = dict(meta or {})
        self.events = list(events or ())

    @classmethod
    def from_telemetry(cls, telemetry, meta=None):
        root = telemetry.tracer.root
        meta_record = {
            "enabled": True,
            "span_count": telemetry.tracer.span_count,
            "total_seconds": round(root.total_seconds, 6),
        }
        if telemetry._events_dropped:
            meta_record["events_dropped"] = telemetry._events_dropped
        meta_record.update(meta or {})
        return cls([child.as_dict() for child in root.children],
                   telemetry.metrics.as_dict(), meta=meta_record,
                   events=list(telemetry.events))

    @classmethod
    def from_dict(cls, document):
        """Rebuild a report from :meth:`as_dict` output."""
        return cls(document.get("spans", ()),
                   document.get("metrics", {}),
                   meta=document.get("meta", {}),
                   events=document.get("events", ()))

    def as_dict(self):
        record = {
            "format": RUN_REPORT_FORMAT,
            "meta": {key: self.meta[key] for key in sorted(self.meta)},
            "spans": self.spans,
            "metrics": self.metrics,
        }
        if self.events:
            record["events"] = self.events
        return record

    def stage_totals(self):
        """Wall seconds summed per span name across the whole tree.

        Span names in the advisor match the :class:`AdvisorTiming`
        buckets, so this is the bridge for checking that the trace and
        the coarse timing agree.
        """
        totals = {}

        def walk(records):
            for record in records:
                totals[record["name"]] = (totals.get(record["name"], 0.0)
                                          + record["total_seconds"])
                walk(record.get("children", ()))

        walk(self.spans)
        return totals

    def render(self, top=5):
        """ASCII rendering (span tree + metric summary)."""
        from repro.reporting import render_run_report
        return render_run_report(self, top=top)

    def __repr__(self):
        return (f"RunReport(spans={len(self.spans)}, "
                f"counters={len(self.metrics.get('counters', ()))}, "
                f"enabled={self.meta.get('enabled')})")
