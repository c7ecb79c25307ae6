"""Live workload ingestion with exponentially-decayed weight estimates.

A :class:`WorkloadMonitor` watches statements as they execute and
maintains, per statement, an exponentially-decayed request-rate
estimate: each observation adds ``1`` and every estimate halves once
per ``half_life`` time units of inactivity.  Decay is applied lazily —
an estimate is only brought forward to the current clock when it is
touched or read — so ingestion is O(1) per statement regardless of how
many statements are tracked.

Estimates are keyed by ``(statement_digest, label)``: the digest is the
structural identity drift detection compares against the advised
workload (two relabelled copies of the same statement are the same
traffic), while the label disambiguates structurally-identical
statements (RUBiS has several) so regret estimation can price the
observed mix against the recommendation's per-label plans.

Time is a *logical* clock, not wall-clock: it advances by one unit per
ingested request (so ``half_life`` reads as "requests until an idle
estimate halves"), and trace events may carry their own timestamps in
whatever unit the trace chose.  The store's simulated service time is
tracked alongside for reporting.  Keeping wall-clock out makes monitor
documents byte-stable across runs.
"""

from __future__ import annotations

from collections import deque

from repro.workload.digest import statement_digest

__all__ = ["StatementEstimate", "WorkloadMonitor"]

#: default decay half-life, in logical-clock units (requests)
DEFAULT_HALF_LIFE = 100.0

#: default rolling event-log capacity (recent observations kept)
DEFAULT_WINDOW = 256


class StatementEstimate:
    """Decayed weight estimate for one (digest, label) pair."""

    __slots__ = ("digest", "label", "kind", "requests", "weight",
                 "last_time", "first_time")

    def __init__(self, digest, label, kind):
        self.digest = digest
        self.label = label
        self.kind = kind
        self.requests = 0
        self.weight = 0.0
        self.last_time = None
        self.first_time = None

    def decayed(self, time, half_life):
        """The estimate's weight brought forward to ``time``."""
        if self.last_time is None or time <= self.last_time:
            return self.weight
        return self.weight * 0.5 ** ((time - self.last_time) / half_life)

    def observe(self, time, half_life, amount=1.0):
        self.weight = self.decayed(time, half_life) + amount
        self.requests += 1
        if self.first_time is None:
            self.first_time = time
        self.last_time = time if self.last_time is None \
            else max(self.last_time, time)


class WorkloadMonitor:
    """Ingests executed statements into decayed per-statement weights.

    ``workload`` is the advised :class:`~repro.workload.Workload` the
    live traffic is compared against; its statement labels are used to
    resolve trace events and its weights form the advised distribution
    for drift detection.

    Attach to an engine with ``ExecutionEngine(..., monitor=monitor)``
    — the engine calls :meth:`observe_execution` from the same
    ``_observed`` wrapper that feeds the flight recorder — or replay a
    recorded trace with :meth:`replay_trace`.
    """

    def __init__(self, workload, half_life=DEFAULT_HALF_LIFE,
                 window=DEFAULT_WINDOW):
        if half_life <= 0:
            raise ValueError(
                f"half_life must be positive, got {half_life!r}")
        self.workload = workload
        self.half_life = float(half_life)
        self.estimates = {}
        self.requests = 0
        self.clock = 0.0
        #: cumulative simulated store service time (seconds), when fed
        #: by an execution engine
        self.simulated_seconds = 0.0
        #: rolling log of recent observations, newest last
        self.recent = deque(maxlen=window)
        self._digests = {}

    # -- ingestion -----------------------------------------------------------

    def _digest_for(self, statement):
        # keyed by object identity, not label: live traffic may reuse an
        # advised label for a structurally different statement, and the
        # whole point of the digest is telling those apart
        digest = self._digests.get(statement)
        if digest is None:
            digest = self._digests[statement] = \
                statement_digest(statement)
        return digest

    def observe(self, statement, label=None, kind=None, time=None,
                amount=1.0):
        """Record one execution of ``statement``.

        ``time`` defaults to one clock tick after the previous
        observation; explicit times must be non-decreasing for decay to
        mean anything, so the clock ratchets forward (a stale time is
        clamped to the clock).
        """
        label = label or getattr(statement, "label", None) \
            or "<unlabelled>"
        if kind is None:
            from repro.workload.statements import Query
            kind = "query" if isinstance(statement, Query) else "update"
        if time is None:
            time = self.clock + 1.0
        self.clock = max(self.clock, time)
        digest = self._digest_for(statement)
        key = (digest, label)
        estimate = self.estimates.get(key)
        if estimate is None:
            estimate = self.estimates[key] = StatementEstimate(
                digest, label, kind)
        estimate.observe(self.clock, self.half_life, amount)
        self.requests += 1
        self.recent.append((round(self.clock, 6), label, digest))

    def observe_execution(self, statement, label, kind, delta):
        """Engine-side hook: one statement executed with metric ``delta``.

        The logical clock advances one tick per statement; the store's
        simulated service time accumulates separately for reporting —
        both deterministic, so monitored runs stay byte-stable.
        """
        self.simulated_seconds += delta.get("simulated_ms", 0.0) / 1000.0
        if statement is None:  # pragma: no cover - defensive
            return
        self.observe(statement, label=label, kind=kind)

    def replay_trace(self, events):
        """Ingest recorded trace events.

        Each event is a mapping with a ``label`` (resolved against the
        advised workload's statements) and optionally a ``time`` (the
        logical timestamp; defaults to the running clock) and a
        ``count`` of identical requests.  Unknown labels raise
        ``ValueError`` — a trace that does not match the advised
        workload cannot be compared against it.
        """
        statements = self.workload.statements
        for position, event in enumerate(events):
            label = event.get("label")
            if label is None:
                raise ValueError(
                    f"trace event #{position} has no 'label': {event!r}")
            statement = statements.get(label)
            if statement is None:
                raise ValueError(
                    f"trace event #{position} references unknown "
                    f"statement {label!r}; advised workload has: "
                    f"{sorted(statements)}")
            time = event.get("time")
            for _ in range(int(event.get("count", 1))):
                self.observe(statement, label=label, time=time)

    # -- read-out ------------------------------------------------------------

    def observed_weights(self, time=None):
        """``{label: decayed weight}`` at ``time`` (default: now)."""
        time = self.clock if time is None else time
        weights = {}
        for (_digest, label), estimate in self.estimates.items():
            weights[label] = weights.get(label, 0.0) \
                + estimate.decayed(time, self.half_life)
        return weights

    def observed_distribution(self, time=None):
        """``{digest: share}`` — decayed weights normalized to sum 1.

        Empty when nothing has been observed (or everything decayed to
        zero); callers must treat an empty distribution as "no signal",
        not as drift.
        """
        time = self.clock if time is None else time
        totals = {}
        for (digest, _label), estimate in self.estimates.items():
            totals[digest] = totals.get(digest, 0.0) \
                + estimate.decayed(time, self.half_life)
        grand = sum(totals.values())
        if grand <= 0.0:
            return {}
        return {digest: weight / grand
                for digest, weight in totals.items()}

    def advised_distribution(self):
        """``{digest: share}`` of the advised workload's active mix."""
        totals = {}
        for statement, weight in self.workload.weighted_statements:
            digest = self._digest_for(statement)
            totals[digest] = totals.get(digest, 0.0) + weight
        grand = sum(totals.values())
        if grand <= 0.0:
            return {}
        return {digest: weight / grand
                for digest, weight in totals.items()}

    def estimates_dict(self, time=None):
        """Per-label estimate records, label-sorted, for the document."""
        time = self.clock if time is None else time
        section = {}
        for (digest, label) in sorted(self.estimates,
                                      key=lambda key: (key[1], key[0])):
            estimate = self.estimates[(digest, label)]
            section[label] = {
                "digest": digest,
                "kind": estimate.kind,
                "requests": estimate.requests,
                "weight": round(estimate.decayed(time, self.half_life),
                                6),
            }
        return section
