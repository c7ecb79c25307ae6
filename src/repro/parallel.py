"""Ordered map shared by the advisor pipeline.

Planning, costing and pruning are independent per statement signature
class, and the advisor runs each stage as one ordered map over its
work items.  The map is serial: once signature classes became the unit
of work, fanning out measured slower than serial on every workload.
It stays one function so that a failure anywhere in a stage is
re-raised with the originating item attached (an exception note on
Python 3.11+, and always as the ``parallel_item`` attribute), naming
the statement that caused it.  The name ``parallel_map`` is kept
because layer tracers wrap ``repro.advisor.parallel_map`` to count
stage work items.
"""

from __future__ import annotations

__all__ = ["describe_item", "parallel_map"]


def describe_item(item):
    """A short human-readable identity for a work item.

    Statements carry labels; plan spaces carry their query.  Falls back
    to a truncated ``repr`` so arbitrary items still identify
    themselves in an exception note.
    """
    label = getattr(item, "label", None)
    if label:
        return str(label)
    query = getattr(item, "query", None)
    if query is not None:
        label = getattr(query, "label", None)
        if label:
            return str(label)
    text = repr(item)
    return text if len(text) <= 120 else text[:117] + "..."


def _annotate(error, item):
    """Attach the failing item's identity to an in-flight exception."""
    context = f"while processing {describe_item(item)}"
    error.parallel_item = context
    add_note = getattr(error, "add_note", None)
    if add_note is not None:  # Python 3.11+
        add_note(context)


def parallel_map(function, items):
    """``[function(item) for item in items]``, in input order.

    The first exception propagates annotated with the item that raised
    it; nothing after it runs.
    """
    results = []
    for item in items:
        try:
            results.append(function(item))
        except Exception as error:
            _annotate(error, item)
            raise
    return results
