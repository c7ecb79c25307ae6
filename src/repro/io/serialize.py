"""JSON document format for models and workloads.

A complete application is one document::

    {
      "model": {
        "name": "hotel",
        "entities": [
          {"name": "Hotel", "count": 100,
           "id": "HotelID",
           "fields": [
             {"name": "HotelCity", "type": "string", "size": 12,
              "cardinality": 20},
             ...]},
          ...],
        "relationships": [
          {"from": "Hotel", "forward": "Rooms",
           "to": "Room", "reverse": "Hotel",
           "kind": "one_to_many"},
          ...]
      },
      "workload": {
        "mix": "default",
        "statements": [
          {"label": "q1", "statement": "SELECT ...",
           "weight": 2.0},
          {"label": "q2", "statement": "SELECT ...",
           "mixes": {"read": 3.0, "write": 0.5}},
          ...]
      }
    }

Field types map to the conceptual-model field classes; sizes and
cardinalities are optional (class defaults / entity count apply).
"""

from __future__ import annotations

import json

from repro.exceptions import ModelError, ParseError
from repro.model import (
    BooleanField,
    DateField,
    Entity,
    FloatField,
    IDField,
    IntegerField,
    Model,
    StringField,
)
from repro.workload import Workload

_FIELD_TYPES = {
    "string": StringField,
    "integer": IntegerField,
    "float": FloatField,
    "boolean": BooleanField,
    "date": DateField,
}

_TYPE_NAMES = {cls: name for name, cls in _FIELD_TYPES.items()}


# -- model ------------------------------------------------------------------


def model_to_dict(model):
    """Serialize a conceptual model to the document format."""
    entities = []
    relationships = []
    seen_edges = set()
    for entity in model.entities.values():
        id_field = entity.id_field
        fields = []
        for field in entity.data_fields:
            record = {"name": field.name,
                      "type": _TYPE_NAMES.get(type(field), "string"),
                      "size": field.size}
            if field._cardinality is not None:
                record["cardinality"] = field._cardinality
            fields.append(record)
        entities.append({
            "name": entity.name,
            "count": entity.count,
            "id": id_field.name if id_field else None,
            "fields": fields,
        })
        for key in entity.foreign_keys:
            if key.id in seen_edges:
                continue
            seen_edges.add(key.id)
            if key.reverse is not None:
                seen_edges.add(key.reverse.id)
            kind = {
                ("one", "one"): "one_to_one",
                ("many", "one"): "one_to_many",
                ("one", "many"): "many_to_one",
                ("many", "many"): "many_to_many",
            }[(key.relationship,
               key.reverse.relationship if key.reverse else "one")]
            record = {
                "from": entity.name, "forward": key.name,
                "to": key.entity.name,
                "reverse": key.reverse.name if key.reverse else None,
                "kind": kind,
            }
            if key._avg_fanout is not None:
                record["forward_fanout"] = key._avg_fanout
            if key.reverse is not None \
                    and key.reverse._avg_fanout is not None:
                record["reverse_fanout"] = key.reverse._avg_fanout
            if not key.total:
                record["forward_total"] = False
            if key.reverse is not None and not key.reverse.total:
                record["reverse_total"] = False
            relationships.append(record)
    return {"name": model.name, "entities": entities,
            "relationships": relationships}


def model_from_dict(document):
    """Rebuild a conceptual model from the document format."""
    try:
        model = Model(document.get("name", "model"))
        for spec in document["entities"]:
            entity = Entity(spec["name"], count=spec.get("count", 1))
            if spec.get("id"):
                entity.add_field(IDField(spec["id"]))
            for field_spec in spec.get("fields", []):
                field_type = _FIELD_TYPES.get(
                    field_spec.get("type", "string"))
                if field_type is None:
                    raise ModelError(
                        f"unknown field type {field_spec.get('type')!r}")
                kwargs = {}
                if "size" in field_spec:
                    kwargs["size"] = field_spec["size"]
                if "cardinality" in field_spec:
                    kwargs["cardinality"] = field_spec["cardinality"]
                entity.add_field(field_type(field_spec["name"],
                                            **kwargs))
            model.add_entity(entity)
        for spec in document.get("relationships", []):
            model.add_relationship(
                spec["from"], spec["forward"], spec["to"],
                spec["reverse"], kind=spec.get("kind", "one_to_many"),
                forward_fanout=spec.get("forward_fanout"),
                reverse_fanout=spec.get("reverse_fanout"),
                forward_total=spec.get("forward_total", True),
                reverse_total=spec.get("reverse_total", True))
        return model.validate()
    except KeyError as missing:
        raise ModelError(
            f"model document is missing key {missing}") from None


# -- workload ------------------------------------------------------------------


def workload_to_dict(workload):
    """Serialize a workload.

    Statements keep their source text verbatim when they were parsed
    from text; programmatically built statements are unparsed from the
    grammar's canonical rendering, which round-trips through
    :func:`repro.workload.parser.parse_statement`.
    """
    statements = []
    for label, statement in workload.statements.items():
        try:
            text = statement.text or statement.unparse()
        except NotImplementedError:
            raise ParseError(
                f"statement {label!r} has no source text to serialize")
        record = {"label": label, "statement": text}
        mixes = workload._weights[label]
        if set(mixes) == {Workload.DEFAULT_MIX}:
            record["weight"] = mixes[Workload.DEFAULT_MIX]
        else:
            record["mixes"] = dict(mixes)
        statements.append(record)
    return {"mix": workload.active_mix, "statements": statements}


def workload_from_dict(model, document):
    """Rebuild a workload over ``model`` from the document format."""
    workload = Workload(model, mix=document.get("mix"))
    try:
        for record in document["statements"]:
            workload.add_statement(
                record["statement"],
                weight=record.get("weight", 1.0),
                label=record.get("label"),
                mixes=record.get("mixes"))
    except KeyError as missing:
        raise ParseError(
            f"workload document is missing key {missing}") from None
    return workload


# -- applications ------------------------------------------------------------------


def load_application(path):
    """Load ``(model, workload)`` from a JSON application file."""
    with open(path) as handle:
        document = json.load(handle)
    model = model_from_dict(document["model"])
    workload = workload_from_dict(model, document.get(
        "workload", {"statements": []}))
    return model, workload


def dump_application(model, workload, path):
    """Write a model and workload to a JSON application file."""
    document = {"model": model_to_dict(model),
                "workload": workload_to_dict(workload)}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path


# -- document version checks -----------------------------------------------


def _check_format(document, supported, path, kind):
    """Reject documents whose declared version is not ``supported``.

    ``supported`` is the accepted format tag (e.g. "nose-explain/1").
    Every document kind carries its tag, so a document without a
    ``format`` field is rejected too.
    """
    found = document.get("format")
    if found is None:
        raise ValueError(
            f"{path}: missing 'format' field (expected {supported!r})")
    if found != supported:
        raise ValueError(
            f"{path} declares unsupported {kind} document version "
            f"{found!r}; supported: {supported!r}")
    return document


# -- explain documents ----------------------------------------------------------


def dump_explain(document, path):
    """Write an explain document (or a recommendation) as stable JSON.

    Keys are sorted so two dumps of the same decision are byte-for-byte
    identical — the property ``nose-advisor diff`` and CI artifact
    comparison rely on.  Accepts either a prepared document dict or a
    :class:`~repro.optimizer.results.SchemaRecommendation`.
    """
    if not isinstance(document, dict):
        document = document.explain_document()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_explain(path):
    """Load an explain document from a JSON file."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ParseError(f"{path} is not an explain document")
    from repro.explain.document import EXPLAIN_FORMAT
    return _check_format(document, EXPLAIN_FORMAT, path, "explain")


# -- profile documents ----------------------------------------------------------


def dump_profile(document, path):
    """Write a "nose-profile/1" accuracy report as stable JSON.

    Keys are sorted for diffability, matching :func:`dump_explain`.
    """
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_profile(path):
    """Load a profile document from a JSON file."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ParseError(f"{path} is not a profile document")
    from repro.profile.report import PROFILE_FORMAT
    return _check_format(document, PROFILE_FORMAT, path, "profile")


# -- telemetry run reports ------------------------------------------------------


def run_report_to_dict(report):
    """Serialize a :class:`repro.telemetry.RunReport`."""
    return report.as_dict()


def run_report_from_dict(document):
    """Rebuild a run report from its document form."""
    from repro.telemetry import RunReport
    return RunReport.from_dict(document)


def dump_run_report(report, path):
    """Write a telemetry run report as a diffable JSON file."""
    with open(path, "w") as handle:
        json.dump(run_report_to_dict(report), handle, indent=2)
        handle.write("\n")
    return path


def load_run_report(path):
    """Load a telemetry run report from a JSON file."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ParseError(f"{path} is not a run-report document")
    from repro.telemetry import RUN_REPORT_FORMAT
    _check_format(document, RUN_REPORT_FORMAT, path, "run-report")
    return run_report_from_dict(document)


# -- windows documents ------------------------------------------------------------


def dump_windows(document, path):
    """Write a "nose-windows/1" schedule document as stable JSON.

    Accepts either a prepared document dict or a
    :class:`~repro.windows.advisor.WindowedRecommendation`.  Keys are
    sorted and a trailing newline appended, so two windowed runs of
    the same schedule are byte-identical on disk.
    """
    if not isinstance(document, dict):
        document = document.document()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_windows(path):
    """Load a windows document from a JSON file."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ParseError(f"{path} is not a windows document")
    from repro.windows.document import WINDOWS_FORMAT
    return _check_format(document, WINDOWS_FORMAT, path, "windows")


# -- monitor documents -----------------------------------------------------------


def dump_monitor(document, path):
    """Write a "nose-monitor/1" drift document as stable JSON.

    Keys are sorted and a trailing newline appended, matching the
    other document dumpers, so two monitored runs of the same traffic
    produce byte-identical files.
    """
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_monitor(path):
    """Load a monitor document from a JSON file."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ParseError(f"{path} is not a monitor document")
    from repro.monitor.document import MONITOR_FORMAT
    return _check_format(document, MONITOR_FORMAT, path, "monitor")
