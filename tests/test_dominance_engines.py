"""Cross-check of the two superset-rule engines in :mod:`repro.dominance`.

The pruner picks the vector engine for spaces of at least
``VECTOR_MIN_PLANS`` plans and the scalar scan below that.  Both must
keep the same plans in the same order and write the same ledger
entries, so the choice can never show in a recommendation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Advisor, dominance
from repro.demo import hotel_model, hotel_workload
from repro.explain import explain_document


class _Index:
    def __init__(self, key):
        self.key = key


class _Plan:
    def __init__(self, cost, keys, signature):
        self.cost = cost
        self.indexes = tuple(_Index(key) for key in sorted(keys))
        self.signature = signature


_spaces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.frozensets(st.sampled_from("abcdefgh"), max_size=5)),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(_spaces)
def test_scalar_and_vector_engines_agree(space):
    plans = [_Plan(float(cost), keys, f"p{position}")
             for position, (cost, keys) in enumerate(space)]
    ordered = dominance.dedupe_cheapest(plans)
    scalar_removals, vector_removals = [], []
    scalar = dominance._superset_scalar(ordered, scalar_removals)
    vector = dominance._superset_vector(ordered, vector_removals)
    assert [plan.signature for plan in vector] \
        == [plan.signature for plan in scalar]
    assert vector_removals == scalar_removals


def _explain_bytes(demo):
    if demo == "hotel":
        model = hotel_model()
        workload = hotel_workload(model)
    else:
        from repro.rubis import rubis_model, rubis_workload
        model = rubis_model()
        workload = rubis_workload(model, mix="bidding")
    recommendation = Advisor(model).recommend(workload)
    return json.dumps(explain_document(recommendation), sort_keys=True)


@pytest.mark.parametrize("demo", ["hotel", "rubis"])
def test_engine_choice_leaves_explain_documents_byte_identical(
        demo, monkeypatch):
    documents = []
    for threshold in (0, 10**9):  # every space vector, then scalar
        monkeypatch.setattr(dominance, "VECTOR_MIN_PLANS", threshold)
        documents.append(_explain_bytes(demo))
    assert documents[0] == documents[1]
