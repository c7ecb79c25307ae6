"""Self-test of the benchmark's output checks.

A recommendation tampered with — a column family dropped, or its cost
understated — must be reported as a failure.  Run with
``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import warnings

import pytest

import checks
from repro import Advisor
from repro.optimizer import SchemaRecommendation
from repro.rubis import generate_dataset, rubis_model, rubis_workload
from repro.verify import DifferentialRunner
from repro.workload.statements import Query


@pytest.fixture(scope="module")
def advised():
    model = rubis_model(users=2000)
    workload = rubis_workload(model, mix="bidding")
    advisor = Advisor(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recommendation = advisor.recommend(workload)
    return model, workload, advisor, recommendation


def _tampered(recommendation, indexes=None, total_cost=None):
    return SchemaRecommendation(
        recommendation.indexes if indexes is None else indexes,
        recommendation.query_plans, recommendation.update_plans,
        recommendation.weights,
        recommendation.total_cost if total_cost is None else total_cost)


def _dropped(recommendation):
    """The recommendation without the first query's first column
    family."""
    plan = next(iter(recommendation.query_plans.values()))
    victim = plan.indexes[0].key
    return _tampered(recommendation, indexes=[
        index for index in recommendation.indexes if index.key != victim])


def _advise_failures(advisor, workload, recommendation):
    gap = advisor.optimizer.mip_rel_gap
    failures = checks.check_consistent(workload, recommendation, gap)
    failures += checks.check_cost_achievable(advisor, workload,
                                             recommendation, gap)[0]
    return failures


def test_untampered_recommendation_passes(advised):
    _model, workload, advisor, recommendation = advised
    assert _advise_failures(advisor, workload, recommendation) == []


def test_dropped_column_family_fails(advised):
    _model, workload, advisor, recommendation = advised
    failures = _advise_failures(advisor, workload,
                                _dropped(recommendation))
    assert any("not in the schema" in failure for failure in failures)


@pytest.mark.parametrize("share", [0.5, 0.95])
def test_understated_cost_fails(advised, share):
    _model, workload, advisor, recommendation = advised
    understated = _tampered(recommendation,
                            total_cost=recommendation.total_cost * share)
    failures = _advise_failures(advisor, workload, understated)
    assert any("differs from the chosen plans" in failure
               for failure in failures)
    assert any("not achievable" in failure for failure in failures)


def test_dropped_column_family_fails_when_served(advised):
    model, workload, _advisor, recommendation = advised
    runner = DifferentialRunner(model, _dropped(recommendation),
                                generate_dataset(model, seed=1))
    query = next(iter(recommendation.query_plans))
    params = {condition.parameter: 1 for condition in query.conditions}
    assert isinstance(query, Query)
    failures = checks.check_oracle(runner, runner.check, query, params)
    assert failures and failures[0].startswith("error on ")


def test_served_recommendation_passes_the_sweep(advised):
    model, _workload, _advisor, recommendation = advised
    runner = DifferentialRunner(model, recommendation,
                                generate_dataset(model, seed=1))
    assert checks.check_oracle(runner, runner.sweep) == []


class _Schedule:
    def __init__(self, total, baselines):
        self.total_cost = total
        self.baselines = {name: {"total": value}
                          for name, value in baselines.items()}


def test_windowed_total_above_a_baseline_fails():
    assert checks.check_windows(
        _Schedule(10.0, {"static": 11.0, "naive_per_window": 10.0}),
        1e-4) == []
    failures = checks.check_windows(
        _Schedule(10.5, {"static": 11.0, "naive_per_window": 10.0}),
        1e-4)
    assert len(failures) == 1 and "naive_per_window" in failures[0]


def test_differing_documents_fail():
    assert checks.check_identical([b"a", b"a"], "doc") == []
    assert checks.check_identical([b"a", b"a", b"b"], "doc") == [
        "doc of repetition 2 differs from repetition 0"]
