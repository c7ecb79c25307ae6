"""Binding shared plans to the members of a signature class."""

import re

import pytest

from repro.cost import CassandraCostModel
from repro.enumerator import CandidateEnumerator
from repro.exceptions import PlanningError
from repro.planner import QueryPlanner, UpdatePlanner
from repro.planner.steps import FilterStep
from repro.workload import Workload, parse_statement
from repro.workload.digest import statement_signature

FIG3 = ("SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city "
        "AND Guest.Reservations.Room.RoomRate > ?rate")
UNION = ("SELECT Guest.GuestName FROM Guest "
         "WHERE Guest.GuestID = ?a OR Guest.GuestName = ?b")
INSERT = ("INSERT INTO Reservation SET ResID = ?, ResStartDate = ?start, "
          "ResEndDate = ?end AND CONNECT TO Guest(?guest), Room(?room)")
POIS = ("SELECT PointOfInterest.POIName, PointOfInterest.POIDescription "
        "FROM PointOfInterest.Hotels WHERE Hotel.HotelID = ?hotel")
UPDATE = ("UPDATE PointOfInterest SET POIDescription = ?description "
          "WHERE PointOfInterest.POIID = ?poi")


def twins(model, text):
    """A statement and a same-signature copy with renamed parameters."""
    statement = parse_statement(model, text, label="first")
    renamed = re.sub(r"\?(\w+)", r"?\1_2", text)
    twin = parse_statement(model, renamed, label="second")
    assert statement_signature(twin) == statement_signature(statement)
    return statement, twin


def plan_space(model, query):
    pool = CandidateEnumerator(model).enumerate_query(query)
    plans = QueryPlanner(model, pool, max_plans=200).plans_for(query)
    cost_model = CassandraCostModel()
    for plan in plans:
        cost_model.cost_plan(plan)
    return plans


def test_bind_to_own_query_is_identity(hotel):
    query, _twin = twins(hotel, FIG3)
    for plan in plan_space(hotel, query):
        assert plan.bind(query) is plan


def test_bound_plan_reads_the_members_parameters(hotel):
    query, twin = twins(hotel, FIG3)
    plans = plan_space(hotel, query)
    filtered = [plan for plan in plans
                if any(isinstance(step, FilterStep) for step in plan.steps)]
    assert filtered, "the space should hold a client-side filter plan"
    for plan in plans:
        bound = plan.bind(twin)
        assert bound.query is twin
        assert bound.signature == plan.signature
        assert bound.cost == plan.cost
        assert bound.indexes == plan.indexes
        for original, step in zip(plan.steps, bound.steps):
            if not isinstance(step, FilterStep):
                assert step is original
                continue
            assert {condition.parameter for condition in step.conditions} \
                <= {"city_2", "rate_2"}
    # the shared plan itself is untouched
    for plan in filtered:
        for step in plan.steps:
            if isinstance(step, FilterStep):
                assert {c.parameter for c in step.conditions} \
                    <= {"city", "rate"}


def test_union_plan_binds_every_branch(hotel):
    query, twin = twins(hotel, UNION)
    (plan, *_rest) = plan_space(hotel, query)
    bound = plan.bind(twin)
    assert bound.query is twin
    assert [branch.query for branch in bound.branch_plans] \
        == list(twin.branch_queries)
    assert len(bound.steps) == len(plan.steps)
    assert bound.signature == plan.signature


def test_bind_rejects_a_statement_of_another_shape(hotel):
    query, _twin = twins(hotel, FIG3)
    other = parse_statement(hotel, "SELECT Guest.GuestName FROM Guest "
                                   "WHERE Guest.GuestID = ?guest")
    with pytest.raises(PlanningError):
        plan_space(hotel, query)[0].bind(other)


@pytest.mark.parametrize("text", [INSERT, UPDATE])
def test_update_plan_binds_its_support_queries(hotel, text):
    update, twin = twins(hotel, text)
    workload = Workload(hotel)
    workload.add_statement(FIG3, label="reader")
    workload.add_statement(POIS, label="pois")
    workload.add_statement(update)
    pool = CandidateEnumerator(hotel).candidates(workload)
    planner = QueryPlanner(hotel, pool, max_plans=50)
    plans = UpdatePlanner(hotel, planner).plans_for(update)
    supported = [plan for plan in plans if plan.support_plans]
    assert supported
    for plan in supported:
        assert plan.bind(update) is plan
        bound = plan.bind(twin)
        assert bound.update is twin
        assert bound.index is plan.index
        assert len(bound.support_plans) == len(plan.support_plans)
        mine = {condition.parameter for condition in twin.conditions}
        mine.update(parameter for _key, parameter
                    in getattr(twin, "connections", ()))
        for support, support_plan in zip(plan.support_plans,
                                         bound.support_plans):
            query = support_plan.query
            assert query.update is twin
            assert query.label.startswith("second__")
            assert query.label[len("second"):] \
                == support.query.label[len("first"):]
            assert {c.parameter for c in query.conditions} <= mine
            assert support_plan.signature == support.signature
