"""Tests for the ordered stage map and its failure annotation."""

import sys

import pytest

from repro import telemetry
from repro.parallel import describe_item, parallel_map


class _Labelled:
    def __init__(self, label):
        self.label = label


@pytest.mark.parametrize("size", [None, 0, 1, 4])
def test_results_preserve_input_order(size):
    # size None: a longer input handed over as a one-shot iterator
    items = list(range(20 if size is None else size))
    expected = [n * n for n in items]
    source = iter(items) if size is None else items
    assert parallel_map(lambda n: n * n, source) == expected


def test_empty_and_single_item():
    assert parallel_map(len, []) == []
    assert parallel_map(len, ["ab"]) == [2]


def test_describe_item_prefers_labels():
    assert describe_item(_Labelled("q1")) == "q1"

    class Space:
        query = _Labelled("q2")
    assert describe_item(Space()) == "q2"
    assert describe_item(3) == "3"
    long = "x" * 300
    assert len(describe_item(long)) <= 120
    assert describe_item(long).endswith("...")


@pytest.mark.parametrize("position", [1, 4])
def test_exception_carries_originating_item(position):
    def explode(item):
        if item.label == "bad":
            raise ValueError("boom")
        return item.label

    items = [_Labelled(f"ok{index}") for index in range(6)]
    items[position] = _Labelled("bad")
    with pytest.raises(ValueError) as exc_info:
        parallel_map(explode, items)
    error = exc_info.value
    assert error.parallel_item == "while processing bad"
    if sys.version_info >= (3, 11):
        assert "while processing bad" in getattr(error, "__notes__", [])


def test_first_exception_in_input_order_stops_the_map():
    # the earliest failing item wins and nothing after it runs
    seen = []

    def explode(item):
        seen.append(item.label)
        if item.label.startswith("bad"):
            raise ValueError(item.label)
        return item.label

    items = [_Labelled(f"ok{i}") for i in range(12)]
    items[3] = _Labelled("bad-early")
    items[11] = _Labelled("bad-late")
    with pytest.raises(ValueError, match="bad-early") as exc_info:
        parallel_map(explode, items)
    assert exc_info.value.parallel_item == "while processing bad-early"
    assert seen == ["ok0", "ok1", "ok2", "bad-early"]


def test_serial_path_records_no_pool_metrics():
    with telemetry.activate() as sink:
        parallel_map(lambda n: n, [1, 2, 3])
    counters = sink.report().metrics["counters"]
    assert not any(name.startswith("parallel.") for name in counters)
