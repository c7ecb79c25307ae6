"""A failed HiGHS solve raises on every path, never a silent result.

The single-schema and the windowed program share one solve path; its
status check must reject a failed status and a time-limit status that
carries no solution.
"""

import pytest
from scipy.optimize import OptimizeResult

import repro.optimizer.bip as bip
from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import OptimizationError
from repro.windows import WindowSchedule, recommend_windows

#: (HiGHS status, solution): infeasible, and time limit without a point
FAILURES = [(2, None), (1, None)]


@pytest.fixture(scope="module")
def phased():
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    workload.scale_weights(50, mix="writes")
    schedule = WindowSchedule([("default", 400.0), ("writes", 400.0)])
    return model, workload, schedule


def failing_call(monkeypatch, fail_at, status, x):
    """Patch the solver so its ``fail_at``-th call (1-based) fails;
    returns the call log."""
    real = bip.milp
    calls = []

    def milp(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) == fail_at:
            return OptimizeResult(status=status, success=False, x=x,
                                  message="forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(bip, "milp", milp)
    return calls


@pytest.mark.parametrize("status, x", FAILURES)
def test_single_schema_solve_failure_raises(monkeypatch, phased,
                                            status, x):
    model, workload, _schedule = phased
    failing_call(monkeypatch, 1, status, x)
    with pytest.raises(OptimizationError, match="forced failure"):
        Advisor(model).recommend(workload)


@pytest.mark.parametrize("status, x", FAILURES)
def test_windowed_solve_failure_raises(monkeypatch, phased, status, x):
    model, workload, schedule = phased
    # a clean run counts the solves; the windowed program is the last
    calls = failing_call(monkeypatch, None, status, x)
    recommend_windows(Advisor(model), workload, schedule)
    windowed = len(calls)
    binaries = calls[-1]["integrality"].sum()
    assert binaries > calls[0]["integrality"].sum()  # W*J selections
    calls = failing_call(monkeypatch, windowed, status, x)
    with pytest.raises(OptimizationError, match="forced failure"):
        recommend_windows(Advisor(model), workload, schedule)
    assert len(calls) == windowed
