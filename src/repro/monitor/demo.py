"""The RUBiS browsing→bidding drift demonstration.

The canonical drift scenario from the auction benchmark: a site is
advised for its quiet *browsing* mix (read-heavy, no writes), then the
auction heats up and traffic shifts to the *bidding* mix (bids, buys,
comments appear; the read profile changes).  The demo advises on the
browsing mix, replays browsing traffic followed by bidding traffic
through a monitored execution engine, and shows the weight-drift alert
firing mid-shift plus the regret of keeping the browsing-optimized
schema under the observed mix.

The advised workload is the browsing mix with an epsilon floor: write
statements carry a tiny weight instead of zero, so the advisor plans
(and the executor can serve) every statement — the realistic "we know
writes exist, they are just rare right now" posture.  Without the
floor, zero-weight statements would have no plans and the bidding
phase could not execute at all.
"""

from __future__ import annotations

from repro.advisor import Advisor
from repro.backend.executor import ExecutionEngine
from repro.monitor.document import monitor_document
from repro.monitor.drift import DriftDetector
from repro.monitor.monitor import WorkloadMonitor
from repro.monitor.regret import estimate_regret
from repro.profile import request_schedule
from repro.randgen.data import BindingGenerator

__all__ = ["EPSILON_WEIGHT", "drift_demo", "epsilon_floored_workload"]

#: weight floor for statements absent from the advised mix
EPSILON_WEIGHT = 0.002

#: name of the floored mix the demo advises on
LIVE_MIX = "browsing_live"


def epsilon_floored_workload(workload, base_mix, live_mix=LIVE_MIX,
                             epsilon=EPSILON_WEIGHT):
    """Clone ``workload`` with a ``live_mix`` flooring zero weights.

    Every statement keeps its ``base_mix`` weight when positive and
    gets ``epsilon`` otherwise, so the advisor plans all of them.
    """
    floored = workload.clone()
    for label, statement in floored.statements.items():
        weight = floored.weight(statement, mix=base_mix)
        floored.set_weight(label, weight if weight > 0 else epsilon,
                           mix=live_mix)
    return floored.with_mix(live_mix)


def drift_demo(half_life=60.0, requests=400, checkpoint_every=20,
               weight_threshold=0.1, structural_threshold=1,
               seed=0, users=2000, capture=None):
    """Run the browsing→bidding shift; return the monitor document.

    The first half of ``requests`` replays the browsing mix (the mix
    the schema was advised for), the second half the bidding mix; the
    detector checks every ``checkpoint_every`` requests.  With the
    default ``half_life`` of 60 requests the browsing phase decays away
    within the bidding phase, so the observed distribution converges on
    the bidding mix and the Jensen–Shannon alert fires mid-shift.

    A ``capture`` dict, when given, is filled with the live objects
    (advisor, workload, recommendation, monitor) so callers can feed
    the observation into :func:`repro.windows.replan_from_monitor`.
    """
    from repro.rubis import generate_dataset, rubis_model, rubis_workload

    model = rubis_model(users=users)
    workload = rubis_workload(model, mix="browsing")
    advised = epsilon_floored_workload(workload, "browsing")
    dataset = generate_dataset(model, seed=seed + 7)
    dataset.sync_counts()

    advisor = Advisor(model)
    prepared = advisor.prepare(advised)
    recommendation = advisor.recommend_prepared(prepared)

    monitor = WorkloadMonitor(advised, half_life=half_life)
    # warm up for a full schedule round before alerting: the replay
    # schedule seeds every statement (epsilon ones included) with one
    # request, so the first few dozen observations over-represent rare
    # statements relative to their advised share
    detector = DriftDetector(monitor, weight_threshold=weight_threshold,
                             structural_threshold=structural_threshold,
                             min_requests=min(requests // 4, 100))
    engine = ExecutionEngine(model, recommendation, dataset,
                             monitor=monitor)
    engine.load()
    generator = BindingGenerator(dataset, seed=seed, null_rate=0.0)

    first = requests // 2
    phases = (("browsing", first), ("bidding", requests - first))
    executed = 0
    alert_request = None
    for mix, count in phases:
        schedule = request_schedule(advised.with_mix(mix), count)
        for label in schedule:
            statement = advised.statements[label]
            engine.execute(label, generator.bindings_for(statement))
            executed += 1
            if executed % checkpoint_every == 0:
                record = detector.check()
                if alert_request is None and record["weight_alert"]:
                    alert_request = executed
    final = detector.check()
    if alert_request is None and final["weight_alert"]:
        alert_request = executed

    regret = estimate_regret(advisor, advised, recommendation, monitor)
    if capture is not None:
        capture.update(advisor=advisor, workload=advised,
                       recommendation=recommendation, monitor=monitor)
    meta = {
        "source": "rubis-drift-demo",
        "advised_mix": LIVE_MIX,
        "phases": [{"mix": mix, "requests": count}
                   for mix, count in phases],
        "checkpoint_every": checkpoint_every,
        "seed": seed,
        "users": users,
        "alert_request": alert_request,
    }
    return monitor_document(monitor, detector, regret=regret, meta=meta)
