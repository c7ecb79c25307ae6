"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs
repetitions of its timed steps in :meth:`run` until the measuring time
is spent, and checks its outputs outside the timed regions.  Samples
land in ``self.samples`` as lists of seconds per step; ``report``
turns them into the figures the benchmark prints.

The workloads drive the program only through public entry points:
``Advisor.prepare``/``recommend_prepared``/``plan_for_schema``,
``recommend_windows``, ``generate_dataset``, ``ExecutionEngine`` and
``repro.verify``.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

import checks
import repro.rubis as rubis
import repro.windows as windows
from repro import Advisor
from repro.exceptions import NoseError
from repro.randgen import random_model
from repro.randgen.statements import (
    _random_insert,
    _random_query,
    _random_update,
)
from repro.rubis import RubisParameterGenerator
from repro.rubis.transactions import transaction_weights
from repro.verify import DifferentialRunner
from repro.workload import Workload
from repro.workload.statements import Insert, Query, Update

#: RUBiS scale of the rubis workloads (the benchmarks/ harness default)
RUBIS_USERS = 20000


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def mean(values):
    return sum(values) / len(values)


def percentile(values, share):
    """Nearest-rank percentile, or None with fewer than ten samples
    beyond it."""
    ordered = sorted(values)
    rank = max(int(round(share * len(ordered))) - 1, 0)
    if len(ordered) - 1 - rank < 10:
        return None
    return ordered[rank]


class _Workload:
    """Shared bookkeeping: samples, attempted operations, failures."""

    #: set-ups timed before each repetition and after the last one; the
    #: median of all of them is ``setup_s``.  Spreading them over the
    #: run, rather than timing them in one burst, lets their median
    #: see the same machine as the timed steps do.
    setup_batch = 1

    def __init__(self, seed):
        self.seed = seed
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures = []
        #: canonical explain document of every cold recommendation
        self.explains = []
        self.tracer = None

    def region(self, name):
        if self.tracer is not None:
            self.tracer.region = name

    def check(self, failures):
        """Record one output check."""
        self.attempted += 1
        self.failures.extend(failures)

    def timed_setup(self):
        for _ in range(self.setup_batch):
            self.region("setup")
            started = time.perf_counter()
            self.setup()
            self.samples["setup"].append(time.perf_counter() - started)

    def run(self, seconds, first_step_only=False):
        """Repeat set-up and the timed steps until ``seconds`` of
        measuring have passed; at least one repetition always runs."""
        spent = 0.0
        repetition = 0
        while repetition == 0 or spent < seconds:
            self.timed_setup()
            spent += self.repetition(repetition, first_step_only)
            repetition += 1
        self.timed_setup()


class RubisAdvise(_Workload):
    """Cold advise, warm re-solve and windowed advise on RUBiS."""

    name = "rubis-advise"

    def setup(self):
        started = time.perf_counter()
        self.model = rubis.rubis_model(users=RUBIS_USERS)
        self.workload = rubis.rubis_workload(self.model, mix="bidding")
        self.drift = windows.rubis_drift_scenario()
        self.samples["build"].append(time.perf_counter() - started)

    def _browsing(self, repetition):
        """Browsing weights with a seeded jitter of at most 5%."""
        rng = random.Random(f"{self.seed}:{repetition}")
        return {statement.label:
                self.workload.weight(statement, mix="browsing")
                * rng.uniform(0.95, 1.05)
                for statement in self.workload.statements.values()}

    def repetition(self, repetition, first_step_only=False):
        self.region("cold")
        started = time.perf_counter()
        advisor = Advisor(self.model)
        prepared = advisor.prepare(self.workload)
        cold = advisor.recommend_prepared(prepared)
        cold_s = time.perf_counter() - started
        self.samples["cold"].append(cold_s)
        self.samples["stages"].append(cold.timing.stage_breakdown())
        self.attempted += 1
        if first_step_only:
            return cold_s
        weights = self._browsing(repetition)
        self.region("warm")
        started = time.perf_counter()
        warm = advisor.recommend_prepared(prepared, weights=weights)
        warm_s = time.perf_counter() - started
        model, workload, schedule, migration = self.drift
        self.region("windows")
        started = time.perf_counter()
        windowed = windows.recommend_windows(
            Advisor(model), workload, schedule,
            migration_model=migration)
        windows_s = time.perf_counter() - started
        self.samples["warm"].append(warm_s)
        self.samples["windows"].append(windows_s)
        self.attempted += 2

        self.region("check")
        gap = advisor.optimizer.mip_rel_gap
        self.explains.append(checks.explain_bytes(cold))
        self.check(checks.check_consistent(self.workload, cold, gap))
        self.check(checks.check_windows(windowed, gap))
        self.cold, self.warm, self.schedule = cold, warm, windowed
        # the final set-up replaces self.workload; finish() checks the
        # workload this advisor planned
        self.advisor, self.advised = advisor, self.workload
        return cold_s + warm_s + windows_s

    def finish(self):
        self.region("check")
        gap = self.advisor.optimizer.mip_rel_gap
        self.check(checks.check_identical(self.explains,
                                          "explain document"))
        failures, self.achieved = checks.check_cost_achievable(
            self.advisor, self.advised, self.cold, gap)
        self.check(failures)

    def report(self):
        return {
            "advise_cold_s": (median(self.samples["cold"]), "s"),
            "advise_warm_s": (median(self.samples["warm"]), "s"),
            "windows_s": (median(self.samples["windows"]), "s"),
            "schema_cost": (self.cold.total_cost, "cost"),
            "schema_mb": (self.cold.size / 1e6, "MB"),
            "windows_cost": (self.schedule.total_cost, "cost"),
        }

    def metrics(self):
        return {"step1_s": mean(self.samples["cold"]),
                "step2_s": mean(self.samples["warm"]),
                "step3_s": mean(self.samples["windows"]),
                "schema_cost": self.cold.total_cost,
                "second_cost": self.schedule.total_cost,
                "schema_mb": self.cold.size / 1e6}


def template_workload(model, statements, templates=24, seed=17):
    """``statements`` instances of ``templates`` structural shapes.

    Pinned copy of ``template_workload`` in ``benchmarks/test_scaling.py``
    (same draws, same defaults), kept here so the benchmark's inputs do
    not move when that harness changes.  Roughly 90/8/2
    read/update/insert, labels distinct per instance.
    """
    rng = random.Random(seed)
    query_forms = [_random_query(model, rng, number, 2)
                   for number in range(templates)]
    update_forms = [form for form in
                    (_random_update(model, rng, number, 2)
                     for number in range(max(2, templates // 6)))
                    if form is not None]
    insert_forms = [_random_insert(model, rng, number)
                    for number in range(max(1, templates // 12))]
    updates = statements * 8 // 100
    inserts = statements * 2 // 100
    queries = statements - updates - inserts
    workload = Workload(model)
    for number in range(queries):
        form = query_forms[number % len(query_forms)]
        workload.add_statement(
            Query(form.key_path, form.select, form.conditions,
                  label=f"q{number}"),
            weight=round(rng.uniform(0.1, 10.0), 2))
    for number in range(updates):
        form = update_forms[number % len(update_forms)]
        workload.add_statement(
            Update(form.key_path, form.settings, form.conditions,
                   label=f"u{number}"),
            weight=round(rng.uniform(0.1, 5.0), 2))
    for number in range(inserts):
        form = insert_forms[number % len(insert_forms)]
        workload.add_statement(
            Insert(form.key_path, form.settings, form.connections,
                   label=f"i{number}"),
            weight=round(rng.uniform(0.1, 5.0), 2))
    return workload


class Template300(_Workload):
    """Cold advise and warm re-solve of the randgen template workload.

    The inputs do not depend on the seed.  HiGHS solve time on this
    program is chaotic in the weights (a uniform rescaling alone moved
    a warm solve between 6 and 35 s), so a seeded draw would measure
    the draw rather than the code.  The warm weights are one fixed
    perturbation: every weight times ``1 + u``, ``u`` uniform in
    [-2%, 2%] from ``random.Random(0)``.
    """

    name = "template-300"
    setup_batch = 11
    #: plan_for_schema evaluations after each step (one takes ~60 ms)
    evaluations = 8

    def setup(self):
        started = time.perf_counter()
        self.model = random_model(entities=8, seed=7)
        self.workload = template_workload(self.model, 300)
        self.samples["build"].append(time.perf_counter() - started)
        rng = random.Random(0)
        self.weights = {statement.label:
                        weight * (1 + rng.uniform(-0.02, 0.02))
                        for statement, weight
                        in self.workload.weighted_statements}

    def repetition(self, repetition, first_step_only=False):
        self.region("cold")
        started = time.perf_counter()
        advisor = Advisor(self.model)
        prepared = advisor.prepare(self.workload)
        cold = advisor.recommend_prepared(prepared)
        cold_s = time.perf_counter() - started
        self.samples["cold"].append(cold_s)
        self.samples["stages"].append(cold.timing.stage_breakdown())
        self.attempted += 1
        self.cold, self.advisor, self.advised = cold, advisor, self.workload
        if first_step_only:
            return cold_s
        spent = cold_s + self._evaluate(advisor, cold)
        self.region("warm")
        started = time.perf_counter()
        warm = advisor.recommend_prepared(prepared, weights=self.weights)
        warm_s = time.perf_counter() - started
        self.samples["warm"].append(warm_s)
        self.attempted += 1
        spent += warm_s + self._evaluate(advisor, cold)

        self.region("check")
        gap = advisor.optimizer.mip_rel_gap
        self.explains.append(checks.explain_bytes(cold))
        self.check(checks.check_consistent(self.workload, cold, gap))
        warm_view = self.workload.clone()
        for label, weight in self.weights.items():
            warm_view.set_weight(label, weight)
        self.check(checks.check_consistent(warm_view, warm, gap))
        self.warm = warm
        return spent

    def _evaluate(self, advisor, recommendation):
        """Time ``plan_for_schema`` of the cold schema; run after the
        cold and after the warm step, so the samples span the
        repetition."""
        self.region("evaluate")
        spent = 0.0
        for _ in range(self.evaluations):
            started = time.perf_counter()
            advisor.plan_for_schema(self.workload, recommendation.indexes)
            elapsed = time.perf_counter() - started
            self.samples["evaluate"].append(elapsed)
            self.attempted += 1
            spent += elapsed
        return spent

    def finish(self):
        self.region("check")
        gap = self.advisor.optimizer.mip_rel_gap
        self.check(checks.check_identical(self.explains,
                                          "explain document"))
        failures, self.achieved = checks.check_cost_achievable(
            self.advisor, self.advised, self.cold, gap)
        self.check(failures)

    def report(self):
        return {
            "advise_cold_s": (median(self.samples["cold"]), "s"),
            "advise_warm_s": (median(self.samples["warm"]), "s"),
            "evaluate_s": (median(self.samples["evaluate"]), "s"),
            "schema_cost": (self.cold.total_cost, "cost"),
            "schema_mb": (self.cold.size / 1e6, "MB"),
            "warm_cost": (self.warm.total_cost, "cost"),
        }

    def metrics(self):
        return {"step1_s": mean(self.samples["cold"]),
                "step2_s": mean(self.samples["warm"]),
                "step3_s": mean(self.samples["evaluate"]),
                "schema_cost": self.cold.total_cost,
                "second_cost": self.warm.total_cost,
                "schema_mb": self.cold.size / 1e6}


class RubisServe(_Workload):
    """A one-client closed loop of RUBiS bidding transactions served
    by the ExecutionEngine on the recommended schema."""

    name = "rubis-serve"
    #: the loop is split in this many segments, each on a fresh set-up
    segments = 3
    runner = None
    #: loops served so far; seeds each loop's draws
    loops = 0
    #: every this many transactions (from a seeded offset) one is
    #: checked against the reference interpreter instead of timed
    check_every = 500
    #: at most this many checked transactions per loop (a reference
    #: query scans the dataset: ~70 ms each at 20,000 users)
    check_cap = 8

    def setup(self):
        started = time.perf_counter()
        self.model = rubis.rubis_model(users=RUBIS_USERS)
        self.workload = rubis.rubis_workload(self.model, mix="bidding")
        self.samples["build"].append(time.perf_counter() - started)
        self.region("cold")
        started = time.perf_counter()
        self.advisor = Advisor(self.model)
        prepared = self.advisor.prepare(self.workload)
        self.recommendation = self.advisor.recommend_prepared(prepared)
        self.samples["cold"].append(time.perf_counter() - started)
        self.samples["stages"].append(
            self.recommendation.timing.stage_breakdown())
        self.region("setup")
        self.dataset = rubis.generate_dataset(self.model, seed=self.seed)
        # the runner owns the engine and loads it; the loop serves
        # through that engine so the oracle sees the served state
        self.runner = DifferentialRunner(self.model, self.recommendation,
                                         self.dataset)

    def run(self, seconds, first_step_only=False):
        for _ in range(self.segments):
            if self.runner is not None:
                self._sweep()
            self.timed_setup()
            self._loop(seconds / self.segments)

    def _sweep(self):
        """Check the store a segment leaves behind against the
        ground-truth dataset."""
        self.region("check")
        self._oracle(self.runner.sweep)

    def _oracle(self, call, *args):
        failures = checks.check_oracle(self.runner, call, *args)
        self.samples["divergences"].append(len(failures))
        self.check(failures)

    def _loop(self, seconds):
        self.region("serve")
        engine = self.runner.engine
        metrics = engine.store.metrics
        statements = self.workload.statements
        seed = f"{self.seed}:{self.loops}"
        self.loops += 1
        rng = random.Random(seed)
        generator = RubisParameterGenerator(self.dataset,
                                            seed=rng.randrange(2**32))
        mix = transaction_weights("bidding")
        names = sorted(mix)
        shares = [mix[name] for name in names]
        offset = rng.randrange(self.check_every)
        checked = 0
        spent = 0.0
        number = 0
        before = metrics.snapshot()
        while spent < seconds:
            transaction = rng.choices(names, shares)[0]
            requests = generator.requests_for(transaction)
            if (number % self.check_every == offset
                    and checked < self.check_cap):
                checked += 1
                # the oracle's own store reads stay out of the counts
                paused = metrics.snapshot()
                self._check_transaction(requests)
                resumed = metrics.snapshot()
                before = {key: before[key] + resumed[key] - paused[key]
                          for key in before}
            else:
                spent += self._serve(requests, statements, metrics)
            number += 1
        after = metrics.snapshot()
        # store counters over this loop's served (timed) transactions
        self.samples["store"].append({key: after[key] - before[key]
                                      for key in after})

    def _serve(self, requests, statements, metrics):
        """Serve one transaction, timing each statement; returns the
        transaction's wall seconds."""
        engine = self.runner.engine
        simulated = metrics.simulated_ms
        total = 0.0
        for label, params in requests:
            kind = "read" if isinstance(statements[label], Query) \
                else "write"
            self.attempted += 1
            started = time.perf_counter()
            try:
                engine.execute(label, params)
            except NoseError as error:
                total += time.perf_counter() - started
                self.failures.append(f"{label} raised "
                                     f"{type(error).__name__}: {error}")
                return total
            elapsed = time.perf_counter() - started
            self.samples[kind].append(elapsed)
            total += elapsed
        self.samples["transaction"].append(total)
        self.samples["simulated_ms"].append(metrics.simulated_ms
                                            - simulated)
        return total

    def _check_transaction(self, requests):
        """Serve one transaction through the oracle: queries are
        compared with the reference interpreter, writes are applied
        (the segment's sweep checks the store they leave behind)."""
        self.region("check")
        for label, params in requests:
            statement = self.workload.statements[label]
            if isinstance(statement, Query):
                self._oracle(self.runner.check, statement, params)
            else:
                self.attempted += 1
                try:
                    self.runner.engine.execute(label, params)
                except NoseError as error:
                    self.failures.append(
                        f"{label} raised {type(error).__name__}: {error}")
        self.region("serve")

    def finish(self):
        self._sweep()
        gap = self.advisor.optimizer.mip_rel_gap
        self.check(checks.check_consistent(self.workload,
                                           self.recommendation, gap))
        failures, self.achieved = checks.check_cost_achievable(
            self.advisor, self.workload, self.recommendation, gap)
        self.check(failures)

    @staticmethod
    def transaction_rate(samples):
        """Transactions per second of summed transaction wall time."""
        transactions = samples["transaction"]
        return len(transactions) / sum(transactions)

    def report(self):
        transactions = self.samples["transaction"]
        reads = self.samples["read"]
        writes = self.samples["write"]
        simulated = self.samples["simulated_ms"]

        def micro(value):
            return None if value is None else value * 1e6

        return {
            "serve_tx_per_s": (self.transaction_rate(self.samples),
                               "tx/s"),
            "serve_tx_us_p50": (micro(median(transactions)), "us"),
            "serve_read_us_p50": (micro(median(reads)), "us"),
            "serve_read_us_p99": (micro(percentile(reads, 0.99)), "us"),
            "serve_write_us_p50": (micro(median(writes)), "us"),
            "serve_write_us_p99": (micro(percentile(writes, 0.99)), "us"),
            "serve_sim_ms_p50": (median(simulated), "ms"),
            "serve_sim_ms_p99": (percentile(simulated, 0.99), "ms"),
            "schema_cost": (self.recommendation.total_cost, "cost"),
            "schema_mb": (self.recommendation.size / 1e6, "MB"),
            "transactions": (len(transactions), "count"),
        }

    def metrics(self):
        return {"step1_s": mean(self.samples["transaction"]),
                "step2_s": mean(self.samples["read"]),
                "step3_s": mean(self.samples["write"]),
                "schema_cost": self.recommendation.total_cost,
                "second_cost": median(self.samples["simulated_ms"]),
                "schema_mb": self.recommendation.size / 1e6}


WORKLOADS = {workload.name: workload
             for workload in (RubisAdvise, Template300, RubisServe)}
