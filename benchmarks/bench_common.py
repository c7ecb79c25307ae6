"""Shared helpers for the benchmark harnesses.

Each benchmark module regenerates one figure of the paper's evaluation
(§VII).  Experiments measure *simulated* service time from the record
store's latency model; pytest-benchmark additionally reports the
wall-clock cost of representative operations.  Knobs:

``NOSE_BENCH_USERS``       RUBiS scale (default 20000; paper used 200000)
``NOSE_BENCH_ITERATIONS``  executions per transaction (default 20)
``NOSE_BENCH_MAX_FACTOR``  largest Fig 13 workload scale factor (default 4)

Result tables are printed and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

from repro import Advisor
from repro.backend import ExecutionEngine
from repro.rubis import (
    RubisParameterGenerator,
    TRANSACTIONS,
    expert_schema,
    generate_dataset,
    normalized_schema,
)

BENCH_USERS = int(os.environ.get("NOSE_BENCH_USERS", "20000"))
BENCH_ITERATIONS = int(os.environ.get("NOSE_BENCH_ITERATIONS", "20"))
BENCH_MAX_FACTOR = int(os.environ.get("NOSE_BENCH_MAX_FACTOR", "4"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: per-schema executor semantics: (reads shared within a transaction,
#: update protocol).  NoSE plans follow the paper's §VI-B protocol and
#: share nothing; the expert's hand plans share reads and upsert.
SCHEMA_EXECUTION = {
    "NoSE": (False, "nose"),
    "Normalized": (False, "nose"),
    "Expert": (True, "expert"),
}


def envelope():
    """Host and source of a measurement: CPU count, Python, numpy and
    scipy versions, machine, and the git commit (``dirty`` when the
    working tree differs from it; ``None`` outside a checkout)."""
    import platform
    import subprocess

    import numpy
    import scipy

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=pathlib.Path(__file__).parent,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "dirty": bool(status) if commit is not None else None,
    }


def write_result(name, text):
    """Persist one figure's table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    print(f"\n[written to {path}]")


def build_engine(model, recommendation, schema_name):
    """A loaded execution engine with the schema's executor semantics."""
    share, protocol = SCHEMA_EXECUTION[schema_name]
    dataset = generate_dataset(model, seed=7)
    engine = ExecutionEngine(model, recommendation, dataset,
                             share_reads=share, update_protocol=protocol)
    engine.load()
    return engine


def recommendations_for(model, workload):
    """Schema recommendations for all three designs."""
    advisor = Advisor(model)
    return {
        "NoSE": advisor.recommend(workload),
        "Normalized": advisor.plan_for_schema(workload,
                                              normalized_schema(model)),
        "Expert": advisor.plan_for_schema(workload,
                                          expert_schema(model)),
    }


def measure_transactions(engine, iterations=None, transactions=None,
                         seed=11):
    """Mean simulated response time (ms) per transaction."""
    iterations = iterations or BENCH_ITERATIONS
    generator = RubisParameterGenerator(engine.dataset, seed=seed)
    results = {}
    for transaction in (transactions or TRANSACTIONS):
        total = 0.0
        for _ in range(iterations):
            requests = generator.requests_for(transaction)
            total += engine.execute_transaction(requests)
        results[transaction] = total / iterations
    return results
