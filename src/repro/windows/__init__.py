"""Time-windowed schema advising with costed migrations.

The source paper advises one schema for one weighted workload; real
workloads run in *phases* — RUBiS browsing by day, bidding by night —
and the successor work ("NoSQL Schema Design for Time-Dependent
Workloads") co-optimizes the schema *schedule*: which column families
to hold in each window and which migrations to run between them,
with data movement priced in the same cost units as serving.

This package supplies that layer over the existing pipeline:

* :class:`WindowSchedule` / :class:`WorkloadWindow` — an ordered
  sequence of (mix, request volume) windows over the workload's
  existing mix machinery, strictly validated against known mixes;
* :func:`recommend_windows` — the entry point: one union prepare
  through the incremental pipeline, static and naive-per-window
  baselines, then the windowed solve (never worse than either).  The
  windowed program is the advisor's own BIP
  (:func:`repro.optimizer.bip.solve_schedule`): one signature-class
  block per window plus migration columns priced by a
  :class:`~repro.tools.migration.MigrationCostModel`, and every
  schedule is scored by
  :meth:`~repro.optimizer.OptimizationProblem.evaluate`;
* :func:`replan_from_monitor` — the drift-monitor bridge: decide
  migrate-or-hold for an observed mix instead of only pricing regret;
* :func:`windows_document` — the byte-stable "nose-windows/1" document
  behind ``nose-advisor windows``.
"""

from repro.windows.advisor import (
    WindowedRecommendation,
    WindowResult,
    recommend_windows,
    replan_from_monitor,
)
from repro.windows.document import WINDOWS_FORMAT, windows_document
from repro.windows.scenario import rubis_drift_scenario
from repro.windows.schedule import (
    WindowSchedule,
    WorkloadWindow,
    parse_window_spec,
)

__all__ = [
    "WINDOWS_FORMAT",
    "WindowSchedule",
    "WindowedRecommendation",
    "WindowResult",
    "WorkloadWindow",
    "parse_window_spec",
    "recommend_windows",
    "replan_from_monitor",
    "rubis_drift_scenario",
    "windows_document",
]
