"""Benchmark entry point: one workload, one run, one result line.

    python3 perfbench/run.py --workload rubis-advise --seed 1 \
        --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the checkout the script sits in; without it the script exits with
code 2 before measuring anything.  With ``--trace 0`` the last line of
standard output is a JSON object whose ``metrics`` are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer metrics of a traced run.  Lines before it are a readable
report, and the full record (provenance, samples, per-layer table,
solver census) is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import sys
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put the checkout's ``src/`` first on the path and import it.

    The run is one thread: BLAS thread pools are capped at one thread
    before numpy loads (unless the caller set them), so library worker
    threads neither add to nor contend with the measured process.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SOURCE}")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import repro
    if pathlib.Path(repro.__file__).resolve().parent \
            != (SOURCE / "repro").resolve():
        _fail("imported repro from outside the checkout")


# -- provenance -----------------------------------------------------------------


def _git_commit():
    """HEAD's commit id read from ``.git``, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over every program source file: identifies the code
    measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def envelope(args):
    import numpy
    import scipy
    return {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- runs -----------------------------------------------------------------------


def _report(workload):
    from workloads import median

    report = workload.report()
    report["setup_s"] = (median(workload.samples["setup"]), "s")
    report["failed_frac"] = (len(workload.failures)
                             / max(workload.attempted, 1), "ratio")
    report["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return report


def measure(workload, seconds):
    """The untraced run behind the end-to-end metrics."""
    workload.run(seconds)
    workload.finish()
    report = _report(workload)
    metrics = workload.metrics()
    metrics["setup_s"] = report["setup_s"][0]
    metrics["peak_rss_mb"] = report["peak_rss_mb"][0]
    return report, metrics, {}


def traced(workload, seconds):
    """An untraced then a traced pass; per-layer metrics and trace
    cross-checks from the traced one."""
    import layers
    from spans import Tracer, instrument

    workload.run(seconds / 2, first_step_only=True)
    untraced = dict(workload.samples)
    workload.samples.clear()
    with instrument(Tracer()) as tracer:
        workload.tracer = tracer
        workload.run(seconds / 2)
        workload.finish()
    report = _report(workload)
    metrics, detail = layers.per_layer(tracer, workload, untraced)
    return report, metrics, detail


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _print_report(record):
    print(f"perfbench {record['envelope']['workload']} "
          f"seed={record['envelope']['seed']} "
          f"trace={record['envelope']['trace']}")
    print("envelope " + json.dumps(record["envelope"], sort_keys=True))
    for name, (value, unit) in sorted(record["report"].items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>14} {unit}")
    detail = record["detail"]
    if "stages" in detail:
        print("  stage spans of the traced cold advise "
              "(outside-in vs stage_breakdown):")
        for stage, entry in detail["stages"].items():
            print(f"    {stage:<18} outside {entry['outside_s']:9.4f} s"
                  f"  inside {entry['inside_s']:9.4f} s"
                  f"  gap {entry['gap_s']:+9.4f} s")
        print("  shares: " + ", ".join(
            f"{name} {share:.1%}"
            for name, share in detail["shares"].items()))
        print(f"  solver census ({len(detail['census'])} milp calls, "
              f"per call in the record; the LP gate arms at "
              f"{detail['lp_gate_columns']} binary columns):")
        groups = {}
        for entry in detail["census"]:
            key = (entry["region"], entry["source"], entry["phase"])
            groups.setdefault(key, []).append(entry)
        for (region, source, phase), entries in groups.items():
            gaps = [entry["gap"] for entry in entries
                    if entry["gap"] is not None]
            print(f"    {region:<8} {source:<9} {phase:<7} "
                  f"calls {len(entries):>3}  "
                  f"{sum(entry['seconds'] for entry in entries):8.3f} s  "
                  f"limit hits "
                  f"{sum(entry['time_limit_hit'] for entry in entries)}  "
                  f"max gap {max(gaps, default=0.0):.2e}  "
                  f"nodes {sum(entry['nodes'] for entry in entries)}  "
                  f"binary columns "
                  f"{max(entry['binary_columns'] for entry in entries)}")
    for message in record["failures"]:
        print(f"  FAILED: {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {', '.join(sorted(WORKLOADS))}")
    # plan-cap truncation warnings are expected on these workloads
    warnings.simplefilter("ignore")
    workload = WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else measure
    report, metrics, detail = run(workload, args.seconds)
    units = _units(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    record = {
        "envelope": envelope(args),
        "report": report,
        "failures": workload.failures,
        "samples": {name: values
                    for name, values in workload.samples.items()
                    if len(values) <= 64},
        "detail": detail,
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True,
                                       default=str) + "\n")
    _print_report(record)
    result = {
        "correct": not workload.failures,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _units(trace):
    """``{metric: unit}`` of the metric list this run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
