"""Measurement core: time workloads, aggregate, serialize.

Methodology
-----------

* Each workload runs ``repeat`` times; the *best* (minimum) wall time is
  reported, per standard microbenchmarking practice -- noise from the OS
  only ever makes a run slower, so the minimum is the best estimate of
  the true cost.  All raw per-run timings are kept in the report.
* Wall time is :func:`time.perf_counter` around the workload call
  (construction included -- that is what a sweep pays per point).
* ``gc.collect()`` runs before every timed run so one workload's garbage
  is not billed to the next.
* Peak RSS is ``ru_maxrss`` (process-lifetime high-water mark, so it is
  reported once for the whole bench, not per workload).
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.bench.workloads import WORKLOADS

__all__ = ["DEFAULT_REPORT_PATH", "WORKLOADS", "BenchReport",
           "WorkloadResult", "compare_to_baseline", "measure_workload",
           "run_bench"]

#: Where ``repro bench --json`` writes by default (repo-root convention).
DEFAULT_REPORT_PATH = "BENCH_core.json"

#: Schema version of the JSON report (bump on breaking layout changes).
SCHEMA_VERSION = 1


@dataclass
class WorkloadResult:
    """Timing for one workload across all repeats."""

    name: str
    events: int
    best_wall_s: float
    wall_s: List[float] = field(default_factory=list)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.best_wall_s if self.best_wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "best_wall_s": round(self.best_wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "wall_s": [round(w, 6) for w in self.wall_s],
        }


@dataclass
class BenchReport:
    """One full bench run: per-workload results plus environment."""

    repeat: int
    results: List[WorkloadResult] = field(default_factory=list)
    peak_rss_kb: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_by": "repro bench",
            "repeat": self.repeat,
            "python": platform.python_version(),
            "platform": sys.platform,
            "peak_rss_kb": self.peak_rss_kb,
            "workloads": {r.name: r.to_dict() for r in self.results},
        }

    def write(self, path: str = DEFAULT_REPORT_PATH) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def measure_workload(name: str, repeat: int) -> WorkloadResult:
    """Time one workload ``repeat`` times; ``events`` is the event count
    of the last run."""
    fn = WORKLOADS[name]
    events = 0
    walls: List[float] = []
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        events = fn()
        walls.append(time.perf_counter() - t0)
    return WorkloadResult(name=name, events=int(events),
                          best_wall_s=min(walls), wall_s=walls)


def compare_to_baseline(report: BenchReport, baseline: Dict[str, object],
                        max_drop: float = 0.20) -> List[str]:
    """Regression gate: rate drops beyond ``max_drop`` vs ``baseline``.

    ``baseline`` is a parsed BENCH_core.json document.  Returns one
    human-readable line per workload whose ``events_per_sec`` fell more
    than ``max_drop`` (fraction) below the baseline's -- empty means the
    gate passes.  Workloads present on only one side are ignored: the
    gate guards the perf trajectory, not the workload roster.  Single-
    repeat runs are noisy (the committed methodology is repeat >= 3, see
    DESIGN.md §10); the gate still works on them, just expect flakes.
    """
    if not 0 < max_drop < 1:
        raise ValueError(f"max_drop must be in (0, 1), got {max_drop}")
    base_workloads = baseline.get("workloads", {})
    failures: List[str] = []
    for result in report.results:
        base = base_workloads.get(result.name)
        if not base:
            continue
        base_rate = float(base.get("events_per_sec", 0.0))
        if base_rate <= 0:
            continue
        floor = base_rate * (1.0 - max_drop)
        if result.events_per_sec < floor:
            failures.append(
                f"{result.name}: {result.events_per_sec:,.0f} ev/s is "
                f"{100 * (1 - result.events_per_sec / base_rate):.1f}% below "
                f"baseline {base_rate:,.0f} ev/s (allowed drop: "
                f"{100 * max_drop:.0f}%)")
    return failures


def run_bench(workloads: Optional[Iterable[str]] = None, repeat: int = 3,
              quiet: bool = False) -> BenchReport:
    """Run the selected ``workloads`` (default: all) ``repeat`` times each,
    inline in this process: timings must not pay fork, pickle or
    journal overhead."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    picks = list(workloads) if workloads is not None else list(WORKLOADS)
    unknown = [w for w in picks if w not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; available: {list(WORKLOADS)}")
    report = BenchReport(repeat=repeat)
    for name in picks:
        result = measure_workload(name, repeat)
        report.results.append(result)
        if not quiet:
            print(f"{result.name:<12} events={result.events:>9,} "
                  f"best={result.best_wall_s:.3f}s "
                  f"rate={result.events_per_sec:>12,.0f} ev/s")
    report.peak_rss_kb = _peak_rss_kb()
    if not quiet and report.peak_rss_kb is not None:
        print(f"peak rss    {report.peak_rss_kb:,} KiB")
    return report
