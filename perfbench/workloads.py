"""The three workloads: their inputs (from the seed) and their run loops.

All three are closed loops with one client: the next point is submitted
only after the previous one (or the previous job) completed.  The
workload seed picks every point's data/traffic seed and the point order;
the program only ever receives the generated point dicts.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import hostspeed
from layers import COUNTERS
from spans import SpanRecorder

__all__ = ["WORKLOADS", "Pass", "Workload", "digest"]

# ---------------------------------------------------------------- the grids
_COLLECTIVE_TOPOLOGIES = ("star", "fat-tree", "dragonfly")
_COLLECTIVE_SCHEDULES = ("ring", "halving-doubling", "alltoall")
_STRATEGIES = ("gputn", "gds", "hdn")

_CONGESTION_LOADS = (0.5, 0.8, 1.5)
#: (transport, queue discipline): the congestion-controlled pairing and
#: plain go-back-N on drop-tail queues.
_CONGESTION_STACKS = (("selective-repeat", "red-ecn"),
                      ("go-back-n", "drop-tail"))

_CAMPAIGN_TOPOLOGIES = ("star", "fat-tree:k=4")
_CAMPAIGN_SCHEDULES = ("ring", "recursive-doubling", "halving-doubling",
                       "allgather", "reduce-scatter", "alltoall")


def _seeded(points: List[Dict[str, Any]], seed: int) -> List[Dict[str, Any]]:
    """Give every point its own seed drawn from ``seed``, then shuffle."""
    rng = random.Random(seed)
    for point in points:
        point["seed"] = rng.randrange(1, 2 ** 31)
    rng.shuffle(points)
    return points


def collective_points(seed: int) -> List[Dict[str, Any]]:
    """36 ``CollectiveExperiment`` points: every topology x schedule x
    strategy at 16 nodes, plus GPU-TN at 32 and 64 nodes (the persistent
    kernel at scale) on halving-doubling, and alltoall at 32."""
    grid = [(t, s, st, 16) for t in _COLLECTIVE_TOPOLOGIES
            for s in _COLLECTIVE_SCHEDULES for st in _STRATEGIES]
    grid += [(t, "halving-doubling", "gputn", n)
             for t in _COLLECTIVE_TOPOLOGIES for n in (32, 64)]
    grid += [(t, "alltoall", "gputn", 32) for t in _COLLECTIVE_TOPOLOGIES]
    return _seeded([{"topology": t, "schedule": s, "strategy": st,
                     "n_nodes": n, "nbytes": 64 * 1024}
                    for t, s, st, n in grid], seed)


def congestion_points(seed: int) -> List[Dict[str, Any]]:
    """36 ``CongestionExperiment`` points on the 16-node fat tree: load x
    transport stack x strategy, twice, each with its own traffic seed (a
    point's cost depends on its traffic draw; two draws per case halve
    how much one unlucky draw moves a run's figures).

    The app's default 32 foreground messages ride over 15 us of
    background traffic instead of its default 120 us: a default-size
    point costs ~7x more host time, too much for the 100 samples a run
    needs for p90 (README: point size)."""
    return _seeded([{"load": load, "transport": transport,
                     "discipline": discipline, "strategy": st,
                     "messages": 32, "bg_horizon_ns": 15_000}
                    for load in _CONGESTION_LOADS
                    for transport, discipline in _CONGESTION_STACKS
                    for st in _STRATEGIES
                    for _draw in range(2)], seed)


def campaign_points(seed: int) -> List[Dict[str, Any]]:
    """144 cheap ``CollectiveExperiment`` points (a few ms each) over the
    star and a k=4 fat tree.  The fat-tree half never hits the result
    cache today (see README: config fingerprint defect)."""
    return _seeded([{"topology": t, "schedule": s, "strategy": st,
                     "n_nodes": n, "nbytes": nbytes}
                    for t in _CAMPAIGN_TOPOLOGIES
                    for s in _CAMPAIGN_SCHEDULES for st in _STRATEGIES
                    for n in (2, 4) for nbytes in (4096, 16384)], seed)


def _collective_ok(record: Any) -> bool:
    return bool(record.metrics["correct"]) and record.hazards == 0


def _congestion_ok(record: Any) -> bool:
    return bool(record.metrics["ok"]) and record.hazards == 0


def digest(record_jsons: List[Optional[str]]) -> str:
    """sha256 over the records of one pass, in point order."""
    h = hashlib.sha256()
    for text in record_jsons:
        h.update((text if text is not None else "<failed>").encode())
        h.update(b"\n")
    return h.hexdigest()


def _cpu_s(children: bool) -> float:
    t = os.times()
    own = t.user + t.system
    return own + (t.children_user + t.children_system if children else 0.0)


# ------------------------------------------------------------- one pass
@dataclass
class Pass:
    """One closed-loop pass over a point list (or one campaign cycle).

    Every duration of a direct pass is in seconds at the reference host
    speed (see :mod:`hostspeed`); ``raw_s`` keeps the unscaled total for
    reference.  A campaign cycle's job durations (``wall_s``, ``cpu_s``,
    ``warm_wall_s``) are unscaled: ``run.py`` scales them by the run's
    median ``job_probes``.
    """

    #: Direct passes: the sum of ``point_s``; campaign: the cold job.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_s: float = 0.0
    points: int = 0
    #: Points run or resolved (a campaign cycle resolves each point in the
    #: cold and the warm job, and in its first cycles once more directly).
    attempted: int = 0
    failed: int = 0
    #: Wall and process CPU seconds of each direct ``execute`` call,
    #: including the collection of the garbage it left.
    point_s: List[float] = field(default_factory=list)
    point_cpu_s: List[float] = field(default_factory=list)
    #: Calibration-loop seconds measured around the timed units.
    probes: List[float] = field(default_factory=list)
    records: List[Optional[str]] = field(default_factory=list)
    counters: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    # Campaign only.
    warm_wall_s: float = 0.0
    warm_points: int = 0
    #: Calibration-loop seconds measured before and after each job.
    job_probes: List[float] = field(default_factory=list)
    service: Dict[str, Any] = field(default_factory=lambda: {
        "lookups": 0, "hits": 0, "reissued": 0, "overhead_ms_per_point": 0.0})

    @property
    def points_per_s(self) -> float:
        return self.points / self.wall_s


def _count(counters: Dict[str, int], execution: Any) -> None:
    record, cluster = execution.record, execution.cluster
    metrics = record.metrics
    queue = metrics.get("queue") or {}
    background = metrics.get("background") or {}
    counters["points"] += 1
    counters["sim_events"] += cluster.sim.events_processed
    counters["fired"] += sum(node.nic.trigger_list.stats["fired"]
                             for node in cluster.nodes)
    counters["drops"] += queue.get("dropped", 0)
    counters["ecn_marks"] += queue.get("ecn_marked", 0)
    counters["retransmits"] += record.transport.get("retransmits", 0)
    counters["tx_data"] += record.transport.get("tx_data", 0)
    counters["hazards"] += record.hazards
    counters["traffic_messages"] += background.get("offered", 0)


def _direct_pass(experiment: Any, points: List[Dict[str, Any]],
                 ok: Callable[[Any], bool],
                 rec: Optional[SpanRecorder]) -> Pass:
    """Execute every point in order with ``Experiment.execute``.

    Every object alive before the pass (modules, the benchmark's own
    state) is frozen for its duration, so the collection after each point
    reclaims that point's garbage without walking the rest of the heap: a
    full walk cost more than a cheap campaign point itself.
    """
    gc.collect()
    gc.freeze()
    try:
        return _points(experiment, points, ok, rec)
    finally:
        gc.unfreeze()


def _points(experiment: Any, points: List[Dict[str, Any]],
            ok: Callable[[Any], bool], rec: Optional[SpanRecorder]) -> Pass:
    result = Pass()
    before = hostspeed.probe()
    result.probes.append(before)
    for index, point in enumerate(points):
        if rec is not None:
            rec.point = f"point:{index}"
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if rec is not None:
                with rec.span("point"):
                    execution = experiment.execute(point)
            else:
                execution = experiment.execute(point)
        except Exception as exc:  # a failed point is counted, not fatal
            execution = None
            print(f"point {index} raised {type(exc).__name__}: {exc}")
        if execution is None:
            record = None
        else:
            record = execution.record
            _count(result.counters, execution)
            execution = None
        # The point pays for collecting its own cyclic garbage (its whole
        # cluster) inside its timed interval.  Collecting after every point
        # keeps the peak RSS, and which point pays for a collection, from
        # depending on the point order, which changes with the seed.
        gc.collect()
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if record is None:
            result.failed += 1
            result.records.append(None)
        else:
            result.records.append(record.to_json())
            if not ok(record):
                result.failed += 1
                print(f"point {index} failed its check: {point}")
        after = hostspeed.probe()
        k = hostspeed.scale(before, after)
        before = after
        result.probes.append(after)
        result.raw_s += dt
        result.point_s.append(dt * k)
        result.point_cpu_s.append(cpu * k)
    result.wall_s = sum(result.point_s)
    result.cpu_s = sum(result.point_cpu_s)
    result.points = result.attempted = len(points)
    if rec is not None:
        rec.point = None
    return result


def _collective() -> Any:
    from repro.collectives.engine import CollectiveExperiment
    return CollectiveExperiment()


def _congestion() -> Any:
    from repro.apps.congestion import CongestionExperiment
    return CongestionExperiment()


# ------------------------------------------------------------- workloads
class Workload:
    """A named point list plus the pass that runs it."""

    def __init__(self, name: str,
                 points: Callable[[int], List[Dict[str, Any]]],
                 experiment: Callable[[], Any], ok: Callable[[Any], bool]):
        self.name = name
        self.points = points
        self.experiment = experiment
        self.ok = ok

    def prepare(self, seed: int, workdir: str) -> Dict[str, Any]:
        """Everything a pass needs, built before the first timed call."""
        return {"experiment": self.experiment(), "points": self.points(seed),
                "workdir": workdir}

    def run_pass(self, ctx: Dict[str, Any], index: int,
                 rec: Optional[SpanRecorder] = None) -> Pass:
        return _direct_pass(ctx["experiment"], ctx["points"], self.ok, rec)


#: Campaign cycles that also run every point directly (the reference
#: records and timings); later cycles run only the two jobs, so a run
#: holds more job samples.
DIRECT_CYCLES = 2


class CampaignWorkload(Workload):
    """Cold submission, warm resubmission, then (in the first
    :data:`DIRECT_CYCLES` cycles) the same points run directly."""

    def prepare(self, seed: int, workdir: str) -> Dict[str, Any]:
        ctx = super().prepare(seed, workdir)
        import repro.service.job  # noqa: F401  (imported during set-up)

        os.makedirs(workdir, exist_ok=True)
        ctx["jobs"] = len(os.sched_getaffinity(0))
        return ctx

    @staticmethod
    def _job(ctx: Dict[str, Any], cache: Any, store_dir: str,
             rec: Optional[SpanRecorder], phase: str) -> tuple:
        """Submit the grid as one stored job; returns the records' JSON,
        unscaled wall and CPU seconds, the reissue count and the probes
        taken before and after."""
        from repro.runtime import Sweep
        from repro.service.job import Job
        from repro.service.store import JobStore

        job = Job.from_sweep(Sweep(ctx["experiment"], points=ctx["points"]),
                             cache=cache, store=JobStore(store_dir))
        if rec is not None:
            rec.point = phase
        before = hostspeed.probe_all(ctx["jobs"])
        cpu0 = _cpu_s(children=True)
        start = time.perf_counter()
        try:
            records = job.run(jobs=ctx["jobs"])
        finally:
            if rec is not None:
                rec.point = None
        wall = time.perf_counter() - start
        cpu = _cpu_s(children=True) - cpu0
        texts = [r.to_json() if r is not None else None for r in records]
        return (texts, wall, cpu, job.queue_stats.get("reissued", 0),
                [before, hostspeed.probe_all(ctx["jobs"])])

    def run_pass(self, ctx: Dict[str, Any], index: int,
                 rec: Optional[SpanRecorder] = None) -> Pass:
        from repro.runtime.cache import ResultCache

        base = os.path.join(ctx["workdir"], f"cycle{index}")
        cache = ResultCache(os.path.join(base, "cache"))
        try:
            cold, cold_wall, cold_cpu, cold_reissued, cold_probes = self._job(
                ctx, cache, os.path.join(base, "cold"), rec, "cold")
            lookups0, hits0 = cache.hits + cache.misses, cache.hits
            warm, warm_wall, _cpu, warm_reissued, warm_probes = self._job(
                ctx, cache, os.path.join(base, "warm"), rec, "warm")
            lookups = cache.hits + cache.misses - lookups0
            hits = cache.hits - hits0
        finally:
            shutil.rmtree(base, ignore_errors=True)
        n = len(ctx["points"])
        if index < DIRECT_CYCLES:
            result = _direct_pass(ctx["experiment"], ctx["points"], self.ok,
                                  rec)
            result.attempted = 3 * n
            ctx.setdefault("direct", (result.records, result.wall_s))
        else:
            result = Pass(records=cold, points=n, attempted=2 * n)
        reference, direct_s = ctx["direct"]
        # The service must hand back exactly what direct execution makes.
        for phase, texts in (("cold", cold), ("warm", warm)):
            bad = sum(a != b for a, b in zip(texts, reference))
            if bad:
                print(f"{phase} job: {bad} records differ from direct "
                      "execution")
                result.failed += bad
        result.service = {
            "lookups": lookups, "hits": hits,
            "reissued": cold_reissued + warm_reissued,
            "overhead_ms_per_point":
                (cold_wall * hostspeed.scale(*cold_probes) * ctx["jobs"]
                 - direct_s) / n * 1e3,
        }
        result.wall_s, result.cpu_s = cold_wall, cold_cpu
        result.warm_wall_s, result.warm_points = warm_wall, n
        result.job_probes = cold_probes + warm_probes
        return result


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("point-collective", collective_points, _collective,
             _collective_ok),
    Workload("point-congestion", congestion_points, _congestion,
             _congestion_ok),
    CampaignWorkload("campaign", campaign_points, _collective,
                     _collective_ok),
)}
