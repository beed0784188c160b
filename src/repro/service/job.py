"""Jobs: submit a campaign, stream its progress, resume after a kill.

A :class:`Job` binds a :class:`~repro.service.spec.JobSpec` to an
optional :class:`~repro.service.store.JobStore` and runs it through the
:class:`~repro.service.queue.WorkQueue`:

* **ephemeral** (``store=None``) -- what ``Sweep.run`` uses: no disk
  state beyond the result cache, no signal handling, byte-identical to
  the pre-service synchronous sweep;
* **stored** -- the job directory journals every completed point, and
  SIGINT/SIGTERM trigger *cooperative preemption*: dispatch stops,
  in-flight points finish and are journaled, the job is marked
  ``preempted`` and :class:`JobPreempted` is raised with the resume
  handle.  Re-running the same job (``Job.load`` or resubmitting the
  identical spec) replays the journal and executes only the holes.

Point resolution order (per point, cheapest source wins):
journal -> result cache (parent-side get, counted on the caller's cache
object) -> execution.  Records always come back **in point order**,
whatever order workers finish in.
"""

from __future__ import annotations

import queue as _queue
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, ClassVar, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Type, TypeVar, Union)

from repro.checkpoint import CheckpointConfig
from repro.config import SystemConfig, default_config
from repro.runtime.cache import ResultCache
from repro.runtime.experiment import Experiment
from repro.runtime.record import RunRecord, config_fingerprint
from repro.runtime.sweep import Sweep
from repro.service.backends import as_result_cache
from repro.service.queue import WorkQueue
from repro.service.runners import SweepRunner, SweepState, get_runner
from repro.service.spec import JobSpec
from repro.service.store import JobStore, _maybe_store

__all__ = ["CampaignReport", "Job", "JobPreempted", "PointDone",
           "drive_study", "run_study"]


@dataclass(frozen=True)
class PointDone:
    """Streamed once per resolved point, as soon as it resolves."""

    job_id: str
    index: int
    total: int
    #: Points resolved so far, this one included.
    done: int
    #: Where the record came from: ``"run"`` (computed from t=0),
    #: ``"restored"`` (computed, resumed from a checkpoint), ``"cache"``
    #: or ``"journal"``.
    source: str
    record: RunRecord


class JobPreempted(RuntimeError):
    """Raised when SIGINT/SIGTERM preempted a stored job; the journal
    holds everything completed, so the job resumes from where it stopped."""

    def __init__(self, job_id: str, done: int, total: int):
        super().__init__(
            f"job {job_id} preempted after {done}/{total} points; "
            f"resume with Job.load(store, {job_id!r}).run() or "
            f"`python -m repro jobs resume {job_id}`")
        self.job_id = job_id
        self.done = done
        self.total = total


Progress = Callable[[PointDone], None]


class Job:
    """One submitted campaign: spec + optional store + run state."""

    def __init__(self, spec: JobSpec, store: Union[JobStore, str, None] = None,
                 *, state: Any = None, priority: int = 0):
        self.spec = spec
        self.store = _maybe_store(store)
        self.id = spec.job_id()
        self._runner = get_runner(spec.runner)
        self._state = (state if state is not None
                       else self._runner.init(self._materialize_payload()))
        self._cancelled = False
        #: Point-granularity preemption rank: while a job with a
        #: strictly higher priority executes in this process, this job
        #: stops dispatching new points until it finishes.
        self.priority = priority
        self._remote: Any = None
        self._cancel_checked_at = 0.0
        #: Source tally of the last run:
        #: {"journal": n, "cache": n, "restored": n, "run": n}.
        self.stats: Dict[str, int] = {}
        #: Dispatch tally of the last run (parallel/remote executions):
        #: {"local": n, "remote": n, "reissued": n}.
        self.queue_stats: Dict[str, int] = {}
        if self.store is not None:
            self._materialize_payload()
            self.store.submit(self.spec)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_sweep(cls, sweep: Any, config: Optional[SystemConfig] = None,
                   cache: Optional[ResultCache] = None,
                   store: Union[JobStore, str, None] = None,
                   checkpoint: Union["CheckpointConfig", int, None] = None,
                   priority: int = 0) -> "Job":
        """Wrap a :class:`~repro.runtime.sweep.Sweep` as a job.

        The caller's ``cache`` object is used directly for parent-side
        gets (its hit/miss counters keep working) and for inline puts;
        parallel workers reconstruct a cache on the same root and
        write through from their side.

        ``checkpoint`` arms periodic per-point checkpointing: pass a
        full :class:`~repro.checkpoint.CheckpointConfig`, or just an
        ``int`` interval in sim-ns -- the shorthand requires a stored
        job and puts the snapshots in the job's own checkpoint
        directory, where a resumed submission finds them again.
        """
        config = config or default_config()
        store = _maybe_store(store)
        spec = JobSpec(
            runner=SweepRunner.name,
            experiment=sweep.experiment.name,
            points=tuple(sweep.sweep_points()),
            config_fingerprint=config_fingerprint(config),
            cache_root=(str(cache.root) if cache is not None
                        and cache.root is not None else None),
        )
        if isinstance(checkpoint, int):
            if store is None:
                raise ValueError(
                    "checkpoint=<interval_ns> needs a stored job (pass "
                    "store=...), or pass a full CheckpointConfig with an "
                    "explicit directory")
            checkpoint = CheckpointConfig(
                directory=str(store.checkpoint_dir(spec.job_id())),
                interval_ns=checkpoint)
        state = SweepState(experiment=sweep.experiment, config=config,
                           cache=cache, checkpoint=checkpoint)
        return cls(spec, store=store, state=state, priority=priority)

    @classmethod
    def load(cls, store: Union[JobStore, str, None], job_id: str) -> "Job":
        """Rehydrate a stored job (e.g. to resume after a kill)."""
        store = _maybe_store(store) or JobStore()
        return cls(store.load(job_id), store=store)

    # ------------------------------------------------------------------ control
    def cancel(self) -> None:
        """Cooperatively stop: no new points dispatch, in-flight finish.

        Callable from a progress callback (fail-fast campaigns) or
        another thread.  The job's records list keeps ``None`` holes for
        the points that never ran.
        """
        self._cancelled = True

    def listen(self, address: Union[int, str, Tuple[str, int]] = 0
               ) -> Tuple[str, int]:
        """Open this job to remote workers; returns ``(host, port)``.

        ``address`` is a port (``0`` = ephemeral), ``"host:port"``, or a
        ``(host, port)`` tuple.  Workers join with ``python -m repro
        worker serve --connect HOST:PORT``; they are mixed with the
        local pool by the next :meth:`run`'s dispatcher and share this
        job's result cache through the connection.  The dispatcher is
        closed when the run finishes.
        """
        from repro.service.remote import RemoteDispatcher, _parse_hostport
        if self._remote is not None:
            return self._remote.address
        host, port = _parse_hostport(address, default_host="0.0.0.0")
        cache = getattr(self._state, "cache", None)
        self._remote = RemoteDispatcher(
            host, port, job_id=self.id, runner_name=self.spec.runner,
            payload=self._materialize_payload(),
            cache_backend=cache.backend if cache is not None else None)
        return self._remote.address

    def _cancel_poll(self, interval_s: float = 0.5) -> bool:
        """Throttled probe of the store's ``cancel.requested`` marker
        (the ``repro jobs cancel`` path); sticky once seen."""
        if self._cancelled or self.store is None:
            return self._cancelled
        now = time.monotonic()
        if now - self._cancel_checked_at < interval_s:
            return False
        self._cancel_checked_at = now
        if self.store.cancel_requested(self.id):
            self._cancelled = True
        return self._cancelled

    # --------------------------------------------------------------------- run
    def run(self, jobs: int = 1, progress: Optional[Progress] = None,
            *, window: Optional[int] = None) -> List[Optional[RunRecord]]:
        """Execute the job; returns records in point order.

        ``jobs`` local workers (``0`` = remote-only, needs a prior
        :meth:`listen`) plus any remote workers that join; ``window``
        caps in-flight points across all of them.  Every entry is a
        :class:`RunRecord` unless the job was cancelled mid-run (the
        unreached points stay ``None``).  Raises :class:`JobPreempted`
        if a stored job caught SIGINT/SIGTERM.
        """
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if jobs == 0 and self._remote is None:
            raise ValueError("jobs=0 is remote-only; call listen() first "
                             "so workers can join")
        self._cancelled = False
        self._cancel_checked_at = 0.0
        if self.store is not None:
            # A deliberate (re)run overrides any stale cancel marker.
            self.store.clear_cancel(self.id)
        points = self.spec.points
        total = len(points)
        records: List[Optional[RunRecord]] = [None] * total
        self.stats = {"journal": 0, "cache": 0, "restored": 0, "run": 0}
        done = 0

        def emit(index: int, record: RunRecord, source: str) -> None:
            nonlocal done
            records[index] = record
            done += 1
            self.stats[source] += 1
            if source in ("run", "restored") and self.store is not None:
                self.store.append_point(self.id, index, record)
            if progress is not None:
                progress(PointDone(job_id=self.id, index=index, total=total,
                                   done=done, source=source, record=record))

        # 1. Journal replay (stored jobs only): completed points are free.
        if self.store is not None:
            for index, record in sorted(self.store.completed(self.id).items()):
                if 0 <= index < total and records[index] is None:
                    emit(index, record, "journal")

        # 2. Result cache, probed in the submitting process.
        pending: List[int] = []
        for index, point in enumerate(points):
            if records[index] is not None:
                continue
            hit = self._runner.lookup(self._state, point)
            if hit is not None:
                emit(index, hit, "cache")
            else:
                pending.append(index)

        # 3. Execute the holes.
        preempted = threading.Event()
        restore = self._install_signal_handlers(preempted)
        if self.store is not None:
            self.store.set_meta(self.id, status="running", total=total,
                                done=done, experiment=self.spec.experiment)
        try:
            wq = WorkQueue(
                runner=self._runner, state=self._state,
                runner_name=self.spec.runner,
                payload=(self._materialize_payload()
                         if (jobs > 1 and len(pending) > 1)
                         or self._remote is not None else None),
                jobs=jobs, remote=self._remote, window=window,
                priority=self.priority)
            try:
                wq.execute(
                    pending, points,
                    on_done=emit,
                    should_stop=lambda: (self._cancelled
                                         or preempted.is_set()
                                         or self._cancel_poll()))
            finally:
                # Before a failure status is written: meta.json must hold
                # this run's tally, not the previous run's.
                self.queue_stats = dict(wq.stats)
        except BaseException:
            self._set_status("failed", done, total)
            raise
        finally:
            restore()
            if self._remote is not None:
                self._remote.close(final=True)
                self._remote = None
        if preempted.is_set():
            self._set_status("preempted", done, total)
            raise JobPreempted(self.id, done, total)
        if self._cancelled:
            self._set_status("cancelled", done, total)
            return records
        self._set_status("done", done, total)
        if self.store is not None:
            # Every point is journaled: snapshots have nothing left to
            # protect (prefix pools included).
            self.store.clear_checkpoints(self.id)
        return records

    def stream(self, jobs: int = 1) -> Iterator[PointDone]:
        """Iterator flavour of :meth:`run`: yields :class:`PointDone`
        events as points resolve (the run happens in a helper thread, so
        signal-based preemption is disabled; use :meth:`cancel`)."""
        events: _queue.Queue = _queue.Queue()
        outcome: Dict[str, Any] = {}

        def work() -> None:
            try:
                outcome["records"] = self.run(jobs=jobs, progress=events.put)
            except BaseException as exc:  # re-raised in the consumer
                outcome["error"] = exc
            finally:
                events.put(None)

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        while True:
            event = events.get()
            if event is None:
                break
            yield event
        worker.join()
        if "error" in outcome:
            raise outcome["error"]

    # ---------------------------------------------------------------- internals
    def records(self) -> List[Optional[RunRecord]]:
        """Journaled records (stored jobs), in point order, ``None`` holes."""
        out: List[Optional[RunRecord]] = [None] * len(self.spec.points)
        if self.store is not None:
            for index, record in self.store.completed(self.id).items():
                if 0 <= index < len(out):
                    out[index] = record
        return out

    def status(self) -> Dict[str, Any]:
        """Stored status plus live journal counts."""
        meta = dict(self.store.meta(self.id)) if self.store is not None else {}
        meta.setdefault("status", "ephemeral")
        meta["job_id"] = self.id
        meta["total"] = len(self.spec.points)
        meta["experiment"] = self.spec.experiment
        if self.store is not None:
            meta["journaled"] = len(self.store.completed(self.id))
            meta["checkpoints"] = len(self.store.checkpoints(self.id))
            if self.store.cancel_requested(self.id):
                meta["cancel_requested"] = True
        return meta

    def _set_status(self, status: str, done: int, total: int) -> None:
        if self.store is not None:
            self.store.set_meta(self.id, status=status, done=done, total=total,
                                sources=dict(self.stats),
                                dispatch=dict(self.queue_stats))

    def _materialize_payload(self) -> bytes:
        if self.spec.payload is None:
            payload = self._runner.payload_from_state(self._state)
            self.spec = replace(self.spec, payload=payload)
        return self.spec.payload

    def _install_signal_handlers(self, preempted: threading.Event
                                 ) -> Callable[[], None]:
        """Arm cooperative preemption on SIGINT/SIGTERM for stored jobs.

        Ephemeral jobs keep default delivery (KeyboardInterrupt /
        termination), preserving pre-service ``Sweep.run`` behaviour.
        The handler restores the previous disposition as it fires, so a
        second signal interrupts hard.
        """
        if (self.store is None
                or threading.current_thread() is not threading.main_thread()):
            return lambda: None
        previous: Dict[int, Any] = {}

        def on_signal(signum: int, frame: Any) -> None:
            preempted.set()
            for sig, old in previous.items():
                signal.signal(sig, old)

        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, on_signal)

        def restore() -> None:
            for sig, old in previous.items():
                if signal.getsignal(sig) is on_signal:
                    signal.signal(sig, old)
        return restore


# ------------------------------------------------------------------ campaigns
@dataclass
class CampaignReport:
    """The records of one campaign plus its pass/fail rollup.

    A study's report names the metric that decides whether a point
    passed (``ok_key``); the driver's fail-fast check reads the same key.
    """

    ok_key: ClassVar[str] = "ok"

    records: List[RunRecord] = field(default_factory=list)
    #: ``{"hits", "misses"}`` of the campaign's ResultCache, or ``None``
    #: when the campaign ran uncached.
    cache_stats: Optional[Dict[str, int]] = None
    #: The points the campaign was asked to run (a fail-fast cancel
    #: leaves ``records`` shorter).
    points: Sequence[Dict[str, Any]] = ()

    @classmethod
    def passed(cls, record: RunRecord) -> bool:
        return bool(record.metrics[cls.ok_key])

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> List[RunRecord]:
        return [r for r in self.records if not self.passed(r)]

    @property
    def ok(self) -> bool:
        return not self.failures


R = TypeVar("R", bound=CampaignReport)


def run_study(report: Type[R], experiment: Experiment,
              points: Sequence[Dict[str, Any]], *, jobs: int = 1,
              config: Optional[SystemConfig] = None, fail_fast: bool = False,
              cache: Any = None, store: Union[JobStore, str, None] = None,
              progress: Optional[Progress] = None,
              checkpoint: Union[CheckpointConfig, int, None] = None,
              listen: Union[int, str, Tuple[str, int], None] = None,
              priority: int = 0, window: Optional[int] = None) -> R:
    """Run ``experiment`` over ``points`` as one job; the one campaign
    driver behind the validate, faults, topo and congestion studies.

    * ``store`` (a :class:`JobStore` or path) journals the job: killing
      the campaign and resubmitting it re-runs only incomplete points;
    * ``cache`` (a ResultCache, a bare CacheBackend or a root path)
      reuses point records across campaigns;
    * ``progress`` receives one :class:`PointDone` per resolved point;
    * ``fail_fast`` cancels the job cooperatively on the first point
      that fails ``report.ok_key``: no new points are dispatched,
      in-flight points still finish, so parallel results stay
      deterministic;
    * ``checkpoint``, ``priority``, ``listen`` and ``window`` are
      :meth:`Job.from_sweep`'s, :meth:`Job.listen`'s and
      :meth:`Job.run`'s.
    """
    if not points:
        raise ValueError("empty campaign: no points to run")
    cache = as_result_cache(cache)
    job = Job.from_sweep(Sweep(experiment, points=points), config=config,
                         cache=cache, store=store, checkpoint=checkpoint,
                         priority=priority)
    records = drive_study(job, report, jobs=jobs, fail_fast=fail_fast,
                          progress=progress, listen=listen, window=window)
    return report(records=records,
                  cache_stats=cache.stats() if cache is not None else None,
                  points=points)


def drive_study(job: Job, report: Type[CampaignReport], *, jobs: int = 1,
                fail_fast: bool = False, progress: Optional[Progress] = None,
                listen: Union[int, str, Tuple[str, int], None] = None,
                window: Optional[int] = None) -> List[RunRecord]:
    """Run a fresh or reloaded campaign job; returns its completed
    records in point order (a fail-fast cancel drops the holes)."""
    if listen is not None:
        host, port = job.listen(listen)
        print(f"job {job.id} listening on {host}:{port} -- join with: "
              f"python -m repro worker serve --connect {host}:{port}",
              flush=True)

    def on_point(event: PointDone) -> None:
        if progress is not None:
            progress(event)
        if fail_fast and not report.passed(event.record):
            job.cancel()

    records = job.run(jobs=jobs, progress=on_point, window=window)
    return [r for r in records if r is not None]
