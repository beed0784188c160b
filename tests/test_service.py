"""The service layer: specs, stores, jobs -- and the kill/resume contract.

The acceptance properties of DESIGN.md §11: job ids are content
addressed (resubmit == resume), the journal makes completed points free
on resume, cooperative preemption (cancel or SIGINT/SIGTERM) never loses
a completed point, and records coming out of the service path are
byte-identical to a plain serial sweep.
"""

import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.collectives import AllreduceExperiment
from repro.config import default_config
from repro.runtime import Sweep
from repro.runtime.experiment import Experiment
from repro.runtime.record import (RunRecord, canonical_json,
                                  config_fingerprint, make_cache_key)
from repro.service import Job, JobPreempted, JobSpec, JobStore
from repro.service import queue as queue_mod
from repro.service.runners import SweepRunner, SweepState
from repro.version import __version__

SRC = str(Path(__file__).resolve().parent.parent / "src")
HELPER = str(Path(__file__).resolve().parent / "_service_workload.py")
CKPT_HELPER = str(Path(__file__).resolve().parent / "_checkpoint_workload.py")


def _sweep() -> Sweep:
    return Sweep(AllreduceExperiment(),
                 grid={"strategy": ["cpu", "gputn"], "n_nodes": [2, 3]},
                 base={"nbytes": 16 * 1024})


def _spec(**over) -> JobSpec:
    fields = dict(runner="bench", experiment="bench",
                  points=({"workload": "engine", "repeat": 1},
                          {"workload": "jacobi", "repeat": 1}),
                  config_fingerprint="bench", payload=b"")
    fields.update(over)
    return JobSpec(**fields)


def _record(index: int) -> RunRecord:
    return RunRecord(experiment="svc", params={"i": index},
                     config_fingerprint="cafebabe00000000",
                     metrics={"value": index * 10})


class TestJobSpec:
    def test_id_is_content_addressed(self):
        assert _spec().job_id() == _spec().job_id()
        assert len(_spec().job_id()) == 12

    def test_id_tracks_the_work(self):
        base = _spec().job_id()
        assert _spec(points=({"workload": "engine", "repeat": 2},)
                     ).job_id() != base
        assert _spec(experiment="other").job_id() != base
        assert _spec(config_fingerprint="deadbeef").job_id() != base

    def test_id_ignores_cache_location_and_payload(self):
        # Same campaign pointed at a different cache, or re-pickled, is
        # still the same work -- resubmission must find the old journal.
        base = _spec().job_id()
        assert _spec(cache_root="/elsewhere").job_id() == base
        assert _spec(payload=b"different-pickle").job_id() == base

    def test_round_trips_through_json(self):
        spec = _spec(payload=b"\x00\x01binary")
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.job_id() == spec.job_id()

    def test_unmaterialized_payload_cannot_persist(self):
        with pytest.raises(ValueError, match="payload"):
            _spec(payload=None).to_json()

    def test_unknown_format_rejected(self):
        doc = _spec().to_json().replace('"format":1', '"format":99')
        with pytest.raises(ValueError, match="format"):
            JobSpec.from_json(doc)


class TestJobStore:
    def test_create_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create(_spec())
        original = (tmp_path / job_id / "spec.json").read_bytes()
        # Resubmission with a different (non-identity) payload must not
        # clobber the stored spec -- the journal belongs to the original.
        assert store.create(_spec(payload=b"other")) == job_id
        assert (tmp_path / job_id / "spec.json").read_bytes() == original

    def test_load_missing_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="no job"):
            JobStore(tmp_path).load("doesnotexist")

    def test_journal_round_trip_skips_torn_tail(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create(_spec())
        store.append_point(job_id, 0, _record(0))
        store.append_point(job_id, 3, _record(3))
        journal = tmp_path / job_id / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"index": 5, "record": {"exp')  # killed mid-append
        done = store.completed(job_id)
        assert sorted(done) == [0, 3]
        assert done[3].metrics == {"value": 30}

    def test_journal_line_matches_canonical_form(self, tmp_path):
        """The spliced journal line equals the canonical_json of the
        parsed record, byte for byte, on a record with every optional
        section populated."""
        record = RunRecord(
            experiment="svc", params={"n": 4, "topology": "fat-tree:k=4"},
            config_fingerprint="cafebabe00000000",
            metrics={"total_ns": 1234, "ratio": 0.1 + 0.2, "ok": True,
                     "label": "caf\u00e9", "none": None},
            hazards=2,
            spans=(("node0", "gpu", "kernel", 0, 10),
                   ("node1", "nic", "put", 5, 25)),
            transport={"retransmits": 3, "timeouts": 1},
            telemetry={"counters": {"nic.post": 7},
                       "histograms": {"lat": [1.5, 2.25]}})
        store = JobStore(tmp_path)
        job_id = store.create(_spec())
        for index in (0, 17, 123456):
            store.append_point(job_id, index, record)
        lines = (tmp_path / job_id / "journal.jsonl").read_text().splitlines()
        assert lines == [canonical_json({"index": index,
                                         "record": json.loads(record.to_json())})
                         for index in (0, 17, 123456)]
        assert store.completed(job_id)[17].to_json() == record.to_json()

    def test_meta_merges(self, tmp_path):
        store = JobStore(tmp_path)
        store.set_meta("j1", status="running", total=8)
        store.set_meta("j1", status="done", done=8)
        assert store.meta("j1") == {"status": "done", "total": 8, "done": 8}

    def test_jobs_listed_sorted_and_discardable(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.create(_spec())
        b = store.create(_spec(experiment="other"))
        assert store.jobs() == sorted([a, b])
        assert store.discard(a) is True
        assert store.discard(a) is False
        assert store.jobs() == [b]


class TestJobLifecycle:
    def test_stream_yields_every_point_in_resolve_order(self):
        job = Job.from_sweep(_sweep())
        events = list(job.stream())
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert {e.source for e in events} == {"run"}
        serial = [r.to_json() for r in _sweep().run()]
        by_index = [e.record.to_json()
                    for e in sorted(events, key=lambda e: e.index)]
        assert by_index == serial

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            Job.from_sweep(_sweep()).run(jobs=0)

    def test_cancel_leaves_none_holes_and_resume_completes(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sweep(), store=store)

        def stop_after_two(event) -> None:
            if event.done == 2:
                job.cancel()

        partial = job.run(progress=stop_after_two)
        assert partial[:2] != [None, None] and partial[2:] == [None, None]
        assert job.status()["status"] == "cancelled"
        assert job.stats == {"journal": 0, "cache": 0, "restored": 0, "run": 2}

        # Resubmitting the identical campaign resumes: same id, the two
        # journaled points replay, only the holes execute.
        again = Job.from_sweep(_sweep(), store=store)
        assert again.id == job.id
        records = again.run()
        assert again.stats == {"journal": 2, "cache": 0, "restored": 0, "run": 2}
        assert again.status()["status"] == "done"
        serial = [r.to_json() for r in _sweep().run()]
        assert [r.to_json() for r in records] == serial

    def test_load_rehydrates_from_disk_alone(self, tmp_path):
        store = JobStore(tmp_path)
        submitted = Job.from_sweep(_sweep(), store=store)
        submitted.run()
        # A fresh process would hold no live objects -- only the store.
        resumed = Job.load(store, submitted.id)
        records = resumed.run()
        assert resumed.stats["journal"] == 4 and resumed.stats["run"] == 0
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in _sweep().run()])

    def test_sigterm_preempts_and_resume_finishes(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sweep(), store=store)

        def kill_after_two(event) -> None:
            if event.done == 2:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(JobPreempted) as caught:
            job.run(progress=kill_after_two)
        assert caught.value.job_id == job.id
        assert caught.value.done == 2
        assert job.status()["status"] == "preempted"
        assert len(store.completed(job.id)) == 2

        resumed = Job.load(store, job.id)
        records = resumed.run()
        assert resumed.stats == {"journal": 2, "cache": 0, "restored": 0, "run": 2}
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in _sweep().run()])

    def test_signal_disposition_restored_after_run(self, tmp_path):
        before = (signal.getsignal(signal.SIGINT),
                  signal.getsignal(signal.SIGTERM))
        Job.from_sweep(_sweep(), store=JobStore(tmp_path)).run()
        assert (signal.getsignal(signal.SIGINT),
                signal.getsignal(signal.SIGTERM)) == before


class TestKillResume:
    """A real process killed mid-campaign resumes from its journal."""

    def _launch(self, tmp_path, seeds=12, delay=0.05):
        return subprocess.Popen(
            [sys.executable, HELPER, str(tmp_path / "jobs"), str(seeds),
             str(delay)],
            stdout=subprocess.PIPE, text=True, bufsize=1,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})

    def _wait_for_cases(self, proc, n) -> None:
        seen = 0
        for line in proc.stdout:
            if line.startswith("case "):
                seen += 1
                if seen >= n:
                    return
        pytest.fail(f"helper exited after {seen} cases, wanted {n}")

    @pytest.mark.parametrize("sig,expect_rc", [
        (signal.SIGTERM, 130),   # cooperative: handler marks preempted
        (signal.SIGKILL, -9),    # hard kill: journal alone must suffice
    ])
    def test_kill_then_resume_reruns_only_holes(self, tmp_path, sig,
                                                expect_rc):
        seeds = 12
        proc = self._launch(tmp_path, seeds=seeds)
        try:
            self._wait_for_cases(proc, 3)
            proc.send_signal(sig)
            rc = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            proc.kill()
        assert rc == expect_rc

        store = JobStore(tmp_path / "jobs")
        (job_id,) = store.jobs()
        journaled = len(store.completed(job_id))
        assert 0 < journaled < seeds, "signal must land mid-campaign"

        resumed = Job.load(store, job_id)
        records = resumed.run()
        assert resumed.stats["journal"] == journaled
        assert resumed.stats["run"] == seeds - journaled
        assert resumed.status()["status"] == "done"

        from repro.validate import run_campaign
        serial = run_campaign(workloads=["microbench"], seeds=seeds)
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in serial.records])


class TestCheckpointKillResume:
    """SIGKILL *mid-point* (nothing journaled) resumes from a periodic
    checkpoint, not from scratch, with byte-identical records -- the
    ISSUE-9 acceptance property, against a real killed process."""

    ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}

    def test_sigkill_mid_point_resumes_from_checkpoint(self, tmp_path):
        store_dir = str(tmp_path / "ckpt-jobs")
        proc = subprocess.Popen(
            [sys.executable, CKPT_HELPER, store_dir, "run", "4000"],
            stdout=subprocess.PIPE, text=True, bufsize=1, env=self.ENV)
        try:
            for line in proc.stdout:
                if line.startswith("checkpoint "):
                    proc.send_signal(signal.SIGKILL)
                    break
            else:
                pytest.fail("helper finished before writing a checkpoint")
            rc = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            proc.kill()
        assert rc == -9

        # The kill landed mid-point: the journal never saw it, so only
        # the on-disk snapshots can carry the completed work forward.
        store = JobStore(store_dir)
        (job_id,) = store.jobs()
        assert len(store.completed(job_id)) == 0
        assert store.checkpoints(job_id), "no snapshot survived the kill"

        # Resume in a fresh process: the helper exits nonzero unless at
        # least one point restored from a snapshot AND every record is
        # byte-identical to an uninterrupted checkpoint-free run.
        out = subprocess.run(
            [sys.executable, CKPT_HELPER, store_dir, "resume", "4000"],
            capture_output=True, text=True, env=self.ENV, timeout=300)
        assert out.returncode == 0, (out.stdout, out.stderr)
        assert "byte-identical ok" in out.stdout

        # Done jobs carry no snapshots: the journal now owns the result.
        resumed = Job.load(store, job_id)
        assert resumed.status()["status"] == "done"
        assert resumed.status()["checkpoints"] == 0


class _KeyProbe:
    """A cache stand-in that records the key of every probe and misses."""

    root = None

    def __init__(self) -> None:
        self.keys = []

    def get(self, experiment, params, config_fp, code_version=__version__):
        self.keys.append(make_cache_key(experiment, params, config_fp,
                                        code_version))
        return None


def _configure_overrides():
    """Names of every repro experiment whose configure() is overridden."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    seen, todo = set(), [Experiment]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if (sub.__module__.startswith("repro.")
                    and sub.configure is not Experiment.configure):
                seen.add(sub)
    return {cls.name: cls for cls in seen}


class TestCacheKeys:
    """The parent-side cache probe uses the key a run's record is put
    under, for every experiment that rewrites its config per point."""

    #: One cheap config-rewriting point per configure() override.
    POINTS = {
        "collective-zoo": {"topology": "fat-tree", "schedule": "alltoall",
                           "strategy": "gds", "n_nodes": 4, "nbytes": 4096},
        "congestion": {"messages": 2, "bg_horizon_ns": 10_000},
        "validate": {"workload": "microbench", "seed": 3},
    }

    def test_every_override_is_covered(self):
        assert set(_configure_overrides()) == set(self.POINTS)

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_lookup_key_equals_record_cache_key(self, name):
        experiment = _configure_overrides()[name]()
        point = self.POINTS[name]
        probe = _KeyProbe()
        state = SweepState(experiment=experiment, config=default_config(),
                           cache=probe)
        assert SweepRunner.lookup(state, point) is None
        record = experiment.execute(point, default_config()).record
        assert record.config_fingerprint != \
            config_fingerprint(default_config())
        assert probe.keys == [record.cache_key()]


class TestDispatchTeardown:
    def test_return_does_not_wait_for_drain_poll(self, monkeypatch):
        """Every local worker's "bye" stops the drainer, so a dispatched
        job returns long before one drainer poll period could expire."""
        monkeypatch.setattr(queue_mod, "DRAIN_POLL_S", 30.0)
        before = set(threading.enumerate())
        job = Job.from_sweep(Sweep(AllreduceExperiment(),
                                   grid={"strategy": ["cpu", "gputn"]},
                                   base={"n_nodes": 2, "nbytes": 4096}))
        start = time.monotonic()
        records = job.run(jobs=2)
        elapsed = time.monotonic() - start
        assert job.queue_stats["local"] == 2 and None not in records
        assert elapsed < queue_mod.DRAIN_POLL_S / 2
        assert not [t for t in threading.enumerate()
                    if t.name == "workqueue-drain" and t not in before]
