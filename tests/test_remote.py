"""Remote workers, priorities, cancel and submission backpressure.

The acceptance properties of DESIGN.md §13: the framed protocol never
delivers a torn frame, stale workers are rejected at the handshake, a
job served by remote workers (even one SIGKILLed mid-point) produces
records byte-identical to a local-only run with the dead worker's
in-flight point reissued exactly once, higher-priority jobs preempt
lower ones at point granularity, and `jobs cancel` / submit throttling
behave cooperatively.
"""

import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from _remote_workload import SleepyMicrobench
from repro.apps.microbench import MicrobenchExperiment
from repro.config import default_config
from repro.runtime import Sweep
from repro.runtime.record import config_fingerprint
from repro.service import (Job, JobSpec, JobStore, PriorityGate,
                           SubmitThrottled, WorkQueue)
from repro.service.remote import (PROTOCOL_VERSION, RemoteDispatcher,
                                  _parse_hostport, recv_frame, send_frame,
                                  serve_worker)
from repro.version import __version__

SRC = str(Path(__file__).resolve().parent.parent / "src")
TESTS = str(Path(__file__).resolve().parent)
WORKER_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))


def _spawn_worker(port: int) -> subprocess.Popen:
    """A real worker process joining the dispatcher at ``port``.

    Imports ``_remote_workload`` first so the kamikaze runner and the
    sleepy experiment unpickle on the worker side.
    """
    code = ("import _remote_workload, sys; "
            "from repro.service.remote import serve_worker; "
            f"sys.exit(serve_worker('127.0.0.1:{port}', retry_s=10.0))")
    return subprocess.Popen([sys.executable, "-c", code], env=WORKER_ENV,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)


def _reap(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


def _jsons(records):
    return [r.to_json() for r in records]


# ----------------------------------------------------------------- framing
class TestFraming:
    def _pair(self):
        return socket.socketpair()

    def test_round_trip(self):
        a, b = self._pair()
        try:
            for obj in [("task", 3, {"nbytes": 64}), {"type": "hello"},
                        b"\x00" * 1000, ["nested", ("tuple", 1)]]:
                send_frame(a, obj)
                assert recv_frame(b) == obj
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self._pair()
        try:
            a.sendall((10).to_bytes(4, "big") + b"abc")  # torn frame
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_raises(self):
        a, b = self._pair()
        try:
            a.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(ConnectionError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_hostport(self):
        assert _parse_hostport(8125, "0.0.0.0") == ("0.0.0.0", 8125)
        assert _parse_hostport("0", "0.0.0.0") == ("0.0.0.0", 0)
        assert _parse_hostport("node7:9000", "x") == ("node7", 9000)
        assert _parse_hostport(("", 7), "127.0.0.1") == ("127.0.0.1", 7)


# --------------------------------------------------------------- handshake
class TestHandshake:
    @pytest.fixture
    def dispatcher(self):
        d = RemoteDispatcher("127.0.0.1", 0, job_id="abc123def456",
                             runner_name="sweep", payload=b"payload-bytes")
        yield d
        d.close(final=True)

    def _connect(self, dispatcher):
        return socket.create_connection(dispatcher.address, timeout=5)

    def test_stale_code_version_rejected(self, dispatcher):
        with self._connect(dispatcher) as sock:
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                              "code_version": "0.0.0-stale"})
            resp = recv_frame(sock)
        assert resp["type"] == "reject"
        assert "0.0.0-stale" in resp["reason"]
        assert resp["job_id"] == "abc123def456"

    def test_protocol_skew_rejected(self, dispatcher):
        with self._connect(dispatcher) as sock:
            send_frame(sock, {"type": "hello", "protocol": 999,
                              "code_version": __version__})
            resp = recv_frame(sock)
        assert resp["type"] == "reject"
        assert "protocol" in resp["reason"]

    def test_welcome_carries_job_identity(self, dispatcher):
        with self._connect(dispatcher) as sock:
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                              "code_version": __version__})
            resp = recv_frame(sock)
            assert resp["type"] == "welcome"
            assert resp["job_id"] == "abc123def456"
            assert resp["runner"] == "sweep"
            assert resp["payload"] == b"payload-bytes"
            assert resp["proxy_cache"] is False
            assert resp["code_version"] == __version__
            send_frame(sock, {"type": "ready"})
            # The handshaken connection becomes an adoptable endpoint.
            import queue as _q
            results: _q.Queue = _q.Queue()
            deadline = time.monotonic() + 5
            eps = []
            while not eps and time.monotonic() < deadline:
                eps = dispatcher.take_endpoints(results, lambda: 7)
                time.sleep(0.01)
            assert len(eps) == 1 and eps[0].wid == 7
            eps[0].shutdown(final=True)
            assert recv_frame(sock) == ("stop", True)

    def test_garbage_client_keeps_listener_alive(self, dispatcher):
        with self._connect(dispatcher) as sock:
            sock.sendall(b"\x00\x00\x00\x04junk")
        # A later, well-behaved client still gets through.
        self.test_welcome_carries_job_identity(dispatcher)

    def test_rejected_worker_exits_2(self):
        # A fake dispatcher that turns everyone away.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def reject_one():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                send_frame(conn, {"type": "reject", "reason": "stale",
                                  "job_id": "x"})

        t = threading.Thread(target=reject_one, daemon=True)
        t.start()
        try:
            assert serve_worker(f"127.0.0.1:{port}", log=lambda _m: None) == 2
        finally:
            t.join(timeout=5)
            listener.close()

    def test_no_dispatcher_exits_1(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        assert serve_worker(f"127.0.0.1:{port}", retry_s=0,
                            log=lambda _m: None) == 1

    def test_worker_cli_exit_codes(self):
        from repro.__main__ import main
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["worker", "serve", "--connect", f"127.0.0.1:{port}",
                     "--retry", "0"]) == 1


# ----------------------------------------------------------- remote workers
def _sleepy_sweep(n=6, delay_s=0.0):
    return Sweep(SleepyMicrobench(),
                 points=[{"nbytes": 64 * (i + 1), "delay_s": delay_s}
                         for i in range(n)])


class TestRemoteExecution:
    def test_two_workers_sigkill_one_byte_identical(self):
        baseline = Job.from_sweep(_sleepy_sweep(delay_s=0.15)).run(jobs=1)

        job = Job.from_sweep(_sleepy_sweep(delay_s=0.15))
        host, port = job.listen(("127.0.0.1", 0))
        workers = [_spawn_worker(port), _spawn_worker(port)]
        killed = threading.Event()

        def on_point(event):
            # By the second completion both workers hold a task; killing
            # one mid-point forces a reissue of its in-flight point.
            if event.done >= 2 and not killed.is_set():
                killed.set()
                workers[0].kill()

        try:
            records = job.run(jobs=0, progress=on_point)
        finally:
            _reap(*workers)
        assert all(r is not None for r in records)
        assert _jsons(records) == _jsons(baseline)
        assert job.queue_stats["local"] == 0
        assert job.queue_stats["remote"] == len(records)
        assert job.queue_stats["reissued"] <= 1

    def test_kamikaze_remote_reissued_exactly_once(self, tmp_path):
        cfg = default_config()
        points = [{"nbytes": 64 * (i + 1)} for i in range(4)]
        clean = JobSpec(
            runner="sweep", experiment="microbench", points=tuple(points),
            config_fingerprint=config_fingerprint(cfg),
            payload=pickle.dumps((MicrobenchExperiment(), cfg, None, None)))
        baseline = Job(clean).run(jobs=1)

        marked = [dict(p) for p in points]
        marked[2]["die_dir"] = str(tmp_path)
        spec = JobSpec(
            runner="kamikaze", experiment="microbench", points=tuple(marked),
            config_fingerprint=config_fingerprint(cfg),
            payload=pickle.dumps((MicrobenchExperiment(), cfg, None, None)))
        job = Job(spec)
        host, port = job.listen(("127.0.0.1", 0))
        workers = [_spawn_worker(port), _spawn_worker(port)]
        try:
            records = job.run(jobs=0)
        finally:
            _reap(*workers)
        assert (tmp_path / "died-2").exists()
        assert all(r is not None for r in records)
        assert _jsons(records) == _jsons(baseline)
        assert job.queue_stats["reissued"] == 1

    def test_kamikaze_local_pool_reissued_exactly_once(self, tmp_path):
        import _remote_workload  # noqa: F401  (registers "kamikaze")
        cfg = default_config()
        points = [{"nbytes": 64 * (i + 1)} for i in range(4)]
        clean = JobSpec(
            runner="sweep", experiment="microbench", points=tuple(points),
            config_fingerprint=config_fingerprint(cfg),
            payload=pickle.dumps((MicrobenchExperiment(), cfg, None, None)))
        baseline = Job(clean).run(jobs=1)

        marked = [dict(p) for p in points]
        marked[1]["die_dir"] = str(tmp_path)
        spec = JobSpec(
            runner="kamikaze", experiment="microbench", points=tuple(marked),
            config_fingerprint=config_fingerprint(cfg),
            payload=pickle.dumps((MicrobenchExperiment(), cfg, None, None)))
        job = Job(spec)
        records = job.run(jobs=2)
        assert all(r is not None for r in records)
        assert _jsons(records) == _jsons(baseline)
        assert job.queue_stats["reissued"] == 1
        assert job.queue_stats["remote"] == 0


# ------------------------------------------------------ local worker slots
class TestLocalSlots:
    """Each local worker holds two points: one running, one queued."""

    @staticmethod
    def _spec(runner, experiment, points):
        cfg = default_config()
        return JobSpec(
            runner=runner, experiment=experiment.name, points=tuple(points),
            config_fingerprint=config_fingerprint(cfg),
            payload=pickle.dumps((experiment, cfg, None, None)))

    def test_poison_point_is_blamed_not_its_queued_sibling(self):
        """A point that kills every worker it touches fails the job by
        its own index, although a sibling sat queued behind it in the
        dead worker's pipe; only the running point's deaths count."""
        import _remote_workload  # noqa: F401  (registers "poison")
        from repro.service.queue import MAX_POINT_ATTEMPTS
        from repro.service.runners import get_runner
        # Slow siblings keep the liveness poll firing while points are
        # still queued, so the reissued poison point lands in front of
        # (or behind) a sibling on the next worker.
        points = [{"nbytes": 64, "delay_s": 0.3} for _ in range(9)]
        points[0] = {"nbytes": 64, "poison": True}
        spec = self._spec("poison", SleepyMicrobench(), points)
        wq = WorkQueue(get_runner("poison"), None, "poison", spec.payload,
                       jobs=MAX_POINT_ATTEMPTS)
        done = []
        with pytest.raises(RuntimeError,
                           match=rf"^point 0 killed {MAX_POINT_ATTEMPTS} "
                                 r"workers; giving up \(poison point\)$"):
            wq.execute(range(len(points)), points,
                       on_done=lambda index, record, source:
                       done.append(index),
                       should_stop=lambda: False)
        assert 0 not in done and len(done) == len(set(done))
        assert wq.stats["reissued"] == MAX_POINT_ATTEMPTS - 1

    def test_failed_job_meta_holds_this_runs_dispatch_tally(self, tmp_path):
        """A job that dies on a poison point writes the tally of the run
        that failed into meta.json, not the previous run's (``{}`` on a
        first run)."""
        import _remote_workload  # noqa: F401  (registers "poison")
        points = [{"nbytes": 64, "delay_s": 0.3} for _ in range(4)]
        points[0] = {"nbytes": 64, "poison": True}
        store = JobStore(tmp_path)
        job = Job(self._spec("poison", SleepyMicrobench(), points), store)
        with pytest.raises(RuntimeError):
            job.run(jobs=2)
        meta = store.meta(job.id)
        assert meta["status"] == "failed"
        assert meta["dispatch"]["reissued"] >= 1

    def test_slots_fill_round_robin(self, tmp_path):
        """A job of ``jobs`` points puts one point on each worker, not
        both on the first worker's two slots."""
        import _remote_workload  # noqa: F401  (registers "pid")
        points = [{"nbytes": 64, "pid_dir": str(tmp_path)},
                  {"nbytes": 128, "pid_dir": str(tmp_path)}]
        job = Job(self._spec("pid", MicrobenchExperiment(), points))
        records = job.run(jobs=2)
        baseline = Job.from_sweep(Sweep(
            MicrobenchExperiment(),
            points=[{"nbytes": 64}, {"nbytes": 128}])).run(jobs=1)
        assert _jsons(records) == _jsons(baseline)
        pids = {(tmp_path / f"point-{i}").read_text() for i in range(2)}
        assert len(pids) == 2 and str(os.getpid()) not in pids
        assert job.queue_stats == {"local": 2, "remote": 0, "reissued": 0}


# --------------------------------------------------------------- priorities
class TestPriorities:
    def test_gate_semantics(self):
        gate = PriorityGate()
        low = gate.register(0)
        assert gate.clear(low)
        high = gate.register(1)
        assert not gate.clear(low)
        assert gate.clear(high)
        peer = gate.register(1)
        assert gate.clear(high) and gate.clear(peer)  # ties share freely
        gate.unregister(high)
        gate.unregister(peer)
        assert gate.clear(low)

    def test_high_priority_job_preempts_low(self):
        events = []
        lock = threading.Lock()
        low_started = threading.Event()

        def tag(label):
            def cb(_event):
                with lock:
                    events.append(label)
                low_started.set()
            return cb

        low = Job.from_sweep(_sleepy_sweep(n=6, delay_s=0.2), priority=0)
        runner = threading.Thread(
            target=lambda: low.run(jobs=1, progress=tag("low")), daemon=True)
        runner.start()
        assert low_started.wait(timeout=30)

        high = Job.from_sweep(_sleepy_sweep(n=2), priority=1)
        high.run(jobs=1, progress=tag("high"))
        runner.join(timeout=60)
        assert not runner.is_alive()

        with lock:
            seq = list(events)
        assert seq.count("high") == 2 and seq.count("low") == 6
        # Once the high-priority job is in, the low job may finish at
        # most its one in-flight point before the high job completes.
        window = seq[seq.index("high"):len(seq) - seq[::-1].index("high")]
        assert window.count("low") <= 1


# ------------------------------------------------------------------- cancel
class TestCancel:
    def test_store_cancel_stops_mid_run(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sleepy_sweep(n=6, delay_s=0.3), store=store)

        def cancel_early(event):
            if event.done == 1:
                store.request_cancel(job.id)

        records = job.run(jobs=1, progress=cancel_early)
        assert any(r is not None for r in records)
        assert any(r is None for r in records)  # cooperative: cut short
        assert store.meta(job.id)["status"] == "cancelled"
        assert job.status()["cancel_requested"] is True

    def test_rerun_clears_stale_cancel(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sleepy_sweep(n=2), store=store)
        store.request_cancel(job.id)
        records = job.run(jobs=1)  # a deliberate re-run overrides cancel
        assert all(r is not None for r in records)
        assert store.meta(job.id)["status"] == "done"

    def test_cancel_cli(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = JobSpec(runner="bench", experiment="bench",
                       points=({"workload": "engine", "repeat": 1},),
                       config_fingerprint="bench", payload=b"")
        store = JobStore(tmp_path)
        job_id = store.create(spec)
        assert main(["jobs", "cancel", job_id, "--store",
                     str(tmp_path)]) == 0
        assert f"job {job_id} cancelled" in capsys.readouterr().out
        assert store.cancel_requested(job_id)
        assert store.meta(job_id)["status"] == "cancelled"
        assert main(["jobs", "cancel", "feedfacecafe", "--store",
                     str(tmp_path)]) == 1


# ------------------------------------------------------------- backpressure
class TestSubmitBackpressure:
    def _spec(self, i=0):
        return JobSpec(runner="bench", experiment="bench",
                       points=({"workload": "engine", "repeat": i + 1},),
                       config_fingerprint="bench", payload=b"")

    def test_max_active_rejects_new_jobs(self, tmp_path):
        plain = JobStore(tmp_path)
        running = plain.submit(self._spec(0))
        plain.set_meta(running, status="running")
        throttled = JobStore(tmp_path, max_active=1)
        with pytest.raises(SubmitThrottled, match="max_active"):
            throttled.submit(self._spec(1))
        # Once the running job finishes, the same submit goes through.
        plain.set_meta(running, status="done")
        assert throttled.submit(self._spec(1)) == self._spec(1).job_id()

    def test_resume_is_never_throttled(self, tmp_path):
        plain = JobStore(tmp_path)
        job_id = plain.submit(self._spec(0))
        plain.set_meta(job_id, status="running")
        throttled = JobStore(tmp_path, max_active=0, min_interval_s=3600)
        assert throttled.submit(self._spec(0)) == job_id

    def test_min_interval_rate_limits(self, tmp_path):
        store = JobStore(tmp_path, min_interval_s=10.0)
        assert store.submit(self._spec(0), clock=lambda: 100.0)
        with pytest.raises(SubmitThrottled, match="limited to one per"):
            store.submit(self._spec(1), clock=lambda: 104.0)
        assert store.submit(self._spec(1), clock=lambda: 111.0)


# -------------------------------------------------------- queue validation
class TestQueueValidation:
    def test_bad_windows_and_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            WorkQueue(None, None, "sweep", b"", jobs=-1)
        with pytest.raises(ValueError, match="remote"):
            WorkQueue(None, None, "sweep", b"", jobs=0)
        with pytest.raises(ValueError, match="window"):
            WorkQueue(None, None, "sweep", b"", jobs=2, window=0)

    def test_remote_only_run_requires_listen(self):
        job = Job.from_sweep(_sleepy_sweep(n=2))
        with pytest.raises(ValueError, match="listen"):
            job.run(jobs=0)
