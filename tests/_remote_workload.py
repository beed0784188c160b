"""Helpers for the remote-dispatch tests (importable from workers too).

Importable as ``_remote_workload`` both by the pytest process (tests/ is
on ``sys.path`` via rootdir insertion) and by worker subprocesses
started with ``PYTHONPATH=src:tests`` -- the pickled experiment payload
and the registered kamikaze runner must resolve to the same module name
on both sides.
"""

import os
import signal
import time
from pathlib import Path

from repro.apps.microbench import MicrobenchExperiment
from repro.service.runners import SweepRunner, register_runner


class SleepyMicrobench(MicrobenchExperiment):
    """Microbench whose setup sleeps ``delay_s`` wall-clock seconds.

    The sleep happens outside the simulation, so records are identical
    to plain MicrobenchExperiment modulo the extra params -- its only
    purpose is to hold points in flight long enough for tests to land a
    kill or a preemption mid-job.
    """

    name = "sleepy-microbench"
    defaults = dict(MicrobenchExperiment.defaults, delay_s=0.0)

    def setup(self, cluster, params):
        time.sleep(params.get("delay_s", 0.0))
        return super().setup(cluster, params)


@register_runner
class KamikazeRunner(SweepRunner):
    """A sweep runner that SIGKILLs its own process on marked points.

    A point carrying ``die_dir`` kills the worker the *first* time any
    process attempts it (a flag file under ``die_dir`` makes the second
    attempt run normally), which is exactly the worker-dies-mid-point
    scenario the dispatcher must absorb: the point is reissued once and
    the job completes with byte-identical records.
    """

    name = "kamikaze"

    @staticmethod
    def run(state, index, point):
        point = dict(point)
        die_dir = point.pop("die_dir", None)
        if die_dir is not None:
            flag = Path(die_dir) / f"died-{index}"
            if not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return SweepRunner.run(state, index, point)


@register_runner
class PoisonRunner(SweepRunner):
    """A sweep runner that SIGKILLs its own process on *every* attempt
    of a point carrying ``poison``: the poison point the dispatcher must
    give up on after :data:`~repro.service.queue.MAX_POINT_ATTEMPTS`
    deaths, blaming it and never a point queued behind it."""

    name = "poison"

    @staticmethod
    def run(state, index, point):
        point = dict(point)
        if point.pop("poison", False):
            os.kill(os.getpid(), signal.SIGKILL)
        return SweepRunner.run(state, index, point)


@register_runner
class PidRunner(SweepRunner):
    """A sweep runner that writes the pid of the process running each
    point to ``<pid_dir>/point-<index>``, outside the record."""

    name = "pid"

    @staticmethod
    def run(state, index, point):
        point = dict(point)
        pid_dir = point.pop("pid_dir")
        (Path(pid_dir) / f"point-{index}").write_text(str(os.getpid()))
        return SweepRunner.run(state, index, point)
