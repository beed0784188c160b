"""Non-blocking collectives (paper Section 5.4).

Modeled on libNBC, the library the paper extends: a collective is compiled
into a per-rank *schedule* -- rounds of send/recv/reduce subtasks with
dependencies only between rounds -- and an executor steps through the
schedule.  Schedule creation "maps perfectly to the triggered operation
semantics in GPU-TN": the GPU-TN executor lowers every send to
pre-registered triggered puts fired from inside a single persistent
kernel.

* :mod:`~repro.collectives.schedule` -- schedule IR + builders (ring
  Allreduce of Figure 2, plus reduce-scatter/allgather pieces);
* :mod:`~repro.collectives.algorithms` -- the schedule zoo
  (recursive-doubling / halving-doubling Allreduce, AllGather,
  ReduceScatter, all-to-all) in the same round IR;
* :mod:`~repro.collectives.engine` -- the one executor per backend that
  runs every schedule, plus the NumPy schedule oracle.  The GPU-TN
  kernel's slice count is held by the experiment object: 4 for Figure
  10, 1 for the zoo (choosing it is still open);
* :mod:`~repro.collectives.ring` -- Figure 10's
  :class:`AllreduceExperiment`, an alias for the ring schedule on that
  executor, and the hand-written ring oracle.
"""

from repro.collectives.algorithms import (
    SCHEDULE_BUILDERS,
    alltoall_schedule,
    halving_doubling_allreduce_schedule,
    recursive_doubling_allreduce_schedule,
    ring_allgather_schedule,
    ring_reduce_scatter_schedule,
)
from repro.collectives.engine import (
    CollectiveExperiment,
    CollectiveResult,
    run_collective,
    schedule_reference,
)
from repro.collectives.offload import nic_barrier, nic_broadcast
from repro.collectives.ring import (
    AllreduceExperiment,
    allreduce_reference,
    run_ring_allreduce,
)
from repro.collectives.schedule import (
    CollectiveSchedule,
    ScheduleOp,
    ring_allreduce_schedule,
)

__all__ = [
    "AllreduceExperiment",
    "CollectiveExperiment",
    "CollectiveResult",
    "CollectiveSchedule",
    "SCHEDULE_BUILDERS",
    "ScheduleOp",
    "allreduce_reference",
    "alltoall_schedule",
    "halving_doubling_allreduce_schedule",
    "nic_barrier",
    "nic_broadcast",
    "recursive_doubling_allreduce_schedule",
    "ring_allgather_schedule",
    "ring_allreduce_schedule",
    "ring_reduce_scatter_schedule",
    "run_collective",
    "run_ring_allreduce",
    "schedule_reference",
]
