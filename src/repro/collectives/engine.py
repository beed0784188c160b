"""The collective executor: any schedule on any backend.

One executor per backend runs *any* :class:`CollectiveSchedule` whose
rounds have the canonical one-SEND one-RECV(+REDUCE) shape -- everything
in :data:`repro.collectives.algorithms.SCHEDULE_BUILDERS`, Figure 10's
ring Allreduce included -- with the same trigger-program structure:

* **cpu / hdn** -- two-sided sends; hdn pays one reduce kernel per round;
* **gds**   -- pre-staged deferred puts doorbelled behind the reduce
  kernel that produces their payload (command-queue ordered);
* **gputn** -- one persistent kernel: poll the round's arrival flag,
  reduce, ``store_trigger`` the next round's pre-armed put, with the host
  re-arming trigger entries off the critical path.  Each round's block
  is split into a number of slices held by the experiment object
  (:attr:`CollectiveExperiment.slices`): per slice the kernel polls,
  reduces and triggers, so reduction and wire time pipeline (paper
  §5.4.1).  Figure 10's ring runs 4 slices, the zoo 1; choosing the
  count is a model change still open.

Two safety rules hold for schedules whose peers change per round:

* staging is **per round** -- with round-varying peers a remote
  round-``s`` put can causally precede the local rank reaching round
  ``s - 2``, so two parity buffers are not enough;
* arrivals are counted in **per-round flag words** (one uint32 per round,
  polled ``at_least=s + 1`` for slice ``s``), not one cumulative counter
  -- arrivals from different peers may reorder, and a cumulative count
  could be satisfied by the wrong round's data.

The NumPy oracle (:func:`schedule_reference`) interprets the same
schedules round-by-round globally with the executors' association order
(``chunk = chunk + arrival``), so correctness checks are bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster, Node
from repro.collectives.algorithms import SCHEDULE_BUILDERS
from repro.collectives.schedule import CollectiveSchedule, OpKind, ScheduleOp
from repro.config import SystemConfig
from repro.gpu.kernel import KernelDescriptor
from repro.memory import Agent
from repro.runtime import Experiment
from repro.sim import AllOf

__all__ = [
    "CollectiveExperiment",
    "CollectiveResult",
    "run_collective",
    "schedule_reference",
]

_F4 = np.dtype(np.float32)


def _wire_tag(src_rank: int, rnd: int) -> int:
    """Unique per (sender, round): receivers gate each round on its own
    tag, so cross-round arrivals can never alias."""
    return 0x5000 + src_rank * 512 + rnd


def _trig_tag(rank: int, rnd: int) -> int:
    return 0x8000 + rank * 512 + rnd


def _round_ops(ops: List[ScheduleOp]) -> Tuple[ScheduleOp, ScheduleOp, bool]:
    """The canonical round shape: exactly one SEND, one RECV, <=1 REDUCE."""
    sends = [op for op in ops if op.kind is OpKind.SEND]
    recvs = [op for op in ops if op.kind is OpKind.RECV]
    reduces = [op for op in ops if op.kind is OpKind.REDUCE]
    if len(sends) != 1 or len(recvs) != 1 or len(reduces) > 1:
        raise ValueError(f"round shape unsupported by the generic engine: "
                         f"{[op.kind.value for op in ops]}")
    if reduces and (reduces[0].chunk != recvs[0].chunk
                    or reduces[0].nchunks != recvs[0].nchunks):
        raise ValueError("REDUCE must cover exactly the round's RECV block")
    return sends[0], recvs[0], bool(reduces)


# --------------------------------------------------------------------------
# Rank state
# --------------------------------------------------------------------------

class _ZooRank:
    """One rank's buffers for a generic schedule."""

    def __init__(self, node: Node, schedule: CollectiveSchedule, nbytes: int,
                 seed: int, n_slices: int):
        if nbytes % (schedule.n_chunks * _F4.itemsize):
            raise ValueError(f"payload {nbytes}B must divide into "
                             f"{schedule.n_chunks} float32 chunks")
        self.node = node
        self.schedule = schedule
        self.rank = schedule.rank
        self.nbytes = nbytes
        self.chunk_bytes = nbytes // schedule.n_chunks
        self.vector = node.host.alloc(nbytes, name=f"{node.name}.zvec")
        rng = np.random.default_rng([seed, self.rank])
        self.vector.view(_F4)[:] = rng.random(nbytes // 4, dtype=np.float32)
        self.dest = (self.vector if schedule.in_place else
                     node.host.alloc(nbytes, name=f"{node.name}.zout"))
        self.rounds = [_round_ops(ops) for ops in schedule.rounds]
        self.n_slices = n_slices
        # Per-round staging for reduce arrivals, per-round arrival words.
        self.staging = [
            node.host.alloc(recv.nchunks * self.chunk_bytes,
                            name=f"{node.name}.zstage{rnd}")
            if is_reduce else None
            for rnd, (_, recv, is_reduce) in enumerate(self.rounds)
        ]
        self.flags = node.host.alloc(4 * max(1, len(self.rounds)),
                                     name=f"{node.name}.zflags")
        if schedule.collective == "alltoall":
            # The self-chunk never crosses the wire.
            sl = slice(self.rank * self.chunk_bytes // 4,
                       (self.rank + 1) * self.chunk_bytes // 4)
            self.dest.view(_F4)[sl] = self.vector.view(_F4)[sl]

    def op_bytes(self, op: ScheduleOp) -> int:
        return op.nchunks * self.chunk_bytes

    def block_view(self, buf, op: ScheduleOp) -> np.ndarray:
        return buf.view(_F4, count=self.op_bytes(op) // 4,
                        offset=op.chunk * self.chunk_bytes)

    def landing_addr(self, rnd: int) -> int:
        """Where this rank's round-``rnd`` arrival lands (put target)."""
        _, recv, is_reduce = self.rounds[rnd]
        if is_reduce:
            return self.staging[rnd].addr()
        return self.dest.addr(recv.chunk * self.chunk_bytes)

    def slice_bounds(self, op: ScheduleOp) -> List[Tuple[int, int]]:
        """Element ranges of ``op``'s block, one per work-group-granularity
        slice; the remainder spreads over the leading slices, so ragged
        blocks still pipeline."""
        n_elems = self.op_bytes(op) // _F4.itemsize
        n_slices = max(1, min(self.n_slices, n_elems))
        base, rem = divmod(n_elems, n_slices)
        bounds, lo = [], 0
        for s in range(n_slices):
            hi = lo + base + (1 if s < rem else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def reduce_round(self, rnd: int, agent: Agent, time: int,
                     lo: int = 0, hi: Optional[int] = None) -> None:
        """Combine elements ``[lo, hi)`` (default: all) of the round's
        staged arrival into its RECV block."""
        _, recv, _ = self.rounds[rnd]
        self.node.mem.record_read(time, agent, self.staging[rnd])
        block = self.block_view(self.vector, recv)
        hi = block.size if hi is None else hi
        block[lo:hi] += self.staging[rnd].view(_F4)[lo:hi]
        base = recv.chunk * self.chunk_bytes
        self.node.mem.record_write(time, agent, self.vector,
                                   lo=base + 4 * lo, hi=base + 4 * hi)

    def reduce_bytes(self, rnd: int) -> int:
        _, recv, _ = self.rounds[rnd]
        return 3 * self.op_bytes(recv)  # load block + load staging + store


def _check_pairing(states: List["_ZooRank"]) -> None:
    """Global schedule consistency: every SEND has a matching same-round
    RECV of the same size at its peer -- the invariant that lets senders
    write straight into the receiver's landing buffer."""
    n_rounds = {len(s.rounds) for s in states}
    if len(n_rounds) != 1:
        raise ValueError(f"ranks disagree on round count: {sorted(n_rounds)}")
    for st in states:
        for rnd, (send, _, _) in enumerate(st.rounds):
            _, peer_recv, _ = states[send.peer].rounds[rnd]
            if peer_recv.peer != st.rank:
                raise ValueError(
                    f"round {rnd}: rank {st.rank} sends to {send.peer}, "
                    f"which expects rank {peer_recv.peer}")
            if peer_recv.nchunks != send.nchunks:
                raise ValueError(f"round {rnd}: send/recv size mismatch "
                                 f"{send.nchunks} != {peer_recv.nchunks}")


def _check_forwarding(states: List["_ZooRank"]) -> None:
    """Sliced GPU-TN fires round ``k + 1``'s slice ``s`` as soon as round
    ``k``'s slice ``s`` is in, which is only safe when every round sends
    exactly the block the previous round received."""
    for st in states:
        for rnd in range(1, len(st.rounds)):
            send, (_, recv, _) = st.rounds[rnd][0], st.rounds[rnd - 1]
            if (send.chunk, send.nchunks) != (recv.chunk, recv.nchunks):
                raise ValueError(
                    f"schedule cannot be sliced: rank {st.rank} round {rnd} "
                    f"does not send the block round {rnd - 1} received")


# --------------------------------------------------------------------------
# Executors
# --------------------------------------------------------------------------

def _cpu_zoo(state: _ZooRank, peers: Dict[int, Node]):
    node, host = state.node, state.node.host
    for rnd, (send, recv, is_reduce) in enumerate(state.rounds):
        if is_reduce:
            handle = host.post_recv(_wire_tag(recv.peer, rnd),
                                    state.staging[rnd], state.op_bytes(recv))
        else:
            handle = host.post_recv(_wire_tag(recv.peer, rnd), state.dest,
                                    state.op_bytes(recv),
                                    offset=recv.chunk * state.chunk_bytes)
        yield from host.send(state.vector, state.op_bytes(send),
                             peers[send.peer].name,
                             _wire_tag(state.rank, rnd),
                             offset=send.chunk * state.chunk_bytes)
        yield from host.wait_recv(handle)
        if is_reduce:
            state.reduce_round(rnd, Agent.CPU, node.sim.now)
            yield node.sim.timeout(node.config.cpu.omp_region_ns)
            yield from host.compute_bytes(state.reduce_bytes(rnd),
                                          phase="reduce")
    return node.sim.now


def _zoo_reduce_kernel(state: _ZooRank, rnd: int, name: str):
    def kernel(ctx):
        yield ctx.fence_acquire_system(state.staging[rnd])
        if ctx.wg_id == 0:
            state.reduce_round(rnd, Agent.GPU, ctx.sim.now)
        yield ctx.compute_bytes(state.reduce_bytes(rnd) // ctx.n_workgroups)
        yield ctx.barrier()
        yield ctx.fence_release_system(state.vector)
    kernel.__name__ = name
    return kernel


def _hdn_zoo(state: _ZooRank, peers: Dict[int, Node]):
    node, host = state.node, state.node.host
    n_wg = node.config.gpu.compute_units
    for rnd, (send, recv, is_reduce) in enumerate(state.rounds):
        if is_reduce:
            handle = host.post_recv(_wire_tag(recv.peer, rnd),
                                    state.staging[rnd], state.op_bytes(recv))
        else:
            handle = host.post_recv(_wire_tag(recv.peer, rnd), state.dest,
                                    state.op_bytes(recv),
                                    offset=recv.chunk * state.chunk_bytes)
        yield from host.send(state.vector, state.op_bytes(send),
                             peers[send.peer].name,
                             _wire_tag(state.rank, rnd),
                             offset=send.chunk * state.chunk_bytes)
        yield from host.wait_recv(handle)
        if is_reduce:
            desc = KernelDescriptor(
                fn=_zoo_reduce_kernel(state, rnd, f"zoo-hdn-{rnd}"),
                n_workgroups=n_wg, name=f"zoo-hdn-{rnd}")
            inst = yield from host.launch_kernel(desc)
            # Later rounds may forward what this kernel just reduced.
            yield from host.wait_kernel(inst, mode="blocking")
    return node.sim.now


def _expose_round_flags(state: _ZooRank) -> None:
    for rnd, (_, recv, _) in enumerate(state.rounds):
        state.node.nic.expose_rx_flag(_wire_tag(recv.peer, rnd),
                                      (state.flags, 4 * rnd))


def _gds_zoo(state: _ZooRank, peers: Dict[int, Node]):
    node, host = state.node, state.node.host
    n_wg = node.config.gpu.compute_units
    _expose_round_flags(state)
    n_rounds = len(state.rounds)

    def stage_send(rnd: int):
        send, _, _ = state.rounds[rnd]
        peer_state: _ZooRank = peers[send.peer].host._zoo_state  # type: ignore[attr-defined]
        h = yield from host.put(state.vector, state.op_bytes(send),
                                peers[send.peer].name,
                                peer_state.landing_addr(rnd),
                                wire_tag=_wire_tag(state.rank, rnd),
                                offset=send.chunk * state.chunk_bytes,
                                deferred=True)
        return h

    staged = yield from stage_send(0)
    prev_kernel = None
    queued_bell = None  # newest doorbell routed through the GPU queue
    for rnd, (send, recv, is_reduce) in enumerate(state.rounds):
        # Ring this round's send behind the kernel that produced its
        # block.  A direct doorbell must never overtake one still queued
        # behind a kernel (bursty arrivals -- e.g. retransmit recovery --
        # can let the host race ahead of a backed-up GPU), or sends leave
        # in the wrong round order.
        if prev_kernel is None and (queued_bell is None
                                    or queued_bell.rung.triggered):
            node.nic.ring_doorbell(staged)
        else:
            queued_bell = node.gpu.enqueue_doorbell(staged)
        if rnd + 1 < n_rounds:
            next_staged = yield from stage_send(rnd + 1)  # overlaps kernel
        yield from host.poll_flag(state.flags, offset=4 * rnd, at_least=1)
        if is_reduce:
            desc = KernelDescriptor(
                fn=_zoo_reduce_kernel(state, rnd, f"zoo-gds-{rnd}"),
                n_workgroups=n_wg, name=f"zoo-gds-{rnd}")
            prev_kernel = yield from host.launch_kernel(desc)
        else:
            prev_kernel = None
        if rnd + 1 < n_rounds:
            staged = next_staged
    if prev_kernel is not None:
        yield prev_kernel.finished
    return node.sim.now


def _gputn_zoo(state: _ZooRank, peers: Dict[int, Node]):
    """The whole collective in one persistent kernel (paper §5.4.1): per
    slice, poll the round flag, reduce, fire the next round's pre-armed
    put of that slice ("easy software pipelining of the computation and
    network transfer")."""
    node, host = state.node, state.node.host
    _expose_round_flags(state)
    n_rounds = len(state.rounds)
    n_slices = state.n_slices

    def trig_tag(rnd: int, s: int) -> int:
        return _trig_tag(state.rank, rnd * n_slices + s)

    def kernel(ctx):
        rate = ctx.config.gpu.stream_bytes_per_ns
        # Round 0's block is ready at kernel start: trigger every slice.
        yield ctx.fence_release_system(state.vector)
        for s in range(len(state.slice_bounds(state.rounds[0][0]))):
            yield ctx.store_trigger(trig_tag(0, s))
        for rnd, (_, recv, is_reduce) in enumerate(state.rounds):
            for s, (lo, hi) in enumerate(state.slice_bounds(recv)):
                yield from ctx.poll_flag(state.flags, offset=4 * rnd,
                                         at_least=s + 1)
                if is_reduce:
                    yield ctx.fence_acquire_system(state.staging[rnd])
                    state.reduce_round(rnd, Agent.GPU, ctx.sim.now, lo, hi)
                    # load block + load staging + store, 4 B per element
                    yield ctx.compute(int(12 * (hi - lo) / rate) + 1)
                else:
                    yield ctx.fence_acquire_system(state.dest)
                if rnd + 1 < n_rounds:
                    yield ctx.fence_release_system(state.vector)
                    yield ctx.store_trigger(trig_tag(rnd + 1, s))

    def rearm():
        live: List = []
        for rnd, (send, _, _) in enumerate(state.rounds):
            peer_state: _ZooRank = peers[send.peer].host._zoo_state  # type: ignore[attr-defined]
            landing = peer_state.landing_addr(rnd)
            for s, (lo, hi) in enumerate(state.slice_bounds(send)):
                entry = yield from host.register_triggered_put(
                    tag=trig_tag(rnd, s), threshold=1,
                    buf=state.vector, nbytes=4 * (hi - lo),
                    target=peers[send.peer].name,
                    remote_addr=landing + 4 * lo,
                    wire_tag=_wire_tag(state.rank, rnd),
                    offset=send.chunk * state.chunk_bytes + 4 * lo)
                live.append(entry)
                # Respect the prototype's 16-entry trigger-list bound.
                while len(live) > 12:
                    done = live.pop(0)
                    yield node.nic.handle_for(done).local
                    node.nic.trigger_list.free(done)
        for entry in live:
            yield node.nic.handle_for(entry).local
            node.nic.trigger_list.free(entry)

    rearm_proc = node.sim.spawn(rearm(), name=f"{node.name}.zoo-rearm")
    desc = KernelDescriptor(fn=kernel, n_workgroups=1,
                            args={"persistent": True},
                            name="zoo-gputn-persistent")
    inst = yield from host.launch_kernel(desc)
    yield AllOf(node.sim, [inst.finished, rearm_proc])
    return node.sim.now


_ZOO_EXECUTORS = {
    "cpu": _cpu_zoo,
    "hdn": _hdn_zoo,
    "gds": _gds_zoo,
    "gputn": _gputn_zoo,
}


# --------------------------------------------------------------------------
# NumPy oracle
# --------------------------------------------------------------------------

def schedule_reference(schedules: List[CollectiveSchedule],
                       vectors: List[np.ndarray]) -> List[np.ndarray]:
    """Interpret the schedules round-by-round globally in NumPy.

    Reproduces the executors' exact association order
    (``block = block + arrival``) so comparisons are bitwise.  Returns
    each rank's destination buffer (the vector itself for in-place
    schedules, the separate output for all-to-all).
    """
    return _interpret(schedules, [v.astype(_F4, copy=True) for v in vectors])


def _interpret(schedules: List[CollectiveSchedule],
               vecs: List[np.ndarray]) -> List[np.ndarray]:
    """:func:`schedule_reference` over float32 vectors it overwrites."""
    n = len(schedules)
    ch = vecs[0].size // schedules[0].n_chunks
    in_place = schedules[0].in_place
    outs = vecs if in_place else [v.copy() for v in vecs]
    if not in_place:
        for r in range(n):
            outs[r][r * ch:(r + 1) * ch] = vecs[r][r * ch:(r + 1) * ch]
    rounds = [[_round_ops(ops) for ops in s.rounds] for s in schedules]
    for rnd in range(len(rounds[0])):
        # Snapshot every send first: a round's send reads pre-round state
        # (executors post the send before waiting on the round's arrival,
        # and send/recv blocks never overlap within a round).
        inflight = []
        for r in range(n):
            send, _, _ = rounds[r][rnd]
            sl = slice(send.chunk * ch, (send.chunk + send.nchunks) * ch)
            inflight.append((send.peer, vecs[r][sl].copy()))
        for r in range(n):
            peer, data = inflight[r]
            _, recv, is_reduce = rounds[peer][rnd]
            sl = slice(recv.chunk * ch, (recv.chunk + recv.nchunks) * ch)
            if is_reduce:
                vecs[peer][sl] = vecs[peer][sl] + data
            else:
                outs[peer][sl] = data
    return outs


def _semantic_reference(schedules: List[CollectiveSchedule],
                        vectors: List[np.ndarray]) -> List[np.ndarray]:
    """Order-free float64 reference for the collective's *meaning* -- a
    tolerance cross-check that the schedule interpreter and the schedules
    aren't wrong in the same way."""
    n = len(schedules)
    kind = schedules[0].collective
    ch = vectors[0].size // schedules[0].n_chunks
    if kind == "allreduce":
        return [sum(v.astype(np.float64) for v in vectors)] * n
    if kind == "allgather":
        out = np.concatenate([vectors[r][r * ch:(r + 1) * ch]
                              for r in range(n)]).astype(np.float64)
        return [out] * n
    if kind == "reduce_scatter":
        total = sum(v.astype(np.float64) for v in vectors)
        outs = []
        for s in schedules:
            c = s.result_chunk
            outs.append(total[c * ch:(c + 1) * ch])
        return outs
    if kind == "alltoall":
        return [np.concatenate([vectors[s][r * ch:(r + 1) * ch]
                                for s in range(n)]).astype(np.float64)
                for r in range(n)]
    raise ValueError(f"unknown collective kind {kind!r}")


# --------------------------------------------------------------------------
# Experiment + entry point
# --------------------------------------------------------------------------

@dataclass
class CollectiveResult:
    schedule: str
    strategy: str
    topology: str
    n_nodes: int
    nbytes: int
    total_ns: int
    correct: bool
    n_rounds: int = 0
    memory_hazards: int = 0
    cpu_busy_ns: int = 0
    per_rank_ns: List[int] = field(default_factory=list)


class CollectiveExperiment(Experiment):
    """One schedule-zoo collective on one topology/backend.

    Parameters: ``schedule`` (a :data:`SCHEDULE_BUILDERS` name),
    ``strategy`` (cpu/hdn/gds/gputn), ``topology`` (a
    ``NetworkConfig.topology`` spec string), ``n_nodes``, ``nbytes``
    (padded to whole float32 chunks) and the data ``seed``.

    ``slices`` (GPU-TN slices per round block; the zoo runs 1, Figure
    10's ring 4) is part of the model, not a run parameter: records do
    not carry it, so objects with different counts must not share a
    result cache.  More than one slice needs every round to send the
    block the previous round received (the ring does).
    """

    name = "collective-zoo"
    defaults = {"schedule": "halving-doubling", "strategy": "gputn",
                "topology": "star", "n_nodes": 4, "nbytes": 64 * 1024,
                "seed": 11}

    def __init__(self, slices: int = 1):
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        self.slices = slices

    @staticmethod
    def padded_nbytes(n_chunks: int, nbytes: int) -> int:
        quantum = n_chunks * _F4.itemsize
        return (nbytes + quantum - 1) // quantum * quantum

    def configure(self, params: Dict[str, Any],
                  config: SystemConfig) -> SystemConfig:
        from dataclasses import replace

        spec = params["topology"]
        if spec == config.network.topology:
            return config
        return config.with_(network=replace(config.network, topology=spec))

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        strategy = params["strategy"]
        if strategy not in _ZOO_EXECUTORS:
            raise KeyError(f"unknown strategy {strategy!r}; "
                           f"choose from {sorted(_ZOO_EXECUTORS)}")
        if params["schedule"] not in SCHEDULE_BUILDERS:
            raise KeyError(f"unknown schedule {params['schedule']!r}; "
                           f"choose from {sorted(SCHEDULE_BUILDERS)}")
        return Cluster(n_nodes=params["n_nodes"], config=config,
                       with_gpu=(strategy != "cpu"), trace=trace)

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        n_nodes = params["n_nodes"]
        builder = SCHEDULE_BUILDERS[params["schedule"]]
        schedules = [builder(r, n_nodes) for r in range(n_nodes)]
        nbytes = self.padded_nbytes(schedules[0].n_chunks, params["nbytes"])
        states = [_ZooRank(cluster[r], schedules[r], nbytes, params["seed"],
                           self.slices)
                  for r in range(n_nodes)]
        _check_pairing(states)
        if self.slices > 1:
            _check_forwarding(states)
        initial = [s.vector.view(_F4).copy() for s in states]
        peers = {r: cluster[r] for r in range(n_nodes)}
        for r in range(n_nodes):
            cluster[r].host._zoo_state = states[r]  # type: ignore[attr-defined]
        executor = _ZOO_EXECUTORS[params["strategy"]]
        procs = [cluster.spawn(executor(states[r], peers),
                               name=f"zoo.{params['schedule']}."
                                    f"{params['strategy']}.{r}")
                 for r in range(n_nodes)]
        return {"procs": procs, "states": states, "schedules": schedules,
                "initial": initial, "nbytes": nbytes}

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        procs, states = ctx["procs"], ctx["states"]
        schedules = ctx["schedules"]
        semantic = _semantic_reference(schedules, ctx["initial"])
        # Last use of the initial vectors: interpret over them, no copy.
        expected = _interpret(schedules, ctx["initial"])
        ch = ctx["nbytes"] // schedules[0].n_chunks // 4
        correct = True
        # Ranks sharing a semantic result (allreduce, allgather) skip its
        # tolerance check when their oracle output equals a checked one.
        checked: Dict[int, np.ndarray] = {}
        for st, sched, exp, sem in zip(states, schedules, expected, semantic):
            got = st.dest.view(_F4)
            if sched.result_chunk >= 0:
                sl = slice(sched.result_chunk * ch,
                           (sched.result_chunk + 1) * ch)
                got, exp = got[sl], exp[sl]
            correct &= bool(np.array_equal(got, exp))
            seen = checked.get(id(sem))
            if seen is None or not np.array_equal(exp, seen):
                correct &= bool(np.allclose(exp, sem, rtol=1e-4))
                checked[id(sem)] = exp
        result = CollectiveResult(
            schedule=params["schedule"], strategy=params["strategy"],
            topology=params["topology"], n_nodes=params["n_nodes"],
            nbytes=ctx["nbytes"], total_ns=max(p.value for p in procs),
            correct=correct, n_rounds=schedules[0].n_rounds,
            memory_hazards=cluster.total_hazards(),
            cpu_busy_ns=cluster.total_cpu_busy_ns(),
            per_rank_ns=[p.value for p in procs],
        )
        metrics = {
            "total_ns": result.total_ns,
            "correct": correct,
            "n_rounds": result.n_rounds,
            "cpu_busy_ns": result.cpu_busy_ns,
            "per_rank_ns": list(result.per_rank_ns),
            "padded_nbytes": result.nbytes,
        }
        return metrics, result


def run_collective(schedule: str = "halving-doubling",
                   strategy: str = "gputn", topology: str = "star",
                   n_nodes: int = 4, nbytes: int = 64 * 1024, seed: int = 11,
                   config: Optional[SystemConfig] = None) -> CollectiveResult:
    """Run one zoo collective and verify it against the NumPy oracle."""
    return CollectiveExperiment().execute(
        {"schedule": schedule, "strategy": strategy, "topology": topology,
         "n_nodes": n_nodes, "nbytes": nbytes, "seed": seed},
        config=config,
    ).raw
