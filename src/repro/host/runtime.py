"""The host runtime: CPU-side software paths with explicit time costs.

Every method that models software work is a **generator** meant for
``yield from`` inside a simulation process, so the caller's timeline
naturally includes the CPU cost.  Methods that only stage state (e.g.
posting a receive) are plain calls.

The runtime tracks core occupancy: time spent in these software paths
accumulates in ``stats['busy_ns']``, which the evaluation uses to compare
CPU overhead across strategies (paper Table 1's "CPU Overhead" column,
made quantitative).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.gpu.device import Gpu, KernelInstance
from repro.gpu.kernel import KernelDescriptor
from repro.memory import Agent, Buffer, MemoryTiming, poll_flag
from repro.nic.device import Nic, PutHandle, RecvHandle
from repro.sim import Event, Simulator, Tracer

__all__ = ["Host"]


class Host:
    """One node's CPU runtime."""

    def __init__(self, sim: Simulator, node: str, config: SystemConfig,
                 space, mem, nic: Nic, gpu: Optional[Gpu] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.node = node
        self.config = config
        self.space = space
        self.mem = mem
        self.nic = nic
        self.gpu = gpu
        self.tracer = tracer or Tracer(enabled=False)
        self.timing = MemoryTiming.for_cpu(config.cpu, config.memory)
        self.stats: Dict[str, Any] = {"busy_ns": 0, "sends": 0, "recvs": 0,
                                      "kernel_launches": 0, "trig_registrations": 0}

    # ------------------------------------------------------------- plumbing
    def _work(self, ns: int, phase: str):
        """Charge ``ns`` of CPU time, tracked and traced."""
        self.stats["busy_ns"] += ns
        self.tracer.begin(self.sim.now, self.node, "cpu", phase)
        yield self.sim.timeout(ns)
        self.tracer.end(self.sim.now, self.node, "cpu", phase)

    # ------------------------------------------------------- GPU dispatch
    def launch_kernel(self, desc: KernelDescriptor):
        """Software half of a kernel launch; returns a KernelInstance.

        ``yield from host.launch_kernel(desc)`` charges the user-runtime
        enqueue cost; hardware launch latency is charged by the GPU front
        end itself.
        """
        if self.gpu is None:
            raise RuntimeError(f"node {self.node} has no GPU")
        yield from self._work(self.config.cpu.kernel_dispatch_sw_ns, "kernel-enqueue")
        self.stats["kernel_launches"] += 1
        return self.gpu.launch(desc)

    def wait_kernel(self, inst: KernelInstance, mode: str = "blocking"):
        """Wait for a kernel to finish.

        ``mode='blocking'`` is the application path (stream-synchronize:
        interrupt + scheduler wakeup, ~10 us); ``mode='spin'`` busy-polls
        a completion flag, which latency benchmarks use.
        """
        yield inst.finished
        if mode == "blocking":
            yield from self._work(self.config.cpu.kernel_sync_block_ns, "kernel-sync")
        elif mode == "spin":
            yield self.sim.timeout(self.config.cpu.completion_poll_ns)
        else:
            raise ValueError(f"unknown wait mode {mode!r} (blocking|spin)")
        return inst.finished.value

    # ---------------------------------------------------------- two-sided
    def send(self, buf: Buffer, nbytes: int, target: str, tag: int,
             offset: int = 0):
        """Two-sided send (HDN baseline): build packet, post to NIC.

        Returns the :class:`PutHandle`; local/delivered events as usual.
        """
        cpu = self.config.cpu
        yield from self._work(cpu.packet_build_ns + cpu.send_post_ns, "send")
        self.stats["sends"] += 1
        return self.nic.post_put(buf.addr(offset), nbytes, target,
                                 remote_addr=None, wire_tag=tag, kind="send")

    def post_recv(self, tag: int, buf: Buffer, nbytes: int,
                  offset: int = 0) -> RecvHandle:
        """Post a receive (cheap descriptor write; non-blocking)."""
        self.stats["recvs"] += 1
        return self.nic.post_recv(tag, buf.addr(offset), nbytes)

    def wait_recv(self, handle: RecvHandle):
        """Progress-engine wait: poll until the receive completes."""
        cpu = self.config.cpu
        while not handle.complete.triggered:
            yield from self._work(cpu.mpi_progress_ns, "progress")
            if handle.complete.triggered:
                break
            # Idle until something changes; re-check each progress tick.
            yield self.sim.timeout(cpu.completion_poll_ns)
        if not handle.complete.ok:
            raise handle.complete.value
        return handle.complete.value

    # ----------------------------------------------------------- one-sided
    def put(self, buf: Buffer, nbytes: int, target: str, remote_addr: int,
            wire_tag: Optional[int] = None, offset: int = 0,
            deferred: bool = False,
            local_flag: Optional[Tuple[Buffer, int]] = None):
        """One-sided put: packet construction plus NIC post.

        ``deferred=True`` stages the operation for a later doorbell (GDS).
        """
        cpu = self.config.cpu
        yield from self._work(cpu.packet_build_ns + cpu.send_post_ns, "put-post")
        return self.nic.post_put(buf.addr(offset), nbytes, target, remote_addr,
                                 wire_tag=wire_tag, deferred=deferred,
                                 local_flag=local_flag)

    def register_triggered_put(self, tag: int, threshold: int, buf: Buffer,
                               nbytes: int, target: str, remote_addr: int,
                               wire_tag: Optional[int] = None, offset: int = 0,
                               local_flag: Optional[Tuple[Buffer, int]] = None):
        """GPU-TN host-side registration (Figure 6 ``TrigPut``): packet is
        built now, off the critical path; the GPU triggers it later."""
        cpu = self.config.cpu
        yield from self._work(cpu.packet_build_ns + cpu.send_post_ns, "trig-register")
        self.stats["trig_registrations"] += 1
        return self.nic.register_triggered_put(
            tag=tag, threshold=threshold, local_addr=buf.addr(offset),
            nbytes=nbytes, target=target, remote_addr=remote_addr,
            wire_tag=wire_tag, local_flag=local_flag,
        )

    # ------------------------------------------------------------- compute
    def compute_bytes(self, nbytes: int, flops_per_byte: float = 1.0,
                      phase: str = "compute"):
        """CPU streaming compute (OpenMP-style, all cores) over ``nbytes``."""
        ns = int(round(nbytes * max(flops_per_byte, 1.0)
                       / self.config.cpu.stream_bytes_per_ns))
        yield from self._work(max(ns, 1) if nbytes else 0, phase)

    def cpu_write(self, buf: Buffer, data: np.ndarray, offset: int = 0) -> None:
        """CPU store into a buffer (coherent; no fence needed)."""
        view = buf.view(data.dtype, count=data.size, offset=offset)
        view[:] = data.reshape(-1)
        self.mem.record_write(self.sim.now, Agent.CPU, buf)

    def cpu_read(self, buf: Buffer, dtype=np.uint8, count: Optional[int] = None,
                 offset: int = 0) -> np.ndarray:
        self.mem.record_read(self.sim.now, Agent.CPU, buf)
        return buf.view(dtype, count=count, offset=offset)

    def poll_flag(self, buf: Buffer, offset: int = 0, at_least: int = 1):
        """CPU spin on a uint32 flag word (coherent agent: no fences)."""
        return (yield from poll_flag(
            self.sim, self.mem, Agent.CPU, buf, offset, at_least,
            self.config.cpu.completion_poll_ns))

    # ------------------------------------------------------------- buffers
    def alloc(self, nbytes: int, name: str = "", register: bool = True) -> Buffer:
        """Allocate (and by default RDMA-register) a buffer."""
        buf = self.space.alloc(nbytes, name=name)
        if register:
            self.space.register(buf)
        return buf
