"""Kernel programs: the intra-kernel API of paper Figure 7.

A *kernel program* is a Python generator function taking a
:class:`KernelContext` -- the simulation analogue of an OpenCL kernel
written at work-group granularity.  Inside it you can:

* ``yield ctx.compute(ns)`` / ``yield ctx.compute_bytes(n)`` -- local work;
* ``yield ctx.barrier()`` -- ``work_group_barrier``;
* ``yield ctx.fence_release_system(buf, ...)`` --
  ``atomic_work_item_fence(..., memory_scope_all_svm_devices)`` with
  release semantics (publishes the buffers to the NIC);
* ``yield ctx.fence_acquire_system()`` -- the acquire direction;
* ``yield ctx.store_trigger(tag)`` -- the paper's core primitive: a
  system-scope atomic store of ``tag`` to the NIC trigger address;
* ``yield from ctx.poll_flag(buf, off, value)`` -- spin on a flag word
  with system-scope acquire loads (target-side notification, §4.2.5);
* ``ctx.write(buf, array)`` / ``ctx.read(buf)`` -- actual data movement
  (NumPy), with ``yield ctx.compute_bytes(...)`` charging its time.

Example -- work-group-level triggering (paper Figure 7b)::

    def kern2(ctx):
        ctx.write(ctx.arg("buffer"), my_tile)        # do work
        yield ctx.compute_bytes(my_tile.nbytes)
        yield ctx.barrier()
        yield ctx.fence_release_system(ctx.arg("buffer"))
        if ctx.is_leader:
            yield ctx.store_trigger(ctx.arg("tag_base") + ctx.wg_id)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

import numpy as np

from repro.config import SystemConfig
from repro.memory import Agent, Buffer, MemoryOrder, Scope, poll_flag
from repro.sim import Event, Simulator

__all__ = ["KernelContext", "KernelDescriptor"]

_kernel_ids = itertools.count(1)

KernelFn = Callable[["KernelContext"], Generator[Event, Any, Any]]


@dataclass
class KernelDescriptor:
    """Dispatch parameters for one kernel (an AQL packet, roughly)."""

    fn: KernelFn
    n_workgroups: int
    wg_size: int = 256
    args: Dict[str, Any] = field(default_factory=dict)
    name: str = ""
    kernel_id: int = field(default_factory=lambda: next(_kernel_ids))

    def __post_init__(self) -> None:
        if self.n_workgroups <= 0:
            raise ValueError(f"kernel needs >=1 work-group, got {self.n_workgroups}")
        if self.wg_size <= 0:
            raise ValueError(f"work-group size must be positive, got {self.wg_size}")
        if not self.name:
            self.name = getattr(self.fn, "__name__", f"kernel{self.kernel_id}")


class KernelContext:
    """Per-work-group execution context handed to kernel programs."""

    def __init__(self, sim: Simulator, gpu, desc: KernelDescriptor, wg_id: int):
        self.sim = sim
        self.gpu = gpu
        self.desc = desc
        self.wg_id = wg_id
        self.config: SystemConfig = gpu.config

    # ------------------------------------------------------------ identity
    @property
    def n_workgroups(self) -> int:
        return self.desc.n_workgroups

    @property
    def wg_size(self) -> int:
        return self.desc.wg_size

    @property
    def is_leader(self) -> bool:
        """True in the work-group whose leader work-item would run
        ``if (!get_local_id(...))`` code.  At work-group granularity every
        simulated group has exactly one leader, so this is always true;
        it is kept for source fidelity with Figure 7."""
        return True

    def arg(self, name: str) -> Any:
        try:
            return self.desc.args[name]
        except KeyError:
            raise KeyError(
                f"kernel {self.desc.name!r} has no argument {name!r}; "
                f"available: {sorted(self.desc.args)}"
            ) from None

    # ------------------------------------------------------------- compute
    def compute(self, ns: int) -> Event:
        """Busy the work-group for ``ns`` nanoseconds."""
        if ns < 0:
            raise ValueError("negative compute time")
        return self.sim.timeout(int(ns))

    def compute_bytes(self, nbytes: int, flops_per_byte: float = 1.0) -> Event:
        """Streaming compute over ``nbytes`` at one CU's share of the GPU's
        aggregate throughput (the work-group has one CU in this model)."""
        gpu_cfg = self.config.gpu
        per_cu = gpu_cfg.stream_bytes_per_ns / gpu_cfg.compute_units
        ns = int(round(nbytes * max(flops_per_byte, 1.0) / per_cu))
        return self.sim.timeout(max(ns, 1) if nbytes > 0 else 0)

    def barrier(self) -> Event:
        """``work_group_barrier`` -- synchronize the work-items of this group."""
        return self.sim.timeout(self.config.gpu.workgroup_barrier_ns)

    # ------------------------------------------------------- memory model
    def fence_release_system(self, *buffers: Buffer) -> Event:
        """System-scope release fence: publish writes to CPU/NIC.

        The publish is a callback on the fence's own completion event --
        not a sibling event at the same tick -- so it is program-ordered
        before anything the fence unblocks under *every* legal same-tick
        event ordering (the schedule fuzzer explores them all).
        """
        delay = self.config.gpu.fence_system_ns
        bufs = list(buffers) or None
        ev = self.sim.timeout(delay)
        ev.callbacks.append(lambda _ev: self.gpu.mem.release(
            self.sim.now, Agent.GPU, Scope.SYSTEM, bufs))
        return ev

    def fence_acquire_system(self, *buffers: Buffer) -> Event:
        """System-scope acquire fence: observe CPU/NIC writes.

        As with the release direction, the acquire happens atomically with
        the fence event itself, ahead of the resumed kernel's next load.
        """
        delay = self.config.gpu.fence_system_ns
        bufs = list(buffers) or None
        ev = self.sim.timeout(delay)
        ev.callbacks.append(lambda _ev: self.gpu.mem.acquire(
            self.sim.now, Agent.GPU, Scope.SYSTEM, bufs))
        return ev

    # --------------------------------------------------------- triggering
    def store_trigger(self, tag: int, nic=None) -> Event:
        """``atomic_store_explicit(trigAddr, tag, memory_order_release,
        memory_scope_all_svm_devices)`` -- the GPU-TN trigger write."""
        nic = nic or self.gpu.nic
        delay = self.config.gpu.atomic_system_store_ns
        self.sim.call_later(delay, nic.mmio_write, nic.trigger_address, tag, Agent.GPU)
        return self.sim.timeout(delay)

    def store_trigger_dynamic(self, tag: int, nic=None, **overrides: Any) -> Event:
        """Section 3.4 extension: a wide trigger store that also carries
        operation fields (target, addresses, size) chosen on the GPU.
        Costs one extra store beat for the extra words."""
        nic = nic or self.gpu.nic
        delay = self.config.gpu.atomic_system_store_ns * 2
        self.sim.call_later(
            delay,
            lambda: nic.mmio_write_dynamic(nic.trigger_address, tag,
                                           Agent.GPU, **overrides),
        )
        return self.sim.timeout(delay)

    def store_trigger_per_workitem(self, base_tag: int, n_items: Optional[int] = None) -> Event:
        """Work-item-level triggering (Figure 7a): every work-item in the
        group stores its own tag.  Stores pipeline at ~1/cycle once the
        first reaches the fabric."""
        n = n_items if n_items is not None else self.wg_size
        if n <= 0:
            raise ValueError("need at least one work-item trigger")
        nic = self.gpu.nic
        first = self.config.gpu.atomic_system_store_ns
        for i in range(n):
            self.sim.call_later(first + i, nic.mmio_write, nic.trigger_address,
                                base_tag + i, Agent.GPU)
        return self.sim.timeout(first + n - 1)

    # ------------------------------------------------------------- polling
    def poll_flag(self, buf: Buffer, offset: int = 0, at_least: int = 1):
        """Spin on a uint32 flag word until it reaches ``at_least``.

        A generator: use ``yield from ctx.poll_flag(...)``.  Each probe is
        a system-scope acquire load (paper §4.2.5/§4.2.6) costing one
        poll interval.
        """
        return (yield from poll_flag(
            self.sim, self.gpu.mem, Agent.GPU, buf, offset, at_least,
            self.config.gpu.poll_interval_ns,
            scope=Scope.SYSTEM, order=MemoryOrder.ACQUIRE))

    # ---------------------------------------------------------------- data
    def write(self, buf: Buffer, data: np.ndarray, offset: int = 0) -> None:
        """Store ``data`` into ``buf`` (device-scope visibility only)."""
        view = buf.view(data.dtype, count=data.size, offset=offset)
        view[:] = data.reshape(-1)
        self.gpu.mem.record_write(self.sim.now, Agent.GPU, buf)

    def read(self, buf: Buffer, dtype=np.uint8, count: Optional[int] = None,
             offset: int = 0, acquire: bool = False) -> np.ndarray:
        """Load from ``buf``; pass ``acquire=True`` for system-scope loads."""
        self.gpu.mem.record_read(
            self.sim.now, Agent.GPU, buf,
            scope=Scope.SYSTEM if acquire else Scope.DEVICE,
            order=MemoryOrder.ACQUIRE if acquire else MemoryOrder.RELAXED,
        )
        return buf.view(dtype, count=count, offset=offset)
