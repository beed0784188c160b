"""Shared-memory substrate.

The paper's evaluation platform is a coherent APU-style SoC: CPU, GPU and
NIC share one system address space (Section 5.1), and correctness of
intra-kernel networking hinges on the GPU's *scoped, relaxed* memory model
(Section 4.2.6): the send buffer must be made visible at **system scope**
(release fence) before the trigger-address store, and completion flags
must be read with system-scope acquire.

This subpackage provides:

* :class:`~repro.memory.address_space.AddressSpace` /
  :class:`~repro.memory.address_space.Buffer` -- byte-addressable shared
  memory with NumPy-backed buffers and NIC registration,
* :class:`~repro.memory.model.ScopedMemoryModel` -- visibility tracking
  between agents (CPU / GPU / NIC) with fences, scopes and hazard
  detection,
* :mod:`~repro.memory.timing` -- cache/DRAM access-latency estimators used
  by the compute cost models.
"""

from repro.memory.address_space import AddressSpace, Buffer, RegistrationError
from repro.memory.model import (
    Agent,
    MemoryHazard,
    MemoryOrder,
    Scope,
    ScopedMemoryModel,
    poll_flag,
)
from repro.memory.timing import MemoryTiming

__all__ = [
    "AddressSpace",
    "Agent",
    "Buffer",
    "MemoryHazard",
    "MemoryOrder",
    "MemoryTiming",
    "RegistrationError",
    "Scope",
    "ScopedMemoryModel",
    "poll_flag",
]
