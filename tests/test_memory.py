"""Unit tests for the memory substrate (repro.memory)."""

import pickle

import numpy as np
import pytest

from repro.config import default_config
from repro.memory import (
    AddressSpace,
    Agent,
    MemoryOrder,
    MemoryTiming,
    RegistrationError,
    Scope,
    ScopedMemoryModel,
)
from repro.memory.model import StaleReadError, poll_flag
from repro.sim import Simulator

try:
    from hypothesis import given
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    HAVE_HYPOTHESIS = False


class TestAddressSpace:
    def test_alloc_and_views(self):
        space = AddressSpace("n0")
        buf = space.alloc(1024, name="send")
        v = buf.view(np.float32)
        assert v.shape == (256,)
        v[:] = 1.5
        assert buf.view(np.float32)[0] == 1.5

    def test_view_bounds_checked(self):
        buf = AddressSpace().alloc(64)
        with pytest.raises(IndexError):
            buf.view(np.float64, count=9)
        with pytest.raises(IndexError):
            buf.view(np.uint8, count=1, offset=64)

    def test_read_write_bytes_roundtrip(self):
        buf = AddressSpace().alloc(16)
        buf.write_bytes(4, b"abcd")
        assert buf.read_bytes(4, 4) == b"abcd"

    def test_oob_access_rejected(self):
        buf = AddressSpace().alloc(8)
        with pytest.raises(IndexError):
            buf.read_bytes(4, 8)
        with pytest.raises(IndexError):
            buf.write_bytes(-1, b"x")

    def test_addresses_unique_and_resolvable(self):
        space = AddressSpace()
        a, b = space.alloc(100), space.alloc(100)
        assert a.base != b.base
        buf, off = space.resolve(b.addr(37))
        assert buf is b and off == 37

    def test_resolve_unmapped_rejected(self):
        space = AddressSpace()
        space.alloc(10)
        with pytest.raises(IndexError):
            space.resolve(0xDEAD_0000)

    def test_resolve_straddling_guard_page_rejected(self):
        space = AddressSpace()
        a = space.alloc(100)
        space.alloc(100)
        with pytest.raises(IndexError):
            space.resolve(a.addr(90), nbytes=20)

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(0)

    def test_free_and_double_free(self):
        space = AddressSpace()
        buf = space.alloc(10)
        space.free(buf)
        with pytest.raises(ValueError):
            space.free(buf)


class TestDmaRegistration:
    def test_dma_requires_registration(self):
        space = AddressSpace()
        buf = space.alloc(64)
        with pytest.raises(RegistrationError):
            space.dma_read(buf.addr(), 64)
        space.register(buf)
        buf.write_bytes(0, b"\x07" * 64)
        assert space.dma_read(buf.addr(), 64) == b"\x07" * 64

    def test_dma_write(self):
        space = AddressSpace()
        buf = space.alloc(32)
        space.register(buf)
        space.dma_write(buf.addr(8), b"net!")
        assert buf.read_bytes(8, 4) == b"net!"

    def test_deregister_revokes_access(self):
        space = AddressSpace()
        buf = space.alloc(32)
        space.register(buf)
        space.deregister(buf)
        with pytest.raises(RegistrationError):
            space.dma_write(buf.addr(), b"x")

    def test_register_foreign_buffer_rejected(self):
        s1, s2 = AddressSpace("a"), AddressSpace("b")
        buf = s1.alloc(8)
        with pytest.raises(RegistrationError):
            s2.register(buf)

    def test_register_freed_buffer_rejected(self):
        space = AddressSpace()
        buf = space.alloc(8)
        space.free(buf)
        with pytest.raises(RegistrationError):
            space.register(buf)


class TestScopedMemoryModel:
    """Paper Section 4.2.6: buffer must be released at system scope before
    the NIC reads it; GPU must acquire to see NIC writes."""

    def _setup(self):
        space = AddressSpace()
        return ScopedMemoryModel(), space.alloc(256, name="sendbuf")

    def test_nic_read_after_gpu_release_is_clean(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        assert mm.record_read(30, Agent.NIC, buf) is None
        assert mm.hazard_count() == 0

    def test_nic_read_without_release_is_hazard(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        hazard = mm.record_read(30, Agent.NIC, buf)
        assert hazard is not None
        assert hazard.reader is Agent.NIC and hazard.writer is Agent.GPU

    def test_device_scope_release_does_not_publish(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        mm.release(20, Agent.GPU, Scope.DEVICE)
        assert mm.record_read(30, Agent.NIC, buf) is not None

    def test_system_scope_release_store_publishes(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, scope=Scope.SYSTEM, order=MemoryOrder.RELEASE)
        assert mm.record_read(30, Agent.NIC, buf) is None

    def test_gpu_needs_acquire_to_see_nic_write(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.NIC, buf)
        hazard = mm.record_read(20, Agent.GPU, buf)  # relaxed read
        assert hazard is not None
        mm.acquire(30, Agent.GPU, Scope.SYSTEM)
        assert mm.record_read(40, Agent.GPU, buf) is None

    def test_gpu_acquire_load_observes(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.NIC, buf)
        assert mm.record_read(
            20, Agent.GPU, buf, scope=Scope.SYSTEM, order=MemoryOrder.ACQUIRE
        ) is None

    def test_cpu_writes_coherent_with_nic(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.CPU, buf)
        assert mm.record_read(20, Agent.NIC, buf) is None

    def test_rewrite_after_release_is_hazard_again(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        mm.record_write(30, Agent.GPU, buf)  # dirty again
        assert mm.record_read(40, Agent.NIC, buf) is not None

    def test_strict_mode_raises(self):
        mm = ScopedMemoryModel(strict=True)
        buf = AddressSpace().alloc(8)
        mm.record_write(10, Agent.GPU, buf)
        with pytest.raises(StaleReadError):
            mm.record_read(20, Agent.NIC, buf)

    def test_own_writes_always_visible(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        assert mm.record_read(11, Agent.GPU, buf) is None

    def test_targeted_release_only_publishes_named_buffers(self):
        mm = ScopedMemoryModel()
        space = AddressSpace()
        a, b = space.alloc(8, name="a"), space.alloc(8, name="b")
        mm.record_write(10, Agent.GPU, a)
        mm.record_write(10, Agent.GPU, b)
        mm.release(20, Agent.GPU, Scope.SYSTEM, buffers=[a])
        assert mm.record_read(30, Agent.NIC, a) is None
        assert mm.record_read(30, Agent.NIC, b) is not None

    def test_clear(self):
        mm, buf = self._setup()
        mm.record_write(1, Agent.GPU, buf)
        mm.record_read(2, Agent.NIC, buf)
        assert mm.hazard_count() == 1
        mm.clear()
        assert mm.hazard_count() == 0


class TestIntervalGranularity:
    """Pipelined protocols write slice s+1 while the NIC reads slice s of
    the same buffer; disjoint intervals must not flag hazards."""

    def _setup(self):
        space = AddressSpace()
        return ScopedMemoryModel(), space.alloc(1024, name="vec")

    def test_disjoint_intervals_no_hazard(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=512, hi=1024)
        assert mm.record_read(20, Agent.NIC, buf, lo=0, hi=512) is None

    def test_overlapping_intervals_hazard(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=256, hi=768)
        assert mm.record_read(20, Agent.NIC, buf, lo=500, hi=600) is not None

    def test_release_clears_all_intervals(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=0, hi=256)
        mm.record_write(11, Agent.GPU, buf, lo=256, hi=512)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        assert mm.record_read(30, Agent.NIC, buf) is None

    def test_write_after_release_dirty_only_new_interval(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=0, hi=256)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        mm.record_write(30, Agent.GPU, buf, lo=256, hi=512)
        assert mm.record_read(40, Agent.NIC, buf, lo=0, hi=256) is None
        assert mm.record_read(40, Agent.NIC, buf, lo=256, hi=512) is not None

    def test_whole_buffer_read_sees_any_dirty_interval(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=1000, hi=1024)
        assert mm.record_read(20, Agent.NIC, buf) is not None

    def test_empty_interval_rejected(self):
        mm, buf = self._setup()
        with pytest.raises(ValueError, match="empty write interval"):
            mm.record_write(10, Agent.GPU, buf, lo=10, hi=10)

    def test_adjacent_intervals_do_not_overlap(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=0, hi=512)
        assert mm.record_read(20, Agent.NIC, buf, lo=512, hi=1024) is None


class _NoMemoModel(ScopedMemoryModel):
    """Reference: the model with its clean-read memo dropped before every
    read, so each read takes the full merge-and-check path."""

    def record_read(self, time, agent, buf, *args, **kwargs):
        self._st(buf).clean.clear()
        return super().record_read(time, agent, buf, *args, **kwargs)


_AGENTS = list(Agent)
_SCOPES = list(Scope)
_ORDERS = list(MemoryOrder)
_SPANS = [(None, None), (0, 16), (8, 32), (32, 64), (0, 64)]


def _apply(mm, bufs, ops):
    for time, op in enumerate(ops):
        kind, agent, b, scope, order, span = op
        if kind == "write":
            mm.record_write(time, agent, bufs[b % len(bufs)], scope=scope,
                            order=order, lo=span[0], hi=span[1])
        elif kind == "read":
            mm.record_read(time, agent, bufs[b % len(bufs)], scope=scope,
                           order=order, lo=span[0], hi=span[1])
        else:  # a fence on one buffer, or on all of them for b == len(bufs)
            chosen = None if b == len(bufs) else [bufs[b]]
            getattr(mm, kind)(time, agent, scope, chosen)


def _state(mm):
    return {base: (b.writes, b.published, b.acquired, b.dirty)
            for base, b in mm._state.items()}


class TestReadMemo:
    """Memoised hazard-free reads are exact no-ops: the model behaves
    exactly as if every read ran the full merge-and-check path."""

    if HAVE_HYPOTHESIS:
        _op = st.tuples(
            st.sampled_from(["write", "read", "read", "read", "release",
                             "acquire"]),
            st.sampled_from(_AGENTS), st.integers(0, 2),
            st.sampled_from(_SCOPES), st.sampled_from(_ORDERS),
            st.sampled_from(_SPANS))

        @given(st.lists(_op, max_size=60))
        def test_matches_model_without_memo(self, ops):
            space = AddressSpace()
            bufs = [space.alloc(64, name="a"), space.alloc(64, name="b")]
            memo, ref = ScopedMemoryModel(), _NoMemoModel()
            _apply(memo, bufs, ops)
            _apply(ref, bufs, ops)
            assert memo.hazards == ref.hazards
            assert _state(memo) == _state(ref)

    def test_write_release_clear_memo_acquire_keeps_it(self):
        mm = ScopedMemoryModel()
        buf = AddressSpace().alloc(64, name="flag")
        assert mm.record_read(1, Agent.NIC, buf) is None
        assert mm._st(buf).clean == {(Agent.NIC, False, 0, 64)}
        mm.acquire(2, Agent.GPU)
        assert mm._st(buf).clean
        mm.record_write(3, Agent.GPU, buf)
        assert not mm._st(buf).clean
        assert mm.record_read(4, Agent.NIC, buf) is not None
        assert not mm._st(buf).clean
        mm.release(5, Agent.GPU)
        assert mm.record_read(6, Agent.NIC, buf) is None
        assert mm._st(buf).clean
        mm.release(7, Agent.GPU)
        assert not mm._st(buf).clean

    def test_unpickles_state_saved_without_memo(self):
        mm = ScopedMemoryModel()
        buf = AddressSpace().alloc(64, name="flag")
        mm.record_write(1, Agent.GPU, buf)
        st = mm._st(buf)
        del st.clean
        restored = pickle.loads(pickle.dumps(mm))
        assert restored.record_read(2, Agent.NIC, buf) is not None
        restored.release(3, Agent.GPU)
        assert restored.record_read(4, Agent.NIC, buf) is None
        assert restored.record_read(5, Agent.NIC, buf) is None

    @staticmethod
    def _unfenced_gpu_poll(mm, use_poll):
        """A GPU spins with relaxed loads on a flag the CPU publishes at
        t=25 (stale from then on) and sets at t=95; probes every 10 ns."""
        sim = Simulator()
        buf = AddressSpace().alloc(8, name="flag")
        word = buf.view(np.uint32, count=2)

        def cpu_store(index, value):
            word[index] = value
            mm.record_write(sim.now, Agent.CPU, buf)

        def reference():
            while True:
                mm.record_read(sim.now, Agent.GPU, buf)
                if int(word[0]) >= 1:
                    return int(word[0])
                yield sim.timeout(10)

        sim.call_later(25, cpu_store, 1, 7)
        sim.call_later(95, cpu_store, 0, 1)
        poller = (poll_flag(sim, mm, Agent.GPU, buf, 0, 1, 10) if use_poll
                  else reference())
        proc = sim.spawn(poller)
        sim.run()
        return proc

    def test_unfenced_gpu_poll_logs_every_tick(self):
        memo, ref = ScopedMemoryModel(), _NoMemoModel()
        proc = self._unfenced_gpu_poll(memo, True)
        self._unfenced_gpu_poll(ref, False)
        assert proc.value == 1
        assert [h.time for h in memo.hazards] == list(range(30, 101, 10))
        assert memo.hazards == ref.hazards

    def test_unfenced_gpu_poll_strict_raises_on_first_hazard(self):
        mm = ScopedMemoryModel(strict=True)
        proc = self._unfenced_gpu_poll(mm, True)
        assert not proc.ok and isinstance(proc.value, StaleReadError)
        assert [h.time for h in mm.hazards] == [30]


class TestMemoryTiming:
    def test_small_sets_hit_l1(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        assert t.breakdown(1024)[0] == "L1"

    def test_levels_monotone(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        sizes = [1 << k for k in range(10, 27)]
        times = [t.stream_ns(s) for s in sizes]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_large_sets_go_to_dram(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        assert t.breakdown(64 * 1024 * 1024)[0] == "DRAM"

    def test_gpu_timing_builds(self):
        cfg = default_config()
        t = MemoryTiming.for_gpu(cfg.gpu, cfg.memory)
        assert t.stream_ns(0) == 0
        assert t.stream_ns(1 << 20) > 0

    def test_negative_rejected(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        with pytest.raises(ValueError):
            t.stream_ns(-1)
