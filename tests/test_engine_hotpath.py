"""Tests for the engine hot-path optimizations: call_later + event
pooling, batched run() determinism, and the run_until_event reentrancy
guard (regression)."""

import random

import pytest

from repro.sim import Interrupt, SimulationError, Simulator
from repro.sim.engine import _POOL_MAX, PRIORITY_NORMAL, PRIORITY_URGENT


class TestCallLater:
    def test_runs_callback_with_args(self):
        sim = Simulator()
        seen = []
        sim.call_later(5, seen.append, "x")
        sim.run()
        assert seen == ["x"] and sim.now == 5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-1, lambda: None)

    def test_priority_orders_same_tick(self):
        sim = Simulator()
        order = []
        sim.call_later(10, order.append, "normal")
        sim.call_later(10, order.append, "high", priority=PRIORITY_URGENT)
        sim.run()
        assert order == ["high", "normal"]

    def test_interleaves_with_schedule_in_fifo_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "a")
        sim.call_later(10, order.append, "b")
        sim.schedule(10, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_recycled_through_pool(self):
        sim = Simulator()
        for _ in range(10):
            sim.call_later(1, lambda: None)
        sim.run()
        # All ten callback events returned to the freelist and at most
        # one object was ever allocated per concurrently pending slot.
        assert 1 <= len(sim._pool) <= 10

    def test_pool_is_bounded(self):
        sim = Simulator()
        for _ in range(_POOL_MAX + 50):
            sim.call_later(0, lambda: None)
        sim.run()
        assert len(sim._pool) <= _POOL_MAX

    def test_reentrant_call_later_from_callback(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append("outer")
            sim.call_later(3, seen.append, "inner")

        sim.call_later(1, outer)
        sim.run()
        assert seen == ["outer", "inner"] and sim.now == 4

    def test_events_processed_counts_all_pops(self):
        sim = Simulator()
        for i in range(7):
            sim.call_later(i, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestRunDeterminism:
    """run()'s batched drain must pop the exact sequence repeated step()
    would -- the ordering contract golden fixtures depend on."""

    @staticmethod
    def _seeded_workload(sim, seed):
        rng = random.Random(seed)
        sig = []
        sim.add_step_probe(
            lambda t, prio, tie, seq, ev: sig.append((t, prio, tie, seq)))

        def chain(depth):
            if depth > 0:
                for _ in range(rng.randint(1, 3)):
                    sim.call_later(rng.randint(0, 4), chain, depth - 1,
                                   priority=rng.choice(
                                       (PRIORITY_URGENT, PRIORITY_NORMAL,
                                        PRIORITY_NORMAL)))

        for _ in range(20):
            sim.call_later(rng.randint(0, 10), chain, 3)
        return sig

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_run_matches_stepping(self, seed):
        sim_run = Simulator()
        sig_run = self._seeded_workload(sim_run, seed)
        sim_run.run()

        sim_step = Simulator()
        sig_step = self._seeded_workload(sim_step, seed)
        while sim_step.peek() is not None:
            sim_step.step()

        assert sig_run == sig_step
        assert sim_run.now == sim_step.now

    @pytest.mark.parametrize("seed", [3, 29])
    def test_run_until_matches_stepping(self, seed):
        sim_run = Simulator()
        sig_run = self._seeded_workload(sim_run, seed)
        sim_run.run(until=8)

        sim_step = Simulator()
        sig_step = self._seeded_workload(sim_step, seed)
        while sim_step.peek() is not None and sim_step.peek() <= 8:
            sim_step.step()

        assert sig_run == sig_step
        assert sim_run.now == 8

    def test_probe_added_mid_run_is_honored(self):
        sim = Simulator()
        late = []

        def attach():
            sim.add_step_probe(
                lambda t, prio, tie, seq, ev: late.append(t))

        sim.call_later(1, attach)
        sim.call_later(5, lambda: None)
        sim.run()
        assert late == [5]


class TestRunUntilEventReentrancy:
    def test_nested_run_until_event_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            inner = sim.timeout(1)
            try:
                sim.run_until_event(inner)
            except SimulationError as exc:
                errors.append(exc)

        sim.call_later(1, nested)
        sim.run_until_event(sim.timeout(10))
        assert len(errors) == 1
        assert "not reentrant" in str(errors[0])

    def test_run_until_event_inside_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run_until_event(sim.timeout(1))
            except SimulationError as exc:
                errors.append(exc)

        sim.call_later(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_guard_released_after_completion(self):
        sim = Simulator()
        sim.run_until_event(sim.timeout(5))
        sim.run_until_event(sim.timeout(5))
        assert sim.now == 10


class TestPoll:
    """``Simulator.poll`` must pop exactly what the loop it replaces pops:
    ``while probe() is None: yield sim.timeout(P)``."""

    PERIOD = 7

    @classmethod
    def _world(cls, use_poll, seed, writer_prio):
        """Three pollers on one counter, writers landing before, exactly on
        and after their tick boundaries, plus same-tick filler events."""
        sim = Simulator()
        if seed is not None:
            sim.seed_tiebreaks(seed)
        sig, woke, probed = [], [], []
        sim.add_step_probe(
            lambda t, prio, tie, seq, ev: sig.append((t, prio, tie, seq)))
        counter = [0]

        def poller(name, start, at_least):
            yield sim.timeout(start)

            def probe():
                probed.append((name, sim.now))
                return counter[0] if counter[0] >= at_least else None

            if use_poll:
                value = probe()
                if value is None:
                    value = yield sim.poll(cls.PERIOD, probe)
            else:
                while probe() is None:
                    yield sim.timeout(cls.PERIOD)
                value = counter[0]
            woke.append((name, sim.now, value))

        def bump():
            counter[0] += 1

        for name, start, at_least in (("a", 0, 2), ("b", 3, 4), ("c", 3, 5)):
            sim.spawn(poller(name, start, at_least))
        # Ticks of "a" fall on multiples of 7, of "b"/"c" on 3 + 7k: the
        # deciding writes land exactly on a tick (21 for "a", 24 for "b")
        # and just after one (46 for "c").
        for t in (20, 21, 22, 24, 46, 52):
            sim.call_later(t, bump, priority=writer_prio)
        for t in range(0, 70, 7):
            sim.call_later(t, lambda: None)
            sim.call_later(t + 3, lambda: None, priority=PRIORITY_URGENT)
        sim.run()
        return sig, woke, probed

    @pytest.mark.parametrize("writer_prio", [PRIORITY_NORMAL, PRIORITY_URGENT])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 17, 99])
    def test_matches_timeout_loop(self, seed, writer_prio):
        sig_ref, woke_ref, probed_ref = self._world(False, seed, writer_prio)
        sig, woke, probed = self._world(True, seed, writer_prio)
        assert sig == sig_ref
        assert woke == woke_ref
        assert probed == probed_ref
        assert len(woke) == 3

    def test_value_and_wake_time(self):
        sim = Simulator()
        flag = [None]
        sim.call_later(30, flag.__setitem__, 0, "set")
        ev = sim.poll(10, lambda: flag[0])
        woke = []
        ev.callbacks.append(lambda e: woke.append(sim.now))
        sim.run()
        assert ev.value == "set" and woke == [30] and sim.now == 30

    def test_probe_exception_reaches_waiter(self):
        sim = Simulator()
        ticks = []

        def probe():
            ticks.append(sim.now)
            if len(ticks) == 3:
                raise KeyError("boom")

        def waiter():
            try:
                yield sim.poll(5, probe)
            except KeyError:
                return sim.now

        proc = sim.spawn(waiter())
        sim.run()
        assert proc.value == 15 and ticks == [5, 10, 15]

    @classmethod
    def _stopped_world(cls, use_poll, stop, seed):
        """One poller that never succeeds, stopped at t=24 by ``stop``;
        returns the pop signature and the pops of the abandoned wait."""
        sim = Simulator()
        sim.seed_tiebreaks(seed)
        sig, waits, orphan_pops = [], [], []

        def on_step(t, prio, tie, seq, ev):
            sig.append((t, prio, tie, seq))
            if waits and ev is waits[-1] and t > 24:
                orphan_pops.append(t)

        sim.add_step_probe(on_step)

        def poller():
            try:
                if use_poll:
                    waits.append(sim.poll(cls.PERIOD, lambda: None))
                    yield waits[-1]
                else:
                    while True:
                        waits.append(sim.timeout(cls.PERIOD))
                        yield waits[-1]
            except Interrupt:
                yield sim.timeout(100)

        proc = sim.spawn(poller())
        sim.call_later(24, getattr(proc, stop))
        sim.run()
        return sig, orphan_pops, sim.now

    @pytest.mark.parametrize("stop", ["interrupt", "kill"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stopped_poller_pops_once_more(self, stop, seed):
        sig_ref, orphan_ref, now_ref = self._stopped_world(False, stop, seed)
        sig, orphan, now = self._stopped_world(True, stop, seed)
        assert sig == sig_ref and now == now_ref
        # The tick pending at t=24 pops once (at 28) with no waiter, then
        # nothing is rescheduled.
        assert orphan == orphan_ref == [28]
