"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402  (puts the checkout's src on sys.path)
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS, Pass, digest  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_probe_all_times_every_copy():
    assert 0 < hostspeed.probe_all(2) < 1.0


# ----------------------------------------------------------- seeded inputs
def test_same_seed_same_points_other_seed_other_order():
    for workload in WORKLOADS.values():
        a, b = workload.points(7), workload.points(7)
        assert a == b
        other = workload.points(8)
        assert a != other
        key = lambda p: sorted((k, v) for k, v in p.items() if k != "seed")  # noqa: E731
        assert [key(p) for p in a] != [key(p) for p in other]  # order
        assert sorted(map(key, a)) == sorted(map(key, other))  # same grid


def test_same_seed_same_digest():
    workload = WORKLOADS["campaign"]
    experiment = workload.experiment()

    def records(seed):
        return [experiment.execute(p).record.to_json()
                for p in workload.points(seed)[:3]]

    assert digest(records(3)) == digest(records(3))
    assert digest(records(3)) != digest(records(4))


def test_tracing_never_changes_a_record():
    workload = WORKLOADS["point-congestion"]
    experiment = workload.experiment()
    point = min(workload.points(1), key=lambda p: p["load"])
    plain = experiment.execute(point).record.to_json()
    rec = SpanRecorder()
    layers.install(rec)
    try:
        traced = experiment.execute(point).record.to_json()
    finally:
        rec.restore()
    assert traced == plain
    names = {span[0] for span in rec.spans()}
    assert {"sim.run", "net.transmit", "net.queues.admit",
            "nic.transport.send", "traffic.attach",
            "traffic.events"} <= names


# -------------------------------------------------------------- self time
def test_self_time_of_a_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: their
    # union covers 5) and c [8, 12] (clipped to the root: covers 2);
    # a has child d [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, "p"],
        ["a", 1.0, 4.0, 0, "p"],
        ["d", 2.0, 3.0, 1, "p"],
        ["b", 3.0, 6.0, 0, "p"],
        ["c", 8.0, 12.0, 0, "q"],
    ]
    times = self_times(spans)
    assert times["root"] == (1, 10.0 - 5.0 - 2.0)
    assert times["a"] == (1, 2.0)
    assert times["d"] == (1, 1.0)
    assert times["b"] == (1, 3.0)
    assert times["c"] == (1, 4.0)
    assert self_times(spans, select=lambda point: point == "q") == {
        "c": (1, 4.0)}


def test_recorder_nests_calls_and_generators_and_restores():
    class Model:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def steps(self, n):
            for i in range(n):
                got = yield i
                assert got == i * 10
            return "done"

    originals = dict(vars(Model))
    rec = SpanRecorder()
    rec.patch(Model, "outer", "outer")
    rec.patch(Model, "inner", "inner")
    rec.patch(Model, "steps", "steps")
    m = Model()
    assert m.outer() == 2
    gen = m.steps(2)
    assert next(gen) == 0
    assert gen.send(0) == 1
    with pytest.raises(StopIteration) as stop:
        gen.send(10)
    assert stop.value.value == "done"
    rec.restore()
    for attr in ("outer", "inner", "steps"):
        assert vars(Model)[attr] is originals[attr]
    assert [(s[0], s[3]) for s in rec.spans()] == [
        ("outer", -1), ("inner", 0), ("steps", -1), ("steps", -1),
        ("steps", -1)]


# ---------------------------------------------------------------- metrics
def _report(trace: int, metrics, units) -> dict:
    args = run.parse_args(["--workload", "campaign", "--seed", "1",
                           "--trace", str(trace)])
    p = Pass(wall_s=1.0, points=2, attempted=2, records=["{}", "{}"],
             probes=[0.001])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(args, [p, p], metrics, units)
    lines = out.getvalue().splitlines()
    assert any(line.startswith("failed_ratio") for line in lines)
    return json.loads(lines[-1])


def test_every_end_to_end_metric_printed_with_its_unit():
    bench = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    times = [0.1 * i for i in range(1, 121)]
    p = Pass(wall_s=2.0, cpu_s=1.0, points=len(times),
             point_s=times, point_cpu_s=times)
    p.counters["sim_events"] = 1000
    metrics = run.end_to_end([p, p], [0.2, 0.3, 0.25])
    doc = _report(0, metrics, dict(run.END_TO_END))
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_every_per_layer_metric_printed_with_its_unit():
    bench = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {n: u for n, u, _ in layers.PER_LAYER}
    counters = dict.fromkeys(layers.COUNTERS, 1)
    service = {"lookups": 4, "hits": 2, "reissued": 0,
               "overhead_ms_per_point": 1.0}
    metrics = layers.layer_metrics([["sim.run", 0.0, 1.0, -1, None]],
                                   counters, service, 0.9)
    doc = _report(1, metrics, declared)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert doc["metrics"]["service.cache.hit_ratio"]["value"] == 0.5
