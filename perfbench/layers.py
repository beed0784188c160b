"""The layer boundaries the traced run records, and the per-layer metrics.

Every target is a public function or method of one layer of ``repro``.
Each is patched where the program looks it up: a class attribute for
methods, and for a module function every module it is read from at call
time (``repro.apps.congestion`` imports ``attach_traffic`` from
``repro.traffic`` inside ``setup``, so that package attribute is patched
too).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Optional, Sequence, Tuple

from spans import SpanRecorder, self_times

__all__ = ["COUNTERS", "PER_LAYER", "install", "layer_metrics"]

_KERNEL_CONTEXT = ("arg", "compute", "compute_bytes", "barrier",
                   "fence_release_system", "fence_acquire_system",
                   "store_trigger", "store_trigger_dynamic",
                   "store_trigger_per_workitem", "poll_flag", "write", "read")
_MEMORY = ("record_write", "record_read", "release", "acquire")
_TRAFFIC_PATTERNS = ("PoissonTraffic", "OnOffTraffic", "PermutationTraffic",
                     "IncastTraffic")

#: (span name, module, class name or None for a module function, attribute)
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim.run", "repro.sim.engine", "Simulator", "run"),
    ("net.transmit", "repro.net.fabric", "Fabric", "transmit"),
    ("net.queues.admit", "repro.net.queues", "SwitchQueues", "admit"),
    ("nic.mmio_write", "repro.nic.device", "Nic", "mmio_write"),
    ("nic.post_put", "repro.nic.device", "Nic", "post_put"),
    ("nic.post_recv", "repro.nic.device", "Nic", "post_recv"),
    ("nic.ring_doorbell", "repro.nic.device", "Nic", "ring_doorbell"),
    ("nic.register_triggered_put", "repro.nic.device", "Nic",
     "register_triggered_put"),
    ("nic.trigger", "repro.nic.triggered", "TriggerList", "trigger"),
    ("nic.transport.send", "repro.nic.transport", "ReliableTransport", "send"),
    ("nic.transport.on_peer_accept", "repro.nic.transport",
     "ReliableTransport", "on_peer_accept"),
    ("gpu.launch", "repro.gpu.device", "Gpu", "launch"),
    *(("gpu.ctx." + m, "repro.gpu.kernel", "KernelContext", m)
      for m in _KERNEL_CONTEXT),
    *(("memory." + m, "repro.memory.model", "ScopedMemoryModel", m)
      for m in _MEMORY),
    ("collectives.setup", "repro.collectives.engine", "CollectiveExperiment",
     "setup"),
    ("collectives.verify", "repro.collectives.engine", "CollectiveExperiment",
     "finish"),
    ("traffic.attach", "repro.traffic", None, "attach_traffic"),
    ("traffic.attach", "repro.traffic.background", None, "attach_traffic"),
    *(("traffic.events", "repro.traffic.generators", cls, "events")
      for cls in _TRAFFIC_PATTERNS),
    ("runtime.build_cluster", "repro.collectives.engine",
     "CollectiveExperiment", "build_cluster"),
    ("runtime.build_cluster", "repro.apps.congestion", "CongestionExperiment",
     "build_cluster"),
    ("runtime.record", "repro.runtime.record", "RunRecord", "__init__"),
    ("service.journal.append", "repro.service.store", "JobStore",
     "append_point"),
    ("service.cache.get", "repro.runtime.cache", "ResultCache", "get"),
)

#: Counters read from each point's RunRecord and live cluster after it ran.
COUNTERS = ("points", "sim_events", "fired", "drops", "ecn_marks",
            "retransmits", "tx_data", "hazards", "traffic_messages")

#: Every per-layer metric: (name, unit, the end-to-end metric it should
#: move, and on which workload).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count",
     "events_per_s, points_per_s on point-collective; less on point-congestion"),
    ("sim.run.self_s", "s",
     "events_per_s, points_per_s on point-collective; less on point-congestion"),
    ("net.transmit.calls", "count", "points_per_s on point-congestion"),
    ("net.transmit.self_s", "s", "points_per_s on point-congestion"),
    ("net.queues.admit.calls", "count",
     "points_per_s on point-congestion only; no change on point-collective"),
    ("net.queues.admit.self_s", "s",
     "points_per_s on point-congestion only; no change on point-collective"),
    ("net.queues.drops", "count",
     "points_per_s on point-congestion only; no change on point-collective"),
    ("net.queues.ecn_marks", "count",
     "points_per_s on point-congestion only; no change on point-collective"),
    ("nic.mmio_write.calls", "count", "points_per_s on both point workloads"),
    ("nic.post.calls", "count", "points_per_s on both point workloads"),
    ("nic.triggered.fired", "count", "points_per_s on both point workloads"),
    ("nic.self_s", "s", "points_per_s on both point workloads"),
    ("nic.transport.send.calls", "count",
     "points_per_s on point-congestion only"),
    ("nic.transport.self_s", "s", "points_per_s on point-congestion only"),
    ("nic.transport.retransmits", "count",
     "points_per_s on point-congestion only"),
    ("nic.transport.tx_data", "count",
     "points_per_s on point-congestion only"),
    ("nic.transport.useful_ratio", "ratio",
     "points_per_s on point-congestion only"),
    ("gpu.launch.calls", "count", "points_per_s on point-collective"),
    ("gpu.self_s", "s", "points_per_s on point-collective"),
    ("memory.calls", "count", "points_per_s on point-collective"),
    ("memory.self_s", "s", "points_per_s on point-collective"),
    ("memory.hazards", "count", "failed_ratio; must stay 0"),
    ("collectives.setup_s", "s", "point_s.p50 on point-collective"),
    ("collectives.verify_s", "s", "point_s.p50 on point-collective"),
    ("traffic.self_s", "s", "points_per_s on point-congestion"),
    ("traffic.messages", "count", "points_per_s on point-congestion"),
    ("runtime.build_cluster_s", "s",
     "point_s.p50 everywhere; largest share on campaign"),
    ("runtime.record_s", "s",
     "point_s.p50 everywhere; largest share on campaign"),
    ("runtime.unattributed_s", "s", "point_s.p50 everywhere"),
    ("service.overhead_ms_per_point", "ms", "points_per_s on campaign"),
    ("service.journal.appends", "count", "points_per_s on campaign"),
    ("service.journal.append_s", "s", "points_per_s on campaign"),
    ("service.cache.lookups", "count", "warm_points_per_s on campaign"),
    ("service.cache.hits", "count", "warm_points_per_s on campaign"),
    ("service.cache.get_s", "s", "warm_points_per_s on campaign"),
    ("service.cache.hit_ratio", "ratio", "warm_points_per_s on campaign"),
    ("service.reissued", "count", "points_per_s on campaign; should be 0"),
    ("trace_overhead_ratio", "ratio", "no end-to-end metric (tracing cost only)"),
)


def install(rec: SpanRecorder) -> None:
    """Patch every target; undo with ``rec.restore()``."""
    for name, module, cls, attr in TARGETS:
        owner: Any = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        rec.patch(owner, attr, name)


def _sum(times: Dict[str, Tuple[int, float]], prefix: str,
         exclude: str = "\0") -> Tuple[int, float]:
    calls, total = 0, 0.0
    for name, (c, s) in times.items():
        if name.startswith(prefix) and not name.startswith(exclude):
            calls += c
            total += s
    return calls, total


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0 when the base is empty (the layer did no work)."""
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Any], counters: Dict[str, int],
                  service: Dict[str, Any], overhead_ratio: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``{name: (value, note)}``.

    ``counters`` sums :data:`COUNTERS` over the traced points; ``service``
    holds the parent-side job figures (zeros on point workloads).
    """
    times = self_times(spans)
    warm = self_times(spans, select=lambda point: point == "warm")
    t = lambda name: times.get(name, (0, 0.0))  # noqa: E731
    tx, rtx = counters["tx_data"], counters["retransmits"]
    lookups, hits = service["lookups"], service["hits"]
    nic_calls, nic_self = _sum(times, "nic.", exclude="nic.transport.")
    gpu_calls, gpu_self = _sum(times, "gpu.")
    mem_calls, mem_self = _sum(times, "memory.")
    post_calls = sum(t(n)[0] for n in ("nic.post_put", "nic.post_recv",
                                       "nic.ring_doorbell"))
    out: Dict[str, Tuple[float, str]] = {
        "sim.events": (counters["sim_events"], ""),
        "sim.run.self_s": (t("sim.run")[1], "engine + unwrapped private "
                           "callbacks of other layers"),
        "net.transmit.calls": (t("net.transmit")[0], ""),
        "net.transmit.self_s": (t("net.transmit")[1], ""),
        "net.queues.admit.calls": (t("net.queues.admit")[0], ""),
        "net.queues.admit.self_s": (t("net.queues.admit")[1], ""),
        "net.queues.drops": (counters["drops"], ""),
        "net.queues.ecn_marks": (counters["ecn_marks"], ""),
        "nic.mmio_write.calls": (t("nic.mmio_write")[0], ""),
        "nic.post.calls": (post_calls, "post_put + post_recv + ring_doorbell"),
        "nic.triggered.fired": (counters["fired"], ""),
        "nic.self_s": (nic_self, f"{nic_calls} calls"),
        "nic.transport.send.calls": (t("nic.transport.send")[0], ""),
        "nic.transport.self_s": (_sum(times, "nic.transport.")[1], ""),
        "nic.transport.retransmits": (rtx, ""),
        "nic.transport.tx_data": (tx, ""),
        "nic.transport.useful_ratio": (_ratio(tx, tx + rtx),
                                       f"base {tx}/{tx + rtx}"),
        "gpu.launch.calls": (t("gpu.launch")[0], ""),
        "gpu.self_s": (gpu_self, f"{gpu_calls} calls"),
        "memory.calls": (mem_calls, ""),
        "memory.self_s": (mem_self, ""),
        "memory.hazards": (counters["hazards"], ""),
        "collectives.setup_s": (t("collectives.setup")[1], "schedule build"),
        "collectives.verify_s": (t("collectives.verify")[1], "NumPy oracle"),
        "traffic.self_s": (_sum(times, "traffic.")[1], ""),
        "traffic.messages": (counters["traffic_messages"], ""),
        "runtime.build_cluster_s": (t("runtime.build_cluster")[1], ""),
        "runtime.record_s": (t("runtime.record")[1], ""),
        "runtime.unattributed_s": (t("point")[1],
                                   "self time of the point span"),
        "service.overhead_ms_per_point": (service["overhead_ms_per_point"],
                                          "parent-side"),
        "service.journal.appends": (t("service.journal.append")[0], ""),
        "service.journal.append_s": (t("service.journal.append")[1], ""),
        "service.cache.lookups": (lookups, "warm phase"),
        "service.cache.hits": (hits, "warm phase"),
        "service.cache.get_s": (warm.get("service.cache.get", (0, 0.0))[1],
                                "warm phase"),
        "service.cache.hit_ratio": (_ratio(hits, lookups),
                                    f"base {hits}/{lookups}"),
        "service.reissued": (service["reissued"], ""),
        "trace_overhead_ratio": (overhead_ratio, "traced / untraced "
                                 "direct execute throughput"),
    }
    missing = {name for name, _unit, _moves in PER_LAYER} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metric table mismatch: {missing}")
    return {name: (out[name][0], "; ".join(filter(None, (
        out[name][1], f"moves {moves}")))) for name, _unit, moves in PER_LAYER}
