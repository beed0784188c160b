"""One report function per paper exhibit.

Each ``figure_N`` / ``table_N`` runs the corresponding experiment on the
Table 2 configuration, renders the same rows/series the paper reports,
and returns the underlying data so benchmarks and tests can assert on it.
All entry points accept an optional :class:`~repro.config.SystemConfig`
and scale-reduction knobs so the full suite runs in seconds.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.tables import render_table, sparkline
from repro.config import MB, SystemConfig, default_config
from repro.gpu.dispatcher import FIGURE1_GPUS
from repro.runtime import ResultCache, Sweep, export_chrome_trace
from repro.strategies import STRATEGIES

__all__ = [
    "figure1_report",
    "figure8_report",
    "figure9_report",
    "figure10_report",
    "figure11_report",
    "table1_report",
    "table2_report",
    "table3_report",
]


# ------------------------------------------------------------------ figures

def figure1_report(depths: Sequence[int] = (1, 4, 16, 64, 256),
                   measured: bool = True,
                   config: Optional[SystemConfig] = None,
                   jobs: int = 1,
                   cache: Optional[ResultCache] = None) -> Dict[str, List[float]]:
    """Figure 1: kernel launch latency (us) vs queue depth, three GPUs.

    With ``measured=True`` the latencies are *measured* by launching empty
    kernel batches on the simulated device; otherwise the analytic model
    values are reported.
    """
    from repro.apps.launch_study import LaunchLatencyExperiment

    config = config or default_config()
    data: Dict[str, List[float]] = {}
    if measured:
        sweep = Sweep(LaunchLatencyExperiment(),
                      grid={"gpu": list(FIGURE1_GPUS),
                            "queue_depth": list(depths)})
        records = sweep.run(config=config, jobs=jobs, cache=cache)
        by_point = {(r.params["gpu"], r.params["queue_depth"]):
                    r.metrics["per_kernel_ns"] for r in records}
        for name in FIGURE1_GPUS:
            data[name] = [by_point[(name, d)] / 1000.0 for d in depths]
    else:
        for name, model in FIGURE1_GPUS.items():
            data[name] = [model.per_kernel_ns(d) / 1000.0 for d in depths]
    rows = [[name] + [f"{v:.1f}" for v in vals] + [sparkline(vals)]
            for name, vals in data.items()]
    print(render_table(
        ["GPU"] + [f"depth={d}" for d in depths] + ["shape"], rows,
        title="Figure 1: per-kernel launch latency (us) vs. queued kernel commands",
    ))
    return data


def figure8_report(config: Optional[SystemConfig] = None,
                   export_dir: Union[str, Path, None] = None
                   ) -> Dict[str, Dict[str, float]]:
    """Figure 8: microbenchmark latency decomposition (us).

    With ``export_dir`` set, each strategy's full simulation timeline is
    also written as Chrome trace-event JSON (``fig8-<strategy>.json``),
    loadable in Perfetto / chrome://tracing.
    """
    from repro.apps.microbench import execute_all_strategies

    executions = execute_all_strategies(config)
    results = {s: e.raw for s, e in executions.items()}
    if export_dir is not None:
        for strategy, execution in executions.items():
            path = export_chrome_trace(
                execution.cluster.tracer,
                Path(export_dir) / f"fig8-{strategy}.json")
            print(f"trace: {path}")
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for key in ("gputn", "gds", "hdn"):
        r = results[key]
        spans = {
            phase: (r.spans.get(("initiator", f"kernel-{phase}")) or (0, 0))
            for phase in ("launch", "exec", "teardown")
        }
        t0 = r.t0_ns
        entry = {
            "launch_us": (spans["launch"][1] - spans["launch"][0]) / 1000,
            "exec_us": (spans["exec"][1] - spans["exec"][0]) / 1000,
            "teardown_us": (spans["teardown"][1] - spans["teardown"][0]) / 1000,
            "target_us": r.normalized_target_completion_ns / 1000,
        }
        data[key] = entry
        rows.append([
            STRATEGIES[key].display_name,
            f"{entry['launch_us']:.2f}", f"{entry['exec_us']:.2f}",
            f"{entry['teardown_us']:.2f}", f"{entry['target_us']:.2f}",
        ])
        del t0
    gputn, gds, hdn = (data[k]["target_us"] for k in ("gputn", "gds", "hdn"))
    print(render_table(
        ["strategy", "launch", "exec", "teardown", "target done @"], rows,
        title="Figure 8: latency decomposition (us, from kernel-launch start)",
    ))
    print(f"GPU-TN vs GDS: {100 * (1 - gputn / gds):.1f}% faster "
          f"(paper: ~25%);  vs HDN: {100 * (1 - gputn / hdn):.1f}% (paper: ~35%)")
    return data


def figure9_report(sizes: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
                   iters: int = 2,
                   config: Optional[SystemConfig] = None,
                   jobs: int = 1,
                   cache: Optional[ResultCache] = None) -> Dict[str, List[float]]:
    """Figure 9: Jacobi speedup vs HDN over local grid sizes."""
    from repro.apps.jacobi import JacobiExperiment

    config = config or default_config()
    strategies = ("cpu", "gds", "gputn")
    sweep = Sweep(JacobiExperiment(),
                  grid={"strategy": ["hdn", *strategies], "n": list(sizes)},
                  base={"iters": iters})
    records = sweep.run(config=config, jobs=jobs, cache=cache)
    total_ns = {(r.params["strategy"], r.params["n"]): r.metrics["total_ns"]
                for r in records}
    data: Dict[str, List[float]] = {s: [] for s in strategies}
    for n in sizes:
        hdn = total_ns[("hdn", n)]
        for s in strategies:
            data[s].append(hdn / total_ns[(s, n)])
    rows = [[s] + [f"{v:.3f}" for v in vals] + [sparkline(vals)]
            for s, vals in data.items()]
    print(render_table(
        ["strategy"] + [f"N={n}" for n in sizes] + ["shape"], rows,
        title="Figure 9: 2D Jacobi speedup vs HDN (one rank per node, 2x2 nodes)",
    ))
    return data


def figure10_report(node_counts: Sequence[int] = (2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32),
                    nbytes: int = 8 * MB,
                    config: Optional[SystemConfig] = None,
                    jobs: int = 1,
                    cache: Optional[ResultCache] = None) -> Dict[str, List[float]]:
    """Figure 10: 8 MB Allreduce strong scaling, speedup vs CPU."""
    from repro.apps.allreduce_bench import strong_scaling_study

    study = strong_scaling_study(config, node_counts=node_counts,
                                 nbytes=nbytes, jobs=jobs, cache=cache)
    data = {s: study.speedup_vs_cpu(s) for s in ("hdn", "gds", "gputn")}
    rows = [[s] + [f"{v:.3f}" for v in vals] + [sparkline(vals)]
            for s, vals in data.items()]
    print(render_table(
        ["strategy"] + [f"P={p}" for p in node_counts] + ["shape"], rows,
        title=f"Figure 10: {nbytes // MB} MB ring Allreduce, speedup vs CPU",
    ))
    return data


def figure11_report(n_nodes: int = 8,
                    config: Optional[SystemConfig] = None,
                    jobs: int = 1,
                    cache: Optional[ResultCache] = None) -> Dict[str, Dict[str, float]]:
    """Figure 11: projected deep-learning speedups on 8 nodes."""
    from repro.apps.deeplearning import project_deep_learning

    projs = project_deep_learning(config, n_nodes=n_nodes, jobs=jobs,
                                  result_cache=cache)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for key, proj in projs.items():
        data[key] = dict(proj.speedup)
        rows.append([proj.workload]
                    + [f"{proj.speedup[s]:.3f}" for s in ("cpu", "hdn", "gds", "gputn")]
                    + [f"{proj.speedup_over('gputn', 'hdn'):.3f}",
                       f"{proj.speedup_over('gputn', 'gds'):.3f}"])
    print(render_table(
        ["workload", "CPU", "HDN", "GDS", "GPU-TN", "TN/HDN", "TN/GDS"], rows,
        title=f"Figure 11: deep-learning projection, {n_nodes} nodes "
              "(speedup vs measured CPU-Allreduce config)",
    ))
    return data


# ------------------------------------------------------------------- tables

def table1_report() -> List[Tuple[str, str, str, str, str]]:
    """Table 1: qualitative strategy comparison."""
    order = ("hdn", "gpu-native", "gpu-host", "gds", "gputn")
    rows = [STRATEGIES[k].table_row() for k in order]
    print(render_table(
        ["", "GPU Triggered", "Intra-Kernel", "GPU Overhead", "CPU Overhead"],
        rows, title="Table 1: qualitative comparison of GPU networking strategies",
    ))
    return rows


def table2_report(config: Optional[SystemConfig] = None) -> Dict[str, Dict[str, object]]:
    """Table 2: simulation configuration."""
    config = config or default_config()
    table = config.describe()
    for section, entries in table.items():
        print(render_table(["parameter", "value"], list(entries.items()),
                           title=section))
        print()
    return table


def table3_report() -> List[Tuple[str, str, str, str]]:
    """Table 3: CNTK workload description."""
    from repro.apps.deeplearning import table3_rows

    rows = table3_rows()
    print(render_table(["Name", "Domain", "%Blocked", "Reductions"], rows,
                       title="Table 3: CNTK workload description"))
    return rows
