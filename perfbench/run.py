#!/usr/bin/env python3
"""Benchmark of the GPU-TN reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload point-collective --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs whole passes over the workload's points for about
``--seconds`` seconds and prints every end-to-end metric.  ``--trace 1``
runs one untraced pass, then one pass with spans recorded around the
layers' public functions, and prints every per-layer metric.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import time

import hostspeed

_SPEED0 = hostspeed.probe()
_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Pass, Workload, digest  # noqa: E402

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("warm_points_per_s", "1/s"),
    ("point_s.p50", "s"),
    ("point_s.p90", "s"),
    ("events_per_s", "1/s"),
    ("cpu_s_per_point", "s"),
    ("peak_rss_mb", "MB"),
)
#: Set-up is measured this many times (this process plus fresh ones).
SETUP_SAMPLES = 9
#: p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
#: Stop adding passes after this long, whatever else is unmet.
MAX_MEASURE_S = 120.0
#: Work files (job stores, caches) and span dumps, inside the checkout.
WORK_DIR = ".perfbench"


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time set-up only and print the seconds")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {where}, "
                         f"not from {SRC}")


def setup(workload: Workload, seed: int) -> Tuple[Dict[str, Any], float]:
    """Import the program, make the inputs and work dirs; time all of it
    (in seconds at the reference host speed)."""
    import_program()
    workdir = os.path.join(os.getcwd(), WORK_DIR,
                           f"{workload.name}-{os.getpid()}")
    ctx = workload.prepare(seed, workdir)
    took = time.perf_counter() - _T0
    return ctx, took * hostspeed.scale(_SPEED0, hostspeed.probe())


def setup_samples(args: argparse.Namespace, own: float) -> List[float]:
    """This process's set-up time plus that of fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` with n=100)."""
    return statistics.quantiles(values, n=100)[q - 1]


# ------------------------------------------------------------------ measure
def measure(workload: Workload, ctx: Dict[str, Any],
            seconds: int) -> List[Pass]:
    """Whole passes until another one would overrun ``seconds``.

    At least two passes (the second repeats the first, for the digest
    check) and at least :data:`MIN_SAMPLES` timed points.
    """
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(ctx, len(passes)))
        elapsed = time.perf_counter() - start
        samples = sum(len(p.point_s) for p in passes)
        if len(passes) < 2:
            continue
        if elapsed >= MAX_MEASURE_S or (
                samples >= MIN_SAMPLES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    return passes


def _typical_pass_s(passes: List[Pass], attr: str) -> float:
    """One pass with every point at its median over ``passes``: robust to
    a host slowdown that hits a minority of the passes."""
    return sum(statistics.median(times)
               for times in zip(*(getattr(p, attr) for p in passes)))


def end_to_end(passes: List[Pass], setup: List[float]
               ) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric as ``{name: (value, note)}``."""
    timed = [p for p in passes if p.point_s]
    samples = [s for p in timed for s in p.point_s]
    n = passes[0].points
    typical = _typical_pass_s(timed, "point_s")
    if passes[0].warm_points:  # campaign: cold job, then resubmission
        # A job keeps every core busy for about a second; the two
        # probes around it track its host speed worse than the job itself
        # varies, so every job is scaled by the run's median probe.
        k = hostspeed.REFERENCE_S / statistics.median(
            x for p in passes for x in p.job_probes)
        pps = statistics.median(p.points_per_s for p in passes) / k
        pps_note = f"cold job, median of {len(passes)} cycles"
        warm = statistics.median(p.warm_points / p.warm_wall_s
                                 for p in passes) / k
        warm_note = "resubmitted grid, same cache"
        cpu = statistics.median(p.cpu_s / p.points for p in passes) * k
        cpu_note = "cold jobs incl. their reaped workers, median of cycles"
    else:
        pps = n / typical
        pps_note = f"per-point medians over {len(passes)} passes"
        warm = n / _typical_pass_s(passes[1:], "point_s")
        # No distinct warm path here, but every run reports every metric.
        warm_note = "passes after the first; no warm path on this workload"
        cpu = _typical_pass_s(passes, "point_cpu_s") / n
        cpu_note = "per-point medians"
    beyond = sum(s > quantile(samples, 90) for s in samples)
    return {
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} set-ups"),
        "points_per_s": (pps, pps_note),
        "warm_points_per_s": (warm, warm_note),
        "point_s.p50": (quantile(samples, 50), f"{len(samples)} samples"),
        "point_s.p90": (quantile(samples, 90),
                        f"{len(samples)} samples, {beyond} beyond"),
        "events_per_s": (timed[0].counters["sim_events"] / typical,
                         "execute + its gc, per-point medians"),
        "cpu_s_per_point": (cpu, cpu_note),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "this process"),
    }


def traced(workload: Workload, ctx: Dict[str, Any], out_path: str
           ) -> Tuple[List[Pass], Dict[str, Tuple[float, str]]]:
    """One untraced pass, then one traced pass of the same points."""
    plain = workload.run_pass(ctx, 0)
    rec = SpanRecorder()
    layers.install(rec)
    try:
        with_spans = workload.run_pass(ctx, 1, rec)
    finally:
        rec.restore()
    # Direct ``execute`` time only: on campaign the jobs' points run in
    # forked workers, which record nothing.
    ratio = sum(plain.point_s) / sum(with_spans.point_s)
    spans = rec.spans()
    metrics = layers.layer_metrics(spans, with_spans.counters,
                                   plain.service, ratio)
    rec.write(out_path)
    print(f"# traced pass: {with_spans.points} points, {len(spans)} "
          f"spans written to {out_path}")
    return [plain, with_spans], metrics


# ------------------------------------------------------------------- report
def report(args: argparse.Namespace, passes: List[Pass],
           metrics: Dict[str, Tuple[float, str]],
           units: Dict[str, str]) -> None:
    digests = [digest(p.records) for p in passes]
    same = len(set(digests)) == 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    kind = "traced vs untraced" if args.trace else "repeats"
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"closed loop, 1 client  passes {len(passes)}")
    for name, (value, note) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]:6s} {note}")
    probes = [x for p in passes for x in p.probes + p.job_probes]
    scaled = "unscaled" if passes[0].warm_points else "scaled"
    print(f"per-pass points/s ({scaled}): " + " ".join(
        f"{p.points_per_s:.4g}" for p in passes))
    print(f"host speed: calibration loop median "
          f"{statistics.median(probes) * 1e3:.3f} ms, reference "
          f"{hostspeed.REFERENCE_S * 1e3:.3f} ms; execute calls took "
          f"{sum(p.raw_s for p in passes):.3f} s unscaled")
    print(f"{'failed_ratio':32s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed}/{attempted} points")
    print(f"record digest {digests[0][:16]}  "
          f"{'identical' if same else 'DIFFERS'} across {kind}")
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _note) in metrics.items()},
    }))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    ctx, own_setup = setup(workload, args.seed)
    try:
        if args.setup_probe:
            print(own_setup)
            return 0
        if args.trace:
            out = os.path.join(WORK_DIR, "trace",
                               f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
            passes, metrics = traced(workload, ctx, out)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            samples = setup_samples(args, own_setup)
            passes = measure(workload, ctx, args.seconds)
            metrics = end_to_end(passes, samples)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(ctx["workdir"], ignore_errors=True)
    report(args, passes, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
