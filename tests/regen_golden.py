#!/usr/bin/env python
"""Regenerate the golden RunRecord fixtures under ``tests/golden/``.

One command::

    PYTHONPATH=src python tests/regen_golden.py

The fixtures pin the paper's headline exhibits as canonical records --
Figure 8's latency decomposition (GPU-TN ~2.71 us vs GDS ~3.76 us vs HDN
~4.21 us target completion), a Figure 9 Jacobi point and Figure 10's
8-node / 8 MiB Allreduce -- so any code change that shifts a simulated
metric fails ``tests/test_golden_records.py`` with a field-level diff.

``allreduce-grid.jsonl`` pins whole ring Allreduce RunRecords over a grid
of node counts x payloads x strategies (:data:`RING_GRID`), one canonical
record per line; ``tests/test_ring_alias.py`` replays it byte for byte.

Only regenerate after verifying the new numbers are *intended* (e.g. a
deliberate timing-model change), and say why in the commit message.

Span tables are stripped: fixtures pin metrics, not trace layout.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: fixture name -> (experiment factory, params overlay)
GOLDEN_POINTS = {
    "microbench-gputn": ("microbench", {"strategy": "gputn"}),
    "microbench-gds": ("microbench", {"strategy": "gds"}),
    "microbench-hdn": ("microbench", {"strategy": "hdn"}),
    "jacobi-gputn": ("jacobi", {"strategy": "gputn"}),
    "allreduce-gputn": ("allreduce", {"strategy": "gputn", "n_nodes": 8}),
    "allreduce-cpu": ("allreduce", {"strategy": "cpu", "n_nodes": 8}),
    "allreduce-hdn": ("allreduce", {"strategy": "hdn", "n_nodes": 8}),
    "allreduce-gds": ("allreduce", {"strategy": "gds", "n_nodes": 8}),
}

#: Ring Allreduce grid: a ragged payload (100 000 B pads per node count
#: and slices unevenly), payloads smaller than four slices per chunk, and
#: every backend.
RING_GRID = [
    {"strategy": strategy, "n_nodes": n_nodes, "nbytes": nbytes}
    for strategy in ("cpu", "hdn", "gds", "gputn")
    for n_nodes in (2, 3, 4, 8, 16)
    for nbytes in (64, 4096, 100_000, 1 << 20)
]
RING_GRID_FILE = GOLDEN_DIR / "allreduce-grid.jsonl"


def _experiment(kind: str):
    if kind == "microbench":
        from repro.apps.microbench import MicrobenchExperiment
        return MicrobenchExperiment()
    if kind == "jacobi":
        from repro.apps.jacobi import JacobiExperiment
        return JacobiExperiment()
    from repro.collectives import AllreduceExperiment
    return AllreduceExperiment()


def regenerate(only=None) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (kind, params) in GOLDEN_POINTS.items():
        if only and name not in only:
            continue
        record = _experiment(kind).run(params=params)
        record.spans = ()
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(record.to_json() + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")
    if not only or RING_GRID_FILE.stem in only:
        experiment = _experiment("allreduce")
        lines = [experiment.run(params=point).to_json() for point in RING_GRID]
        RING_GRID_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {RING_GRID_FILE.relative_to(GOLDEN_DIR.parent.parent)}")


if __name__ == "__main__":
    regenerate(only=set(sys.argv[1:]) or None)
