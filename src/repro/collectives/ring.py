"""Figure 10's ring Allreduce: the ring schedule on the collective executor.

:class:`AllreduceExperiment` is an alias for
:class:`~repro.collectives.engine.CollectiveExperiment` on the ring
schedule, with the GPU-TN kernel pipelining 4 slices per chunk (paper
Section 5.4.1).  :func:`allreduce_reference` is the hand-written ring
oracle, an independent cross-check of the generic schedule interpreter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster import Cluster
from repro.collectives.engine import CollectiveExperiment, CollectiveResult
from repro.config import SystemConfig
from repro.runtime import Experiment

__all__ = [
    "AllreduceExperiment",
    "allreduce_reference",
    "run_ring_allreduce",
]


def allreduce_reference(vectors: List[np.ndarray], n_ranks: int) -> np.ndarray:
    """Bitwise reference: replay the ring reduce order in NumPy.

    Chunk ``c`` accumulates contributions in ring order starting from rank
    ``(c + 1) mod P``, which is what every executor reproduces.
    """
    n = vectors[0].size
    chunk = n // n_ranks
    out = np.empty(n, dtype=np.float32)
    for c in range(n_ranks):
        sl = slice(c * chunk, (c + 1) * chunk)
        # Rank c sends v_c; rank c+1 computes v_{c+1} + v_c; rank c+k
        # computes v_{c+k} + acc.  Replaying the exact association order
        # makes the check bitwise, not approximate.
        acc = vectors[(c + 1) % n_ranks][sl] + vectors[c][sl]
        for k in range(2, n_ranks):
            acc = vectors[(c + k) % n_ranks][sl] + acc
        out[sl] = acc
    return out


class AllreduceExperiment(Experiment):
    """One ring Allreduce as a runtime experiment (Figure 10's unit).

    Parameters: ``strategy``, ``n_nodes``, ``nbytes`` (padded up to a
    whole number of float32 chunks, as an MPI implementation would do
    internally for ragged divisions) and the data ``seed``; the hooks add
    ``schedule`` and ``topology`` themselves.  Records keep exactly these
    parameters and Figure 10's metrics (no ``n_rounds``).
    """

    name = "ring-allreduce"
    defaults = {"strategy": "gputn", "n_nodes": 4,
                "nbytes": 8 * 1024 * 1024, "seed": 11}

    def __init__(self) -> None:
        self._collective = CollectiveExperiment(slices=4)

    @staticmethod
    def _ring(params: Dict[str, Any], config: SystemConfig) -> Dict[str, Any]:
        return dict(params, schedule="ring",
                    topology=config.network.topology)

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        return self._collective.build_cluster(self._ring(params, config),
                                              config, trace)

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        return self._collective.setup(cluster,
                                      self._ring(params, cluster.config))

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        metrics, result = self._collective.finish(
            cluster, ctx, self._ring(params, cluster.config))
        del metrics["n_rounds"]
        return metrics, result


def run_ring_allreduce(config: Optional[SystemConfig] = None,
                       strategy: str = "gputn", n_nodes: int = 4,
                       nbytes: int = 8 * 1024 * 1024,
                       seed: int = 11) -> CollectiveResult:
    """Run one 8 MB-class ring Allreduce and verify the result."""
    return AllreduceExperiment().execute(
        {"strategy": strategy, "n_nodes": n_nodes, "nbytes": nbytes,
         "seed": seed},
        config=config,
    ).raw
