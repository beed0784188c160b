"""Figure 10's ring Allreduce, pinned against its frozen records.

``tests/golden/allreduce-grid.jsonl`` holds whole RunRecords of
:class:`~repro.collectives.AllreduceExperiment` over node counts x
payloads x strategies (``regen_golden.RING_GRID``).  Every record must
come back byte for byte (the code version aside, as in the golden
fixtures).  The hand-written ring oracle, :func:`allreduce_reference`,
stays as an independent cross-check of the generic schedule interpreter.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (AllreduceExperiment, ring_allreduce_schedule,
                               schedule_reference)
from repro.collectives.ring import allreduce_reference

from regen_golden import RING_GRID, RING_GRID_FILE


def _frozen():
    lines = RING_GRID_FILE.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(RING_GRID), (
        "allreduce-grid.jsonl out of sync with regen_golden.RING_GRID")
    return lines


def _point_id(point):
    return f"{point['strategy']}-n{point['n_nodes']}-{point['nbytes']}B"


@pytest.mark.parametrize("index", range(len(RING_GRID)),
                         ids=[_point_id(p) for p in RING_GRID])
def test_grid_record_reproduced(index):
    frozen = json.loads(_frozen()[index])
    fresh = json.loads(AllreduceExperiment().run(RING_GRID[index]).to_json())
    frozen.pop("code_version")
    fresh.pop("code_version")
    assert json.dumps(fresh, sort_keys=True) == \
        json.dumps(frozen, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(n_ranks=st.integers(min_value=2, max_value=12),
       chunk_elems=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_schedule_oracle_matches_ring_oracle(n_ranks, chunk_elems, seed):
    """The generic interpreter on ring schedules replays the ring's exact
    association order: equal bit for bit on every rank."""
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(n_ranks * chunk_elems).astype(np.float32)
               for _ in range(n_ranks)]
    schedules = [ring_allreduce_schedule(r, n_ranks) for r in range(n_ranks)]
    expected = allreduce_reference(vectors, n_ranks).view(np.uint32)
    for out in schedule_reference(schedules, vectors):
        assert np.array_equal(out.view(np.uint32), expected)
