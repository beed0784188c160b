"""The scale-out study end to end through the service layer.

Acceptance coverage for PR 7: a 64-node fat-tree Allreduce sweep completes
as one service-layer job with GPU-TN vs GDS/HDN latencies reported, every
point verified against the NumPy schedule oracle, and the campaign caches
and journals like the validate/faults campaigns do.
"""

import pytest

from repro.apps.topo_scale import (TOPO_SCHEDULES, TOPO_STRATEGIES,
                                   TOPO_TOPOLOGIES, run_topo_campaign)
from repro.runtime import ResultCache


class TestTopoCampaign:
    @pytest.fixture(scope="class")
    def small_grid(self):
        return run_topo_campaign(
            topologies=("star", "fat-tree"),
            schedules=("halving-doubling", "alltoall"),
            strategies=("gputn", "gds", "hdn"),
            node_counts=(16,), nbytes=16 * 1024)

    def test_all_points_verified(self, small_grid):
        assert small_grid.total == 2 * 2 * 3
        assert small_grid.ok and not small_grid.failures

    def test_by_case_groups_strategies(self, small_grid):
        cases = small_grid.by_case()
        assert set(cases) == {(t, s, 16) for t in ("star", "fat-tree")
                              for s in ("halving-doubling", "alltoall")}
        for times in cases.values():
            assert set(times) == {"gputn", "gds", "hdn"}
            assert all(t > 0 for t in times.values())

    def test_speedups_cover_host_driven_strategies(self, small_grid):
        for sp in small_grid.speedups().values():
            assert set(sp) == {"gds", "hdn"}

    def test_report_dict_is_json_shaped(self, small_grid):
        import json

        doc = small_grid.to_dict()
        assert doc["total"] == small_grid.total and doc["ok"]
        json.dumps(doc)  # serializable

    def test_defaults_are_sane(self):
        assert set(TOPO_STRATEGIES) == {"gputn", "gds", "hdn"}
        assert "halving-doubling" in TOPO_SCHEDULES
        assert "fat-tree" in TOPO_TOPOLOGIES


class TestSixtyFourNodeAcceptance:
    def test_fat_tree_allreduce_sweep_reports_gputn_comparison(self):
        """The headline acceptance run: 64 nodes, fat-tree, Allreduce,
        all three GPU-driven backends, through the service layer."""
        report = run_topo_campaign(
            topologies=("fat-tree",), schedules=("halving-doubling",),
            strategies=("gputn", "gds", "hdn"), node_counts=(64,),
            nbytes=16 * 1024)
        assert report.ok and report.total == 3
        times = report.by_case()[("fat-tree", "halving-doubling", 64)]
        speedup = report.speedups()[("fat-tree", "halving-doubling", 64)]
        # GPU-TN's fire-from-kernel path beats both host-driven modes at
        # this scale (the paper's claim, extrapolated past its 8 nodes).
        assert times["gputn"] < times["gds"] < times["hdn"]
        assert speedup["hdn"] > speedup["gds"] > 1.0


class TestCampaignCaching:
    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        kwargs = dict(topologies=("star",), schedules=("alltoall",),
                      strategies=("gputn",), node_counts=(8,),
                      nbytes=8 * 1024)
        first = run_topo_campaign(cache=cache, **kwargs)
        second = run_topo_campaign(cache=cache, **kwargs)
        assert first.ok and second.ok
        assert second.cache_stats["hits"] == second.total
        assert [r.metrics for r in first.records] == \
               [r.metrics for r in second.records]

    @pytest.mark.parametrize("topology", ["fat-tree", "dragonfly"])
    def test_resubmit_hits_cache_off_star(self, tmp_path, topology):
        """configure() rewrites the config off-star; the cache probe keys
        on that configured config, so a resubmission (fresh store, same
        cache root) is served entirely from the cache."""
        kwargs = dict(topologies=(topology,), schedules=("alltoall",),
                      strategies=("gputn", "gds"), node_counts=(8,),
                      nbytes=8 * 1024)
        runs = [run_topo_campaign(cache=ResultCache(str(tmp_path / "cache")),
                                  store=str(tmp_path / f"store{i}"), **kwargs)
                for i in range(2)]
        first, second = runs
        assert first.ok and first.cache_stats["hits"] == 0
        assert second.cache_stats["hits"] == second.total == 2
        assert [r.to_json() for r in first.records] == \
               [r.to_json() for r in second.records]
