"""The congestion study (repro.apps.congestion, ``repro congestion``).

Experiment-level coverage of the ISSUE-8 acceptance grid: single points
pass both correctness monitors at zero and positive load, the campaign
aggregates by case, axis spellings map onto configs, and the CLI rejects
bad topology specs with exit code 2 (satellite: no opaque tracebacks).
"""

import pytest

from repro.apps.congestion import (CongestionExperiment, _queue_config,
                                   _reliability_config,
                                   run_congestion_campaign)
from repro.runtime import ResultCache

FAST = {"messages": 4, "bg_horizon_ns": 20_000}


def run_point(**overrides):
    params = dict(FAST, **overrides)
    return CongestionExperiment().execute(params).record


class TestAxisMapping:
    def test_disciplines_map_to_queue_configs(self):
        assert _queue_config("none") is None
        assert _queue_config("drop-tail").discipline == "drop-tail"
        red = _queue_config("red")
        assert red.discipline == "red" and not red.ecn
        assert _queue_config("red-ecn").ecn
        with pytest.raises(ValueError, match="discipline"):
            _queue_config("codel")

    def test_transports_map_to_reliability_configs(self):
        assert _reliability_config("go-back-n").mode == "go-back-n"
        sr = _reliability_config("selective-repeat")
        assert sr.mode == "selective-repeat" and sr.pacing
        with pytest.raises(ValueError, match="transport"):
            _reliability_config("quic")


class TestSinglePoint:
    def test_zero_load_point_is_clean(self):
        record = run_point(load=0.0, strategy="gputn")
        m = record.metrics
        assert m["ok"] and not m["violations"] and not m["gave_up"]
        assert m["delivered"] == 4
        assert m["p50_latency_ns"] > 0 and m["p99_latency_ns"] > 0
        assert m["background"] is None  # load=0 arms no traffic
        assert m["queue"]["enqueued"] > 0  # foreground transits the tree

    def test_loaded_point_sees_background_and_stays_clean(self):
        record = run_point(load=0.5, strategy="gputn",
                           discipline="red-ecn",
                           transport="selective-repeat")
        m = record.metrics
        assert m["ok"], m["violations"]
        assert m["background"]["delivered"] > 0
        assert m["queue"]["max_depth_bytes"] > 0

    def test_monitor_violation_fails_point_not_sweep(self):
        # Sanity: ok flips on under-delivery, not only on violations.
        record = run_point(load=0.0, messages=4)
        assert record.metrics["requested"] == 4
        assert record.metrics["ok"] == (record.metrics["delivered"] == 4)

    @pytest.mark.parametrize("strategy", ["hdn", "gds", "gputn"])
    def test_all_strategies_complete(self, strategy):
        assert run_point(load=0.2, strategy=strategy).metrics["ok"]

    def test_points_are_deterministic(self):
        a = run_point(load=0.5, transport="selective-repeat")
        b = run_point(load=0.5, transport="selective-repeat")
        assert a.metrics == b.metrics


class TestCampaign:
    def test_small_grid_aggregates_by_case(self):
        report = run_congestion_campaign(
            loads=[0.5], disciplines=["drop-tail"],
            transports=["selective-repeat"], strategies=["gds", "gputn"],
            messages=4, bg_horizon_ns=20_000)
        assert report.ok and report.total == 2
        cases = report.by_case()
        assert list(cases) == [(0.5, "drop-tail", "selective-repeat")]
        per_strategy = cases[0.5, "drop-tail", "selective-repeat"]
        assert set(per_strategy) == {"gds", "gputn"}
        doc = report.to_dict()
        assert doc["ok"] and doc["total"] == 2
        assert doc["cases"][0]["strategies"]["gputn"]["delivered"] == 4

    def test_resubmit_hits_cache(self, tmp_path):
        """Every point sits on a fat tree configure() wrote in, yet a
        resubmission (fresh store, same cache root) runs none of them."""
        runs = [run_congestion_campaign(
                    loads=[0.5], disciplines=["drop-tail"],
                    transports=["selective-repeat"],
                    strategies=["gds", "gputn"],
                    cache=ResultCache(str(tmp_path / "cache")),
                    store=str(tmp_path / f"store{i}"), **FAST)
                for i in range(2)]
        first, second = runs
        assert first.cache_stats["hits"] == 0
        assert second.cache_stats["hits"] == second.total == 2
        assert [r.to_json() for r in first.records] == \
               [r.to_json() for r in second.records]


class TestCli:
    def test_bad_topology_spec_exits_2_with_grammar(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["congestion", "--topology", "fat-tree:k=abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not an integer" in err and "fat-tree[:k=K]" in err

    def test_unknown_topology_exits_2_with_grammar(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["congestion", "--topology", "hypercube"])
        assert exc.value.code == 2
        assert "dragonfly[:a=A,g=G,p=P]" in capsys.readouterr().err

    def test_topology_node_mismatch_exits_2(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["congestion", "--topology", "torus:5x5", "--nodes", "16"])
        assert exc.value.code == 2

    def test_single_point_cli_runs_clean(self, capsys):
        from repro.__main__ import main

        rc = main(["congestion", "--loads", "0.2", "--disciplines",
                   "drop-tail", "--transports", "go-back-n", "--strategies",
                   "gputn", "--messages", "2", "--bg-horizon-ns", "10000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/1 points clean" in out
