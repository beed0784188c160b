"""Schedule fuzzer: determinism, replayability, campaign plumbing, CLI."""

import json

import pytest

import repro.validate.fuzz as fuzz_mod
from repro.__main__ import main as repro_main
from repro.validate import (
    FUZZ_WORKLOADS,
    ValidateExperiment,
    apply_knobs,
    fuzz_case,
    run_campaign,
)
from repro.config import default_config
from repro.runtime import ResultCache


class TestFuzzCase:
    def test_seed_maps_deterministically(self):
        for workload in FUZZ_WORKLOADS:
            assert fuzz_case(workload, 13) == fuzz_case(workload, 13)

    def test_different_seeds_differ(self):
        cases = {fuzz_case("microbench", s).tiebreak_seed for s in range(20)}
        assert len(cases) == 20

    def test_workloads_draw_independent_streams(self):
        assert (fuzz_case("microbench", 4).knobs
                != fuzz_case("jacobi", 4).knobs)

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            fuzz_case("nope", 0)

    def test_knobs_overlay_config(self):
        case = fuzz_case("allreduce", 2)
        cfg = apply_knobs(default_config(), case.knobs)
        assert cfg.nic.doorbell_mmio_ns == case.knobs["doorbell_mmio_ns"]
        assert cfg.network.link_latency_ns == case.knobs["link_latency_ns"]
        assert cfg.kernel.launch_ns == case.knobs["launch_ns"]


class TestValidateExperiment:
    def test_single_case_runs_clean_and_lean(self):
        record = ValidateExperiment().run(
            params={"workload": "jacobi", "seed": 21})
        assert record.metrics["ok"] is True
        assert record.metrics["violation"] is None
        assert record.spans == ()  # campaign records drop the span table

    def test_replay_from_seed_alone_is_identical(self):
        """A failure report's (workload, seed) pair is the whole replay
        recipe: two independent executions agree on every metric."""
        params = {"workload": "allreduce", "seed": 17}
        a = ValidateExperiment().run(params=params)
        b = ValidateExperiment().run(params=params)
        assert a.metrics == b.metrics
        assert a.config_fingerprint == b.config_fingerprint


class TestCampaign:
    def test_small_campaign_all_clean(self):
        report = run_campaign(seeds=3, jobs=1)
        assert report.total == 3 * len(FUZZ_WORKLOADS)
        assert report.ok and not report.failures
        assert set(report.by_workload()) == set(FUZZ_WORKLOADS)

    def test_parallel_equals_serial(self):
        serial = run_campaign(workloads=("microbench",), seeds=6, jobs=1)
        parallel = run_campaign(workloads=("microbench",), seeds=6, jobs=3)
        assert ([r.metrics for r in serial.records]
                == [r.metrics for r in parallel.records])

    def test_seed_start_offsets_the_range(self):
        report = run_campaign(workloads=("microbench",), seeds=2,
                              seed_start=40, jobs=1)
        assert [r.metrics["seed"] for r in report.records] == [40, 41]

    def test_report_to_dict_is_json_safe(self):
        report = run_campaign(workloads=("microbench",), seeds=2, jobs=1)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is True and doc["total"] == 2
        assert doc["by_workload"]["microbench"] == {"passed": 2, "total": 2}
        assert all("knobs" in case for case in doc["cases"])

    def test_resubmit_hits_cache(self, tmp_path):
        """Each case's knobs are applied in configure(); a resubmission
        (fresh store, same cache root) still runs none of them."""
        runs = [run_campaign(workloads=("microbench",), seeds=3,
                             cache=ResultCache(str(tmp_path / "cache")),
                             store=str(tmp_path / f"store{i}"))
                for i in range(2)]
        first, second = runs
        assert first.cache_stats["hits"] == 0
        assert second.cache_stats["hits"] == second.total == 3
        assert [r.to_json() for r in first.records] == \
               [r.to_json() for r in second.records]

    def test_rejects_bad_seed_count(self):
        with pytest.raises(ValueError):
            run_campaign(seeds=0)


class TestValidateCli:
    def test_clean_campaign_exits_zero_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = repro_main(["validate", "--seeds", "2", "--workloads",
                         "microbench", "--json", str(out)])
        assert rc == 0
        assert "2/2 cases clean" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["ok"] is True and doc["total"] == 2

    def test_failures_exit_nonzero_with_replay_line(self, monkeypatch, capsys):
        monkeypatch.setattr(fuzz_mod, "_app_ok", lambda metrics: False)
        rc = repro_main(["validate", "--seeds", "1", "--workloads",
                         "microbench", "--jobs", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL microbench seed=0" in out
        assert "replay: python -m repro validate" in out

    def test_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            repro_main(["validate", "--seeds", "0"])
        with pytest.raises(SystemExit):
            repro_main(["validate", "--workloads", "nope"])
