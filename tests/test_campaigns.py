"""The one campaign driver behind the four studies, and the table-driven
CLI that submits and resumes them."""

import pytest

from repro.__main__ import main
from repro.apps.congestion import (CongestionExperiment, CongestionReport,
                                   run_congestion_campaign)
from repro.apps.topo_scale import TopoScaleReport, run_topo_campaign
from repro.collectives.engine import CollectiveExperiment
from repro.faults import FaultsExperiment, FaultsReport, run_faults_campaign
from repro.service import JobStore
from repro.validate.fuzz import FuzzReport, ValidateExperiment, run_campaign

#: study -> (campaign function, experiment class, report class,
#: tiny three-point grid, the same grid with an empty axis).
STUDIES = {
    "validate": (run_campaign, ValidateExperiment, FuzzReport,
                 dict(workloads=("microbench",), seeds=3),
                 dict(workloads=())),
    "faults": (run_faults_campaign, FaultsExperiment, FaultsReport,
               dict(workloads=("microbench",), seeds=3),
               dict(workloads=())),
    "topo": (run_topo_campaign, CollectiveExperiment, TopoScaleReport,
             dict(topologies=("star",), schedules=("ring",),
                  strategies=("gputn", "gds", "hdn"), node_counts=(2,),
                  nbytes=4096),
             dict(topologies=())),
    "congestion": (run_congestion_campaign, CongestionExperiment,
                   CongestionReport,
                   dict(loads=(0.2,), disciplines=("drop-tail",),
                        transports=("go-back-n",),
                        strategies=("hdn", "gds", "gputn"), messages=2,
                        bg_horizon_ns=10_000),
                   dict(loads=())),
}

#: study -> ``jobs submit`` arguments of a small grid.
CLI_GRIDS = {
    "validate": ["--seeds", "2", "--workloads", "microbench"],
    "faults": ["--seeds", "2", "--workloads", "microbench"],
    "topo": ["--topologies", "star", "--nodes", "2", "--schedules", "ring",
             "--strategies", "gputn", "gds", "--nbytes", "4096"],
    "congestion": ["--loads", "0.2", "--disciplines", "drop-tail",
                   "--transports", "go-back-n", "--strategies", "gputn",
                   "--messages", "2", "--bg-horizon-ns", "10000"],
}


def _fail_every_point(monkeypatch, experiment, report):
    """Make every point of ``experiment`` fail its report's ok key (only
    points run in this process see it: use ``jobs=1``)."""
    finish = experiment.finish

    def failing(self, *args):
        metrics, extra = finish(self, *args)
        return {**metrics, report.ok_key: False}, extra

    monkeypatch.setattr(experiment, "finish", failing)


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_uncached_campaign_is_clean_without_cache_stats(study):
    run, _, report_cls, grid, _ = STUDIES[study]
    report = run(**grid, jobs=1)
    assert type(report) is report_cls
    assert report.ok and report.total == 3 and not report.failures
    assert report.cache_stats is None


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_fail_fast_stops_dispatch_early(study, monkeypatch):
    run, experiment, report_cls, grid, _ = STUDIES[study]
    _fail_every_point(monkeypatch, experiment, report_cls)
    full = run(**grid, jobs=1)
    assert full.total == 3 and len(full.failures) == 3 and not full.ok
    stopped = run(**grid, jobs=1, fail_fast=True)
    assert stopped.total == 1 and not stopped.ok


#: study -> a grid of at least eight points, for dispatched fail-fast.
WIDE_GRIDS = {
    "validate": dict(workloads=("microbench",), seeds=8),
    "faults": dict(workloads=("microbench",), seeds=8),
    "topo": dict(topologies=("star",), schedules=("ring",),
                 strategies=("gputn", "gds", "hdn"), node_counts=(2, 3, 4),
                 nbytes=4096),
    "congestion": dict(loads=(0.2, 0.4, 0.6), disciplines=("drop-tail",),
                       transports=("go-back-n",),
                       strategies=("hdn", "gds", "gputn"), messages=2,
                       bg_horizon_ns=10_000),
}


@pytest.mark.parametrize("study", sorted(WIDE_GRIDS))
def test_fail_fast_stops_dispatch_early_with_workers(study, monkeypatch):
    """Two forked workers (they inherit the patch) hold up to two points
    each; fail-fast still stops within one window of the first failure."""
    run, experiment, report_cls, _, _ = STUDIES[study]
    _fail_every_point(monkeypatch, experiment, report_cls)
    full = run(**WIDE_GRIDS[study], jobs=1)
    assert full.total >= 8 and len(full.failures) == full.total
    window = 4  # the default max(4, 2 * jobs): both slots of two workers
    stopped = run(**WIDE_GRIDS[study], jobs=2, fail_fast=True)
    assert 1 <= stopped.total <= 1 + window and not stopped.ok
    assert stopped.total < full.total


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_empty_point_list_rejected(study):
    run, _, _, _, empty = STUDIES[study]
    with pytest.raises(ValueError, match="empty campaign"):
        run(**empty)


@pytest.mark.parametrize("failing", [False, True], ids=["clean", "failing"])
@pytest.mark.parametrize("study", sorted(CLI_GRIDS))
def test_resume_reproduces_the_submitted_report(study, failing, tmp_path,
                                                monkeypatch, capsys):
    """``jobs resume`` renders the study's own table and writes the same
    JSON report, with the same exit code, as the submission did."""
    if failing:
        _, experiment, report_cls, _, _ = STUDIES[study]
        _fail_every_point(monkeypatch, experiment, report_cls)
    store = str(tmp_path / "store")
    submitted = main(["jobs", "submit", study, "--store", store, "--jobs", "1",
                      *CLI_GRIDS[study], "--json", str(tmp_path / "a.json")])
    submit_out = capsys.readouterr().out
    (job_id,) = JobStore(store).jobs()
    resumed = main(["jobs", "resume", job_id, "--store", store,
                    "--json", str(tmp_path / "b.json")])
    resume_out = capsys.readouterr().out
    assert submitted == resumed == (1 if failing else 0)
    assert ((tmp_path / "a.json").read_bytes()
            == (tmp_path / "b.json").read_bytes())
    assert resume_out.splitlines()[-1] == submit_out.splitlines()[-1]
    assert "[journal]" in resume_out and "done [journal]" not in resume_out


@pytest.mark.parametrize("argv", [
    ["jobs", "submit", "faults", "--degraded"],
    ["faults", "--degraded", "--cache-dir", "cache"],
    ["faults", "--degraded", "--json", "out.json"],
    ["faults", "--degraded", "--listen", "0"],
], ids=["submit", "cache-dir", "json", "listen"])
def test_degraded_rejects_campaign_job_flags(argv, tmp_path, monkeypatch,
                                             capsys):
    import repro.apps.degraded as degraded_mod

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(degraded_mod, "degraded_report",
                        lambda **kw: pytest.fail("degraded study ran"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--degraded" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no store, cache or report


def test_degraded_alone_runs_the_study(monkeypatch):
    import repro.apps.degraded as degraded_mod

    calls = []
    monkeypatch.setattr(degraded_mod, "degraded_report",
                        lambda **kw: calls.append(kw))
    assert main(["faults", "--degraded", "--jobs", "2"]) == 0
    assert calls == [{"jobs": 2}]
