"""The benchmark harness in ``perfbench/`` still fits the program.

``perfbench/trial.py`` drives the program through its public entry
points (configs, ``MeasurementStudy``, ``CampaignStore``) and times a few
attributes from outside.  A change that renames or removes any of them
breaks the benchmark; these tests make it break tier-1 first.  They
build every config the trials build, without running a workload.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    """``(run, trial, probe)``, imported as the benchmark imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        run = _load("perfbench_run", "run.py")
        trial = _load("perfbench_trial", "trial.py")
        probe = sys.modules["probe"]
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, trial, probe


SEED = 7


def test_every_declared_workload_has_a_config_and_a_timed_trial(harness):
    run, trial, _ = harness
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = [workload["name"] for workload in spec["workloads"]]
    assert sorted(run.WORKLOADS) == sorted(declared)
    for workload in declared:
        assert (workload, "timed") in trial.MODES
        assert (workload, "traced") in trial.MODES


@pytest.mark.parametrize("workload", ["study", "serve_mixed", "campaign"])
def test_world_config_builds(harness, workload):
    run, trial, _ = harness
    cfg = run.WORKLOADS[workload]
    world = trial._world_config(cfg, SEED)
    assert (world.n_users, world.seed, world.engine) == (
        cfg["n_users"],
        SEED,
        cfg["engine"],
    )


@pytest.mark.parametrize("workload", ["study", "campaign"])
def test_study_config_builds(harness, workload):
    run, trial, _ = harness
    cfg = run.WORKLOADS[workload]
    study = trial._study_config(cfg, SEED)
    assert study.crawl_fraction == cfg["crawl_fraction"]
    assert study.path_workers == cfg["path_workers"]
    assert study.world_config() == trial._world_config(cfg, SEED)


def test_campaign_store_has_what_the_traced_trial_reads(harness, tmp_path):
    run, trial, probe = harness
    cfg = run.WORKLOADS["campaign"]
    ccfg = trial._campaign_config(cfg, SEED)
    assert ccfg.max_pages == trial._page_budget(cfg)
    trial.CrawlCampaign(tmp_path, ccfg)
    store = trial.CampaignStore(tmp_path, ccfg)
    assert store.segments.sealed_names() == []
    flushes = probe.count_calls(store.journal, "flush")
    store.journal.flush()
    assert flushes == [1]
    # TimedHooks forwards each of its hooks to the store by name.
    hooks = [name for name in vars(probe.TimedHooks) if not name.startswith("_")]
    assert hooks
    for name in hooks:
        assert callable(getattr(store, name)), name
