"""One trial of one perfbench workload, run in a fresh interpreter.

Usage (``run.py`` does this; ``src/`` must be on ``PYTHONPATH``)::

    python3 perfbench/trial.py MODE WORKLOAD SEED CONFIG_JSON WORK_DIR

MODE is one of

* ``setup``  - build the world only (one ``setup_s`` sample);
* ``timed``  - set up, then run the workload through the program's own
  entry points with nothing but wall clocks around them;
* ``traced`` - the same work, with each layer inside a
  :class:`probe.Probe` span or behind a timing proxy;
* ``check``  - (``campaign`` only) crawl the same world in memory and
  diff it against the archive the ``timed`` trial left in WORK_DIR.

The last line of standard output is one JSON object: the trial's
measurements, digests of its outputs, and the failures it saw.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from probe import Probe, TimedFrontend, TimedHooks, count_calls

from repro.core import pipeline
from repro.core.pipeline import MeasurementStudy, StudyConfig, StudyResults
from repro.crawler.bfs import BidirectionalBFSCrawler
from repro.crawler.dataset import CrawlDataset
from repro.experiments.registry import EXPERIMENTS
from repro.serve import EventClock, build_traffic, op_of
from repro.store.campaign import (
    ARCHIVE_DIR,
    JOURNAL_NAME,
    CampaignConfig,
    CampaignStore,
    CrawlCampaign,
    dataset_diff,
)
from repro.synth.world import WorldConfig, build_world


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _edges_digest(sources: np.ndarray, targets: np.ndarray) -> str:
    return _sha(
        np.ascontiguousarray(sources, dtype=np.int64).tobytes(),
        np.ascontiguousarray(targets, dtype=np.int64).tobytes(),
    )


def _world_config(cfg: dict, seed: int) -> WorldConfig:
    return WorldConfig(
        n_users=cfg["n_users"], seed=seed, engine=cfg["engine"], store=cfg["store"]
    )


def _study_config(cfg: dict, seed: int) -> StudyConfig:
    return StudyConfig(
        n_users=cfg["n_users"],
        seed=seed,
        crawl_fraction=cfg["crawl_fraction"],
        n_machines=cfg["n_machines"],
        path_workers=cfg["path_workers"],
        engine=cfg["engine"],
        world=_world_config(cfg, seed),
    )


def _page_budget(cfg: dict) -> int:
    return int(cfg["n_users"] * cfg["crawl_fraction"])


def _coverage_error(cfg: dict, world, dataset: CrawlDataset) -> str | None:
    """The coverage floor: a crawl must fetch its whole page budget."""
    budget = _page_budget(cfg)
    if dataset.n_profiles >= budget:
        return None
    return (
        f"crawl coverage below floor: {dataset.n_profiles} of {budget} pages "
        f"from seed user {world.seed_user_id()}, "
        f"{dataset.stats.discovered} users discovered"
    )


def _render_all(results: StudyResults) -> tuple[dict[str, str], list[str]]:
    """Render every registered artifact; returns digests and failures."""
    digests: dict[str, str] = {}
    errors: list[str] = []
    for artifact_id, experiment in EXPERIMENTS.items():
        try:
            text = experiment.render(results)
        except Exception as error:  # one artifact failing must not hide the rest
            errors.append(f"{artifact_id}: {type(error).__name__}: {error}")
            continue
        if not text.strip():
            errors.append(f"{artifact_id}: rendered empty")
            continue
        digests[artifact_id] = _sha(text.encode("utf-8"))
    return digests, errors


# -- setup ------------------------------------------------------------------


def setup_only(workload: str, cfg: dict, seed: int, work: Path) -> dict:
    start = time.perf_counter()
    world = build_world(_world_config(cfg, seed))
    if workload == "serve_mixed":
        _traffic(cfg, seed, world)
    return {"setup_s": [time.perf_counter() - start]}


def _traffic(cfg: dict, seed: int, world):
    clock = EventClock(world.clock.now())
    world.clock = clock
    return build_traffic(
        world.service,
        clock,
        {"n_clients": cfg["n_clients"], "seed": seed, "mix": cfg["mix"]},
    )


# -- study ------------------------------------------------------------------


def study_timed(cfg: dict, seed: int, work: Path) -> dict:
    start = time.perf_counter()
    study = MeasurementStudy(_study_config(cfg, seed))
    world = study.world
    setup_s = time.perf_counter() - start
    out = {"setup_s": [setup_s], "attempted": len(EXPERIMENTS)}
    start = time.perf_counter()
    try:
        dataset = study.crawl()
        error = _coverage_error(cfg, world, dataset)
        if error is None:
            results = study.run(dataset=dataset)
            digests, errors = _render_all(results)
    except Exception as exc:  # a study that raises is a failed run, with its cause
        traceback.print_exc()
        error = f"study raised {type(exc).__name__}: {exc}"
    out["run_s"] = time.perf_counter() - start
    if error is not None:
        return {**out, "failed": len(EXPERIMENTS), "errors": [error]}
    return {
        **out,
        "failed": len(errors),
        "errors": errors,
        "pages": dataset.n_profiles,
        "edges": dataset.n_edges,
        "digests": {"edges": _edges_digest(dataset.sources, dataset.targets), **digests},
    }


#: The program's own study spans, by the names the per-layer metrics use.
_STUDY_SPANS = {
    "study.build_world": "synth",
    "study.crawl": "crawl",
    "study.freeze_graph": "freeze",
    "study.geo_index": "geo",
    "study.analyze.paths": "paths",
    "study.analyze.structure": "structure",
    "study.analyze.profiles": "profiles",
    "study.analyze.geography": "geography",
}


def study_traced(cfg: dict, seed: int, work: Path) -> dict:
    """The program's own study, with its trace spans timed by a Probe."""
    probe = Probe()
    pipeline.trace = SimpleNamespace(
        span=lambda name, **attrs: probe.span(_STUDY_SPANS.get(name, name))
    )
    study = MeasurementStudy(_study_config(cfg, seed))
    world = study.world
    frontends: list[TimedFrontend] = []
    make_frontend = world.frontend

    def timed_frontend(*args, **kwargs):
        frontends.append(TimedFrontend(make_frontend(*args, **kwargs)))
        return frontends[-1]

    world.frontend = timed_frontend
    run_start = time.perf_counter()
    dataset = study.crawl()
    layers = _crawl_layers(probe, frontends[0], dataset)
    error = _coverage_error(cfg, world, dataset)
    if error is not None:
        layers.update(_synth_layers(probe))
        return {"failed": len(EXPERIMENTS), "errors": [error], "layers": layers}
    results = study.run(dataset=dataset)
    with probe.span("render"):
        digests, errors = _render_all(results)
    run_s = time.perf_counter() - run_start
    spans = probe.spans
    paths = spans["paths"]
    fig5 = results.fig5_paths
    sources = fig5.directed.n_sources + fig5.undirected.n_sources
    analysis = ("structure", "profiles", "geography", "render")
    attributed = probe.wall("crawl", "freeze", "geo", "paths", *analysis)
    layers.update(
        {
            "graph.freeze_s": spans["freeze"]["wall_s"],
            "graph.paths_s": paths["wall_s"],
            "graph.paths_cpu_s": paths["cpu_s"],
            "graph.bfs_sources": sources,
            "graph.sources_per_s": sources / paths["wall_s"],
            "graph.paths_peak_rss_mb": paths["peak_rss_mb"],
            "geo.index_s": spans["geo"]["wall_s"],
            "analysis.structure_s": spans["structure"]["wall_s"],
            "analysis.profiles_s": spans["profiles"]["wall_s"],
            "analysis.geography_s": spans["geography"]["wall_s"],
            "analysis.render_s": spans["render"]["wall_s"],
            "analysis.peak_rss_mb": max(spans[n]["peak_rss_mb"] for n in analysis),
            "obs.unattributed_s": run_s - attributed,
        }
    )
    return {
        "run_s": run_s,
        "layers": {**_synth_layers(probe), **layers},
        "peak_resets": probe.peak_resets,
        "failed": len(errors),
        "errors": errors,
        "digests": {"edges": _edges_digest(dataset.sources, dataset.targets), **digests},
    }


def _synth_layers(probe: Probe) -> dict:
    synth = probe.spans["synth"]
    return {
        "synth.build_s": synth["wall_s"],
        "synth.build_cpu_s": synth["cpu_s"],
        "synth.build_peak_rss_mb": synth["peak_rss_mb"],
    }


def _crawl_layers(probe: Probe, frontend: TimedFrontend, dataset, hooks_s=0.0) -> dict:
    crawl = probe.spans["crawl"]
    return {
        "platform.handle_s": frontend.seconds,
        "platform.pages": frontend.requests,
        "platform.us_per_page": 1e6 * frontend.seconds / max(frontend.requests, 1),
        "crawler.crawl_s": crawl["wall_s"],
        "crawler.cpu_s": crawl["cpu_s"],
        "crawler.self_s": crawl["wall_s"] - frontend.seconds - hooks_s,
        "crawler.edges": dataset.n_edges,
        "crawler.edges_per_s": dataset.n_edges / crawl["wall_s"],
        "crawler.peak_rss_mb": crawl["peak_rss_mb"],
        "crawler.dataset_rss_mb": crawl["held_rss_mb"],
    }


# -- campaign ---------------------------------------------------------------


def _campaign_config(cfg: dict, seed: int) -> CampaignConfig:
    return CampaignConfig(
        n_users=cfg["n_users"],
        seed=seed,
        n_machines=cfg["n_machines"],
        max_pages=_page_budget(cfg),
        checkpoint_every_pages=cfg["checkpoint_every_pages"],
        engine=cfg["engine"],
        store=cfg["store"],
    )


def _campaign_crawler(world, ccfg: CampaignConfig, wrap=None):
    frontend = world.frontend(
        rate_per_ip=ccfg.rate_per_ip, burst=ccfg.burst, error_rate=ccfg.error_rate
    )
    if wrap is not None:
        frontend = wrap(frontend)
    return frontend, BidirectionalBFSCrawler(frontend, ccfg.crawl_config())


def _disk_mb(directory: Path) -> float:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file()) / 2**20


def _archive_digests(directory: Path) -> dict:
    archive = directory / ARCHIVE_DIR
    with np.load(archive / "edges.npz") as arrays:
        edges = _edges_digest(arrays["sources"], arrays["targets"])
    return {
        "edges": edges,
        "profiles": _sha((archive / "profiles.jsonl").read_bytes()),
        "stats": _sha((archive / "stats.json").read_bytes()),
    }


def campaign_timed(cfg: dict, seed: int, work: Path) -> dict:
    directory = work / "campaign"
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    world = build_world(_world_config(cfg, seed))
    setup_s = time.perf_counter() - start
    ccfg = _campaign_config(cfg, seed)
    start = time.perf_counter()
    campaign = CrawlCampaign(directory, ccfg)
    _, crawler = _campaign_crawler(world, ccfg)
    dataset = crawler.crawl([world.seed_user_id()], hooks=CampaignStore(directory, ccfg))
    campaign.compact()
    run_s = time.perf_counter() - start
    out = {
        "setup_s": [setup_s],
        "run_s": run_s,
        "disk_mb": _disk_mb(directory),
        "pages": dataset.n_profiles,
        "edges": dataset.n_edges,
        "attempted": 1,
    }
    error = _coverage_error(cfg, world, dataset)
    if error is not None:
        return {**out, "failed": 1, "errors": [error]}
    return {**out, "failed": 0, "errors": [], "digests": _archive_digests(directory)}


def campaign_check(cfg: dict, seed: int, work: Path) -> dict:
    """The archive must equal an in-memory crawl of the same seed."""
    study = MeasurementStudy(_study_config(cfg, seed))
    start = time.perf_counter()
    study.world  # the build is this child's set-up sample
    setup_s = time.perf_counter() - start
    in_memory = study.crawl()
    archive = CrawlDataset.load(work / "campaign" / ARCHIVE_DIR)
    problems = dataset_diff(archive, in_memory)
    return {
        "setup_s": [setup_s],
        "failed": 1 if problems else 0,
        "errors": [f"archive differs from in-memory crawl: {p}" for p in problems],
    }


def campaign_traced(cfg: dict, seed: int, work: Path) -> dict:
    directory = work / "campaign-traced"
    shutil.rmtree(directory, ignore_errors=True)
    probe = Probe()
    with probe.span("synth"):
        world = build_world(_world_config(cfg, seed))
    ccfg = _campaign_config(cfg, seed)
    run_start = time.perf_counter()
    campaign = CrawlCampaign(directory, ccfg)
    frontend, crawler = _campaign_crawler(world, ccfg, wrap=TimedFrontend)
    store = CampaignStore(directory, ccfg)
    flushes = count_calls(store.journal, "flush")
    hooks = TimedHooks(store)
    with probe.span("crawl"):
        dataset = crawler.crawl([world.seed_user_id()], hooks=hooks)
    with probe.span("compact"):
        campaign.compact()
    run_s = time.perf_counter() - run_start
    layers = {
        **_synth_layers(probe),
        **_crawl_layers(probe, frontend, dataset, hooks_s=hooks.seconds),
        "store.hooks_s": hooks.seconds,
        "store.checkpoint_s": hooks.checkpoint_seconds,
        "store.compact_s": probe.spans["compact"]["wall_s"],
        "store.journal_bytes": (directory / JOURNAL_NAME).stat().st_size,
        "store.journal_flushes": flushes[0],
        "store.checkpoints": hooks.checkpoints,
        "store.segments_sealed": len(store.segments.sealed_names()),
        "store.disk_mb": _disk_mb(directory),
        "obs.unattributed_s": run_s - probe.wall("crawl", "compact"),
    }
    error = _coverage_error(cfg, world, dataset)
    out = {"run_s": run_s, "layers": layers, "peak_resets": probe.peak_resets}
    if error is not None:
        return {**out, "failed": 1, "errors": [error]}
    return {**out, "failed": 0, "errors": [], "digests": _archive_digests(directory)}


# -- serve_mixed ------------------------------------------------------------


class ServeTimer:
    """Times every ``ServingStack.serve`` call; keeps the non-200 requests."""

    def __init__(self, stack, record_ops: bool) -> None:
        inner = stack.serve
        samples: list[int] = []
        ops: list[str] = []
        non_ok: list[tuple[str, int, int]] = []
        clock = time.perf_counter_ns

        def serve(request):
            start = clock()
            result = inner(request)
            samples.append(clock() - start)
            if record_ops:
                ops.append(op_of(request.path))
            if result[0].status != 200:
                non_ok.append((request.path, request.viewer_id, result[0].status))
            return result

        stack.serve = serve
        self.samples, self.ops, self.non_ok = samples, ops, non_ok


def _quantiles_ms(samples) -> tuple[float, float]:
    p50, p99 = np.percentile(np.asarray(samples, dtype=np.float64), [50, 99])
    return float(p50) / 1e6, float(p99) / 1e6


def _refused_self_edit(path: str, viewer_id: int, status: int) -> bool:
    """A client asking to circle itself: the service rightly answers 404."""
    return (
        status == 404
        and path.startswith("/circle/")
        and path.rsplit("/", 1)[1] == str(viewer_id)
    )


def _serve_result(traffic, timer: ServeTimer, requests: int) -> dict:
    """Every request must get a 200, or the 404 a self circle edit earns."""
    refused = [r for r in timer.non_ok if _refused_self_edit(*r)]
    wrong = [r for r in timer.non_ok if not _refused_self_edit(*r)]
    errors = [f"{status} for {path} (viewer {viewer})" for path, viewer, status in wrong[:5]]
    unserved = requests - traffic.n_requests
    if unserved:
        errors.append(f"served {traffic.n_requests} of {requests} requests")
    return {
        "attempted": requests,
        "failed": len(wrong) + unserved,
        "refused": len(refused),
        "errors": errors,
        "digests": {"trace": traffic.trace_digest},
    }


def serve_timed(cfg: dict, seed: int, work: Path) -> dict:
    start = time.perf_counter()
    world = build_world(_world_config(cfg, seed))
    traffic = _traffic(cfg, seed, world)
    setup_s = time.perf_counter() - start
    timer = ServeTimer(traffic.stack, record_ops=False)
    requests = cfg["requests"]
    start = time.perf_counter()
    traffic.run_requests(requests)
    run_s = time.perf_counter() - start
    p50, p99 = _quantiles_ms(timer.samples)
    return {
        "setup_s": [setup_s],
        "run_s": run_s,
        "serve_rps": traffic.n_requests / run_s,
        "serve_p50_ms": p50,
        "serve_p99_ms": p99,
        **_serve_result(traffic, timer, requests),
    }


def serve_traced(cfg: dict, seed: int, work: Path) -> dict:
    probe = Probe()
    with probe.span("synth"):
        world = build_world(_world_config(cfg, seed))
    traffic = _traffic(cfg, seed, world)
    timer = ServeTimer(traffic.stack, record_ops=True)
    requests = cfg["requests"]
    with probe.span("serve"):
        traffic.run_requests(requests)
    run_s = probe.spans["serve"]["wall_s"]
    stack_s = sum(timer.samples) / 1e9
    p50, p99 = _quantiles_ms(timer.samples)
    layers = {
        **_synth_layers(probe),
        "serve.rps": traffic.n_requests / run_s,
        "serve.p50_ms": p50,
        "serve.p99_ms": p99,
        "serve.stack_s": stack_s,
        "serve.loadgen_self_s": run_s - stack_s,
    }
    by_op: dict[str, list[int]] = {}
    for op, sample in zip(timer.ops, timer.samples):
        by_op.setdefault(op, []).append(sample)
    for op in OPS:
        p50, p99 = _quantiles_ms(by_op[op]) if op in by_op else (0.0, 0.0)
        layers[f"serve.{op}_p50_ms"] = p50
        layers[f"serve.{op}_p99_ms"] = p99
    cache = traffic.cache.stats()
    layers.update(
        {
            "serve.cache.hit_rate": cache["hit_rate"],
            "serve.cache.hits": cache["hits"],
            "serve.cache.misses": cache["misses"],
            "serve.cache.invalidations": cache["invalidations"],
            "serve.cache.evictions": cache["evictions"],
        }
    )
    return {
        "run_s": run_s,
        "layers": layers,
        "peak_resets": probe.peak_resets,
        **_serve_result(traffic, timer, requests),
    }


#: The serving ops the ``mixed`` behaviour mix draws.
OPS = ("browse", "stream", "search", "circle_edit", "plus_one")

MODES = {
    ("study", "timed"): study_timed,
    ("study", "traced"): study_traced,
    ("campaign", "timed"): campaign_timed,
    ("campaign", "check"): campaign_check,
    ("campaign", "traced"): campaign_traced,
    ("serve_mixed", "timed"): serve_timed,
    ("serve_mixed", "traced"): serve_traced,
}


def main(argv: list[str]) -> int:
    mode, workload, seed, cfg, work = argv
    seed, cfg, work = int(seed), json.loads(cfg), Path(work)
    try:
        if mode == "setup":
            result = setup_only(workload, cfg, seed, work)
        else:
            result = MODES[workload, mode](cfg, seed, work)
    except Exception as error:
        traceback.print_exc()
        attempts = {"study": len(EXPERIMENTS), "serve_mixed": cfg.get("requests", 1)}
        result = {
            "attempted": attempts.get(workload, 1),
            "failed": attempts.get(workload, 1),
            "errors": [f"{mode} trial raised {type(error).__name__}: {error}"],
        }
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
