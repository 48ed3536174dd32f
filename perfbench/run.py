"""End-to-end benchmark of the Google+ measurement study reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload study|serve_mixed|campaign|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``study``       - build a world, crawl it, freeze the graph and render
  every registered paper artifact (``MeasurementStudy``);
* ``serve_mixed`` - interactive ``mixed`` traffic against a built world
  through the serving stack and its page cache;
* ``campaign``    - a durable crawl through ``CampaignStore`` (journal,
  segments, checkpoints), then ``compact()``.

Every trial runs in a fresh interpreter (``perfbench/trial.py``) with
``REPRO_OBS=0``.  Trials repeat until ``--seconds`` of measured work
have passed and there are at least ``MIN_TRIALS`` of them; extra
set-up-only children make at least ``SETUP_SAMPLES`` set-up samples.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` adds one traced child and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, the machine and the config.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: One config per workload; the seed comes from ``--seed``.  All three
#: use the fast engine on the columnar store, one process, one thread.
_WORLD = {"n_users": 50_000, "engine": "fast", "store": "columnar"}
_CRAWL = {"crawl_fraction": 0.78, "n_machines": 11}
WORKLOADS = {
    "study": {**_WORLD, **_CRAWL, "path_workers": 1},
    "serve_mixed": {**_WORLD, "mix": "mixed", "n_clients": 2_000, "requests": 40_000},
    "campaign": {**_WORLD, **_CRAWL, "path_workers": 1, "checkpoint_every_pages": 500},
}

SETUP_SAMPLES = 3
#: Timed trials a workload makes at least, however long they take.  A
#: fresh interpreter runs up to ~10% faster or slower than the last one
#: on the same seed, so the short ``serve_mixed`` trials report a median.
MIN_TRIALS = {"serve_mixed": 3}
#: Wall-clock budget of one invocation; children still running at the
#: deadline are killed and their trial counts as failed.
DEADLINE_S = 170.0

#: Metric names and units, as ``BENCHMARK.json`` declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Printed in the text lines of the workload that has them, not in the
#: JSON: every workload must report every end-to-end metric there.
WORKLOAD_EXTRAS = {
    "serve_mixed": {"serve_rps": "1/s", "serve_p50_ms": "ms", "serve_p99_ms": "ms"},
    "campaign": {"disk_mb": "MB"},
}


class Run:
    """The children of one invocation, under one deadline."""

    def __init__(self, workload: str, seed: int, config: dict, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = config
        self.deadline = time.monotonic() + DEADLINE_S
        self.errors: list[str] = []

    def child(self, mode: str) -> dict:
        """Run one trial child; returns its JSON plus kernel-measured RSS."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env["REPRO_OBS"] = "0"
        cmd = [
            sys.executable, str(HERE / "trial.py"), mode, self.workload,
            str(self.seed), json.dumps(self.config), str(self.work),
        ]
        out_path = self.work / f"{mode}.out"
        err_path = self.work / f"{mode}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        status, rusage = _wait(proc, self.deadline)
        lines = out_path.read_text(errors="replace").strip().splitlines()
        if status is None:
            return self._lost(mode, "killed at the run's deadline", err_path)
        if status != 0 or not lines:
            return self._lost(mode, f"exited with status {status}", err_path)
        result = json.loads(lines[-1])
        # ru_maxrss is in KiB on Linux: the child's whole-life peak RSS.
        result["maxrss_mb"] = rusage.ru_maxrss / 1024.0
        for error in result.get("errors", []):
            self.errors.append(f"{mode}: {error}")
        return result

    def _lost(self, mode: str, why: str, err_path: Path) -> dict:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        self.errors.append(f"{mode} child {why}: {' | '.join(tail)}")
        return {"lost": True}


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with ``wait4``; kill it at the deadline."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            return None, None
        time.sleep(0.02)


def measure(workload: str, config: dict, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(Run(workload, seed, config, work), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def _measure(run: Run, seconds: float, trace: bool) -> dict:
    trials: list[dict] = []
    setup: list[float] = []
    attempted = failed = 0
    measured = 0.0
    min_trials = MIN_TRIALS.get(run.workload, 1)
    # A failed trial ends the run: its cause is reported, never retried.
    while not trials or (
        (measured < seconds or len(trials) < min_trials) and not trace and not failed
    ):
        trial = run.child("timed")
        if trial.get("lost"):
            trial = {"failed": 1, "attempted": 1}
        if run.workload == "campaign" and "digests" in trial:
            check = run.child("check")
            setup += check.get("setup_s", [])
            trial["failed"] = max(trial["failed"], 1 if check.get("lost") else check["failed"])
        trials.append(trial)
        setup += trial.get("setup_s", [])
        attempted += trial["attempted"]
        failed += trial["failed"]
        measured += trial.get("run_s", seconds)
    timed = [t for t in trials if "run_s" in t]
    metrics: dict[str, float] = {}
    if trace:
        traced = run.child("traced")
        layers = traced.get("layers", {})
        if "run_s" in traced and timed:
            layers["obs.trace_overhead_s"] = traced["run_s"] - _median(timed, "run_s")
        if not traced.get("peak_resets", True):
            run.errors.append("traced: /proc/self/clear_refs refused; peaks are per process")
        digests = traced.get("digests")
        for trial in timed:
            if trial.get("digests") != digests:
                failed += trial["attempted"] if digests is None else 1
                run.errors.append("traced run's output digests differ from the timed run's")
        metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    else:
        while len(setup) < SETUP_SAMPLES:
            child = run.child("setup")
            if child.get("lost") or not child.get("setup_s"):
                failed += 1
                break
            setup += child["setup_s"]
        if timed:
            metrics = {
                "setup_s": statistics.median(setup),
                "run_s": _median(timed, "run_s"),
                "peak_rss_mb": statistics.median(t["maxrss_mb"] for t in timed),
                **{
                    name: _median(timed, name)
                    for name in WORKLOAD_EXTRAS.get(run.workload, {})
                },
            }
    digest_sets = {json.dumps(t.get("digests"), sort_keys=True) for t in timed}
    if len(digest_sets) > 1:
        failed += 1
        run.errors.append("repeated trials of one seed disagree on their outputs")
    failed = min(failed, attempted)
    first = timed[0] if timed else {}
    return {
        "correct": failed == 0 and not run.errors and bool(timed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": run.errors,
        "trials": len(trials),
        "setup_samples": len(setup),
        "numpy": first.get("numpy"),
        "pages": first.get("pages"),
        "edges": first.get("edges"),
        "refused": first.get("refused"),
    }


def _median(trials: list[dict], key: str) -> float:
    return statistics.median(t[key] for t in trials)


def fingerprint() -> dict:
    """The machine and code a result came from."""
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(ram_gb, 2),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def report(
    workload: str, config: dict, seed: int, seconds: float, trace: bool, result: dict
) -> None:
    """Print the metric lines, the provenance line, then the JSON line."""
    units = PER_LAYER if trace else {**END_TO_END, **WORKLOAD_EXTRAS.get(workload, {})}
    for name, unit in units.items():
        if name in result["metrics"]:
            print(f"{workload:<12} {name:<32} {result['metrics'][name]:>16.6f} {unit}")
    for error in result["errors"]:
        print(f"{workload:<12} FAILED: {error}")
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": config,
        "machine": {**fingerprint(), "numpy": result["numpy"]},
        "trials": result["trials"],
        "setup_samples": result["setup_samples"],
        "pages": result["pages"],
        "edges": result["edges"],
        "refused_self_circle_edits": result["refused"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    keep = END_TO_END if not trace else PER_LAYER
    metrics = {
        name: {"value": value, "unit": keep[name]}
        for name, value in result["metrics"].items()
        if name in keep
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        config = WORKLOADS[workload]
        result = measure(workload, config, args.seed, args.seconds, bool(args.trace))
        report(workload, config, args.seed, args.seconds, bool(args.trace), result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
