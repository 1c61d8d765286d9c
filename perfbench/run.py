"""causalchron benchmark: whole-pipeline runs of one workload, checked and timed.

    python3 perfbench/run.py --workload ndhb-effects --seed 0 --seconds 40 --trace 0

Each run is a fresh Python process (``worker.py``), started one at a time:
a closed loop with one caller, ``jobs=1`` and one BLAS thread.  The worker
imports the program from ``src/``, writes the workload's input CSV from
the seed and runs ``causalchron.pipeline.run_pipeline`` on it once.  Runs
repeat until ``--seconds`` would be exceeded, with at least two untraced
runs, or with ``--trace 1`` at least one untraced and two traced runs.

Every run is checked: the worker must succeed, its input must match the
first run's byte for byte, its artifacts must match the manifest and be
byte-identical to the first run's, and the first run must be equivalent
(``compare_runs.py``) to the stored reference of the seed commit when one
exists for this workload, seed and environment.  Workload-specific checks
come from ``workloads.py`` (no learned adjacency outside the generating
network); traced runs must repeat every count exactly.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``pipeline_s``, ``setup_s``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones of ``tracer.LAYER_METRICS``.
Lines before it print every metric with its unit, ``failed_frac``, the
environment and the input's properties.  Run directories, spans and a
``summary.json`` of the invocation stay in ``perfbench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

from compare_runs import differences, fingerprint, fingerprint_differences, load_run
from tracer import LAYER_METRICS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"
#: the whole invocation must end well within three minutes
DEADLINE_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: what a stored reference must share with a run to be compared with it
REFERENCE_ENV_KEYS = ("python", "numpy", "scipy", "cpu_model", "cpu_flags")


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _check_manifest(run_dir: Path) -> list[str]:
    listed = set(json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["artifacts"])
    present = {p.name for p in run_dir.iterdir()}
    return [f"artifact {n} listed but missing" for n in sorted(listed - present)] + [
        f"file {n} not in the manifest" for n in sorted(present - listed)
    ]


def _run_worker(workload: str, seed: int, work: Path, k: int, traced: bool, deadline: float) -> dict:
    """Spawn one worker and return its result, with ``setup_s`` and ``wall_s`` added."""
    rel = work.relative_to(ROOT)
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        # one input path for every run: the config, and so the manifest, records it
        "--input", str(rel / "input.csv"),
        "--out", str(rel / f"run-{k}"),
        "--result", str(rel / f"result-{k}.json"),
    ]
    if traced:
        cmd += ["--spans", str(rel / f"spans-{k}.json")]
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    if proc.returncode != 0:
        return {"error": f"worker exited with code {proc.returncode}"}
    result = json.loads((work / f"result-{k}.json").read_text(encoding="utf-8"))
    result["setup_s"] = result.pop("ready_at") - spawned
    result["wall_s"] = time.monotonic() - spawned
    return result


def _reference_check(workload: str, seed: int, run_dir: Path, work: Path, env: dict) -> list[str]:
    """Compare the run with the stored reference of this workload and seed, if any.

    Floats are reproducible to the last bit only with the same libraries on
    the same instruction set, so a reference recorded elsewhere is skipped.
    ``_work/<workload>/reference.json`` is this run in the reference format.
    """
    record = {
        "environment": {k: env[k] for k in REFERENCE_ENV_KEYS},
        "fingerprint": fingerprint(run_dir),
    }
    (work / "reference.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    path = REFERENCE / workload / f"seed-{seed}.json"
    if not path.is_file():
        return []
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref["environment"] != record["environment"]:
        print(f"{path.relative_to(ROOT)} was recorded on another environment; not compared", file=sys.stderr)
        return []
    diffs = fingerprint_differences(ref["fingerprint"], record["fingerprint"])
    if not diffs:
        return []
    more = f" and {len(diffs) - 3} more" if len(diffs) > 3 else ""
    return [f"differs from {path.relative_to(ROOT)}: {'; '.join(diffs[:3])}{more}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "causalchron" / "pipeline.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'causalchron'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # untraced runs only, or one untraced run then two traced ones per round
    schedule = (False,) if args.trace == 0 else (False, True, True)
    minimum = 2 if args.trace == 0 else 3
    runs: list[dict] = []
    first_ok: int | None = None
    input_digest: str | None = None
    while True:
        k = len(runs)
        elapsed = time.monotonic() - started
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        expected = mean(walls) if walls else 0.0
        if k >= minimum and elapsed + expected > args.seconds:
            break
        if k > 0 and time.monotonic() + 1.5 * expected > deadline:
            break
        traced = schedule[k % len(schedule)]
        run = _run_worker(w.name, args.seed, work, k, traced, deadline)
        run["traced"] = traced
        runs.append(run)
        if "error" in run:
            continue
        run_dir = work / f"run-{k}"
        problems = _check_manifest(run_dir)
        digest = hashlib.sha256((work / "input.csv").read_bytes()).hexdigest()
        input_digest = input_digest or digest
        if digest != input_digest:
            problems.append("input differs from the first run's")
        problems += w.check(run_dir)
        if w.true_skeleton is not None:
            run["skeleton_recovered"] = w.recovered(run_dir)
        if first_ok is None:
            problems += _reference_check(w.name, args.seed, run_dir, work, run["environment"])
            if not problems:
                first_ok = k
                run["digests"] = _digests(run_dir)
        elif _digests(run_dir) != runs[first_ok]["digests"]:
            diffs = differences(load_run(work / f"run-{first_ok}"), load_run(run_dir))
            problems.append(
                f"artifacts not byte-identical to run-{first_ok} "
                f"({len(diffs)} differences beyond the equivalence tolerance)"
            )
        if traced:
            first_counts = next(r["layer_counts"] for r in runs if r["traced"] and "layer_counts" in r)
            if run["layer_counts"] != first_counts:
                problems.append("traced counts differ from the first traced run's")
        if problems:
            run["error"] = "; ".join(problems)

    # a run that failed a check still has valid timings; one whose worker failed has none
    for k, r in enumerate(runs):
        if "error" in r:
            print(f"run {k} failed: {r['error']}", file=sys.stderr)
    n_failed = sum("error" in r for r in runs)
    timed = [r for r in runs if "pipeline_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"]]
    info = timed[0] if timed else {}

    metrics: dict[str, dict] = {}
    lines = []
    if untraced:
        pipe = [r["pipeline_s"] for r in untraced]
        setup = [r["setup_s"] for r in timed]
        rss = [r["peak_rss_mb"] for r in untraced]
        if args.trace == 0:
            metrics = {
                "pipeline_s": {"value": median(pipe), "unit": "s"},
                "setup_s": {"value": median(setup), "unit": "s"},
                "peak_rss_mb": {"value": median(rss), "unit": "MB"},
            }
        lines += [
            f"pipeline_s    {median(pipe):.4f} s   median of {len(pipe)} untraced runs "
            f"(min {min(pipe):.4f}, max {max(pipe):.4f})",
            f"setup_s       {median(setup):.4f} s   median of {len(setup)} runs "
            f"(min {min(setup):.4f}, max {max(setup):.4f})",
            f"peak_rss_mb   {median(rss):.1f} MB  median of {len(rss)} untraced runs "
            f"(max {max(rss):.1f})",
        ]
    lines.append(f"failed_frac   {n_failed / len(runs):.4f} fraction ({n_failed} of {len(runs)} runs)")
    recovered = [r["skeleton_recovered"] for r in runs if "skeleton_recovered" in r]
    if recovered:
        lines.append(
            f"recovered     {recovered[0]} adjacencies of the generating network "
            f"({w.true_skeleton[0]}, first checked run)"
        )
    if args.trace == 1 and traced_runs and untraced:
        values = {
            key: median([r["layer_times"][key] for r in traced_runs])
            for key in traced_runs[0]["layer_times"]
        }
        values.update(traced_runs[0]["layer_counts"])
        values["dataset.distinct_row_frac"] = info["input"]["distinct_row_frac"]
        values["tracer.overhead_s"] = median([r["pipeline_s"] for r in traced_runs]) - median(
            [r["pipeline_s"] for r in untraced]
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        lines += [f"{name:36s} {values[name]:.6g} {unit}" for name, unit, _ in LAYER_METRICS]

    summary = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": info.get("environment"),
        "input": info.get("input"),
        "runs": [{k: v for k, v in r.items() if k != "digests"} for r in runs],
        "metrics": metrics,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}: {len(runs)} runs, {n_failed} failed")
    print("environment " + json.dumps(info.get("environment"), sort_keys=True))
    print("input " + json.dumps(info.get("input"), sort_keys=True))
    for line in lines:
        print(line)
    expected_metrics = 3 if args.trace == 0 else len(LAYER_METRICS)
    complete = len(metrics) == expected_metrics
    print(
        json.dumps(
            {
                "correct": n_failed == 0 and complete,
                "attempted": len(runs),
                "failed": n_failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
