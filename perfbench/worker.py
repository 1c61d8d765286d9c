"""One benchmark run in a fresh process: set up, run the pipeline once, report.

Set-up is importing the program and writing the workload's input CSV from
the seed.  The run is one ``run_pipeline`` call on that file, optionally
traced.  The result goes to ``--result`` as JSON; ``ready_at`` is a
``time.monotonic()`` reading, which the parent subtracts from its own
reading at spawn time to get the set-up time.

Run by ``run.py``; by hand:
    python3 perfbench/worker.py --workload ndhb-effects --seed 0 \
        --input in.csv --out run/ --result result.json [--spans spans.json]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _cpu_info() -> tuple[str, list[str]]:
    """CPU model name and the vector-instruction flags numpy and OpenBLAS dispatch on."""
    model, flags = platform.processor(), []
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                model = value.strip()
            elif key.strip() == "flags":
                flags = sorted(f for f in value.split() if f.startswith(("sse", "avx", "fma")))
                break
    return model, flags


def environment() -> dict:
    import scipy

    model, flags = _cpu_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="trace the run and write its spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import causalchron
    from causalchron.pipeline import PipelineConfig, run_pipeline

    if Path(causalchron.__file__).resolve().parent != SRC / "causalchron":
        raise RuntimeError(f"imported {causalchron.__file__}, not the checkout's source")
    w = workloads.WORKLOADS[args.workload]
    values = workloads.generate(w, args.seed)
    workloads.write_csv(w, values, args.input)
    cfg = PipelineConfig(
        input_path=str(args.input),
        output_dir=str(args.out),
        seed=args.seed,
        jobs=1,
        **w.config,
    )
    ready_at = time.monotonic()

    result: dict = {"ready_at": ready_at}
    if args.spans is None:
        t0 = time.perf_counter()
        run_pipeline(cfg)
        result["pipeline_s"] = time.perf_counter() - t0
    else:
        from tracer import Tracer, layer_values

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            tracer.traced(run_pipeline, cfg)
            result["pipeline_s"] = time.perf_counter() - t0
        finally:
            tracer.remove()
        tracer.write_spans(args.spans)
        result["layer_times"], result["layer_counts"] = layer_values(tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    result["input"] = workloads.input_properties(values)
    result["environment"] = environment()
    args.result.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
