"""One part of a workload run in its own process: set up, run whole rounds, report.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --part P --seconds S --trace 0|1 [--tiny]

Prints one JSON object on its last stdout line: the op times by round, the
gate results, this process's peak RSS, the monotonic time set-up ended (so
the parent can time set-up from process start) and, with --trace 1, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Per-layer metrics read from span durations: metric -> (stage, field).
STAGE_TIMES = {
    "protocol.draw_ms": ("protocol.draw", "ms"),
    "protocol.run_ms": ("protocol.run", "ms"),
    "scheffe_graph.build_ms": ("scheffe_graph.build", "ms"),
    "scheffe_graph.dominate_ms": ("scheffe_graph.dominate", "ms"),
    "scheffe_graph.verify_ms": ("scheffe_graph.verify", "ms"),
    "scheffe_graph.triangle_scan_ms": ("scheffe_graph.triangle_scan", "ms"),
    "rmde.family_ms": ("rmde.family", "ms"),
    "rmde.select_ms": ("rmde.select", "ms"),
    "rmde.certify_ms": ("rmde.certify", "ms"),
    "rmde.pipeline_self_ms": ("rmde.pipeline", "self_ms"),
    "barriers.lbgraph_ms": ("barriers.lbgraph", "ms"),
    "barriers.lb_verify_ms": ("barriers.lb_verify", "ms"),
    "barriers.flatten_ms": ("barriers.flatten", "ms"),
}

# Per-layer metrics read from return values: metric -> (unit, aggregate over calls).
OBSERVED = {
    "protocol.block_size": ("count", statistics.median),
    "protocol.users_dropped": ("count", statistics.median),
    "protocol.users_used_frac": ("ratio", statistics.median),
    "scheffe_graph.edges": ("count", statistics.median),
    "scheffe_graph.build_alloc_mb": ("MB", statistics.median),
    "scheffe_graph.dominate_attempts": ("count", statistics.fmean),
    "scheffe_graph.dominating_set_size": ("count", statistics.median),
    "scheffe_graph.patch_size": ("count", statistics.median),
    "rmde.family_size": ("count", statistics.median),
    "rmde.duplicates_pruned": ("count", statistics.median),
    "rmde.family_useful_frac": ("ratio", statistics.median),
    "barriers.lb_attempts": ("count", statistics.fmean),
    "barriers.flatten_maps_per_s": ("1/s", statistics.median),
}

LAYERS = ("protocol", "scheffe_graph", "rmde", "barriers")


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def blas_fingerprint() -> dict:
    """BLAS library and its thread count, read from the library numpy loaded."""
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    maps = Path("/proc/self/maps").read_text().splitlines()
    libs = sorted({line.split()[-1] for line in maps if "blas" in line.split()[-1].lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def measure(wl: workloads.Workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run whole rounds until the next would end past `seconds`; trace even rounds.

    A traced run also runs untraced rounds in between, so the tracing
    overhead is measured in the same process.
    """
    min_rounds = 2 if tracer else 1
    rounds, failures, margins, roots = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 0
        round_start = time.perf_counter()
        op_s, labels = [], []
        with tracer.installed() if traced else nullcontext():
            for op in wl.round_ops(r):
                attempted += 1
                problems, margin = [], math.nan
                t0 = time.perf_counter()
                try:
                    with tracer.root(f"op.{op.label}") if traced else nullcontext() as root:
                        outcome = op.run()
                    if traced:
                        roots.append(root)
                except Exception as exc:  # an op that raises is a failed op; later ops still run
                    problems = [f"{type(exc).__name__}: {exc}"]
                op_s.append(time.perf_counter() - t0)
                if not problems:
                    try:
                        problems, margin = op.check(outcome)
                    except Exception as exc:  # so is one whose gate raises
                        problems = [f"{type(exc).__name__}: {exc}"]
                labels.append(op.label)
                if problems:
                    failures.append({"round": r, "op": op.label, "failed": problems})
                if not math.isnan(margin):
                    margins.append(margin)
        rounds.append({"traced": traced, "labels": labels, "op_s": op_s})
        r += 1
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed + (time.perf_counter() - round_start) > seconds:
            break
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "gate_margins": margins,
        "roots": roots,
    }


def per_layer(tracer: Tracer, setup_root: int, run: dict) -> dict:
    roots = set(run["roots"])
    stages = tracer.stage_summary(roots)
    observed = tracer.observed_values(roots)
    out = {}
    for name, (stage, field) in STAGE_TIMES.items():
        out[name] = metric(median_or_zero(stages.get(stage, {}).get(field, [])), "ms")
    for name, (unit, aggregate) in OBSERVED.items():
        values = observed.get(name, [])
        out[name] = metric(aggregate(values) if values else 0.0, unit)
    out["scheffe_graph.build_calls"] = metric(stages.get("scheffe_graph.build", {}).get("calls", 0), "count")
    margins = run["gate_margins"] + observed.get("rmde.min_star_margin", [])
    out["rmde.min_star_margin"] = metric(min(margins) if margins else 0.0, "l1")
    generate = tracer.stage_summary({setup_root}).get("distributions.generate", {}).get("ms", [])
    out["distributions.generate_ms"] = metric(median_or_zero(generate), "ms")
    shares = tracer.layer_shares(roots)
    for layer in LAYERS:
        out[f"{layer}.share"] = metric(shares.get(layer, 0.0), "ratio")
    out["trace.unaccounted_share"] = metric(shares.get("unaccounted", 0.0), "ratio")
    out["trace.ops"] = metric(len(roots), "count")
    traced = [sum(rd["op_s"]) for rd in run["rounds"] if rd["traced"]]
    plain = [sum(rd["op_s"]) for rd in run["rounds"] if not rd["traced"]]
    out["trace.overhead_frac"] = metric(statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)

    # epsilon = 1 makes PrivacyParams warn on every selection; record, do not fail.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer = Tracer() if args.trace else None
        with tracer.installed() if tracer else nullcontext():
            with tracer.root("setup") if tracer else nullcontext() as setup_root:
                wl = workloads.Workload(args.workload, args.seed, args.part, tiny=args.tiny)
        ready = time.monotonic()
        run = measure(wl, args.seconds, tracer)

    counts: dict[str, int] = {}
    for w in caught:
        key = f"{w.category.__name__}: {w.message}"
        counts[key] = counts.get(key, 0) + 1
    result = {
        "ready": ready,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "warnings": counts,
        "params": dict(wl.spec, seed=args.seed, part=args.part),
        "users_required": wl.users_required,
        "rounds": run["rounds"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_layer": per_layer(tracer, setup_root, run) if args.trace else None,
        "spans": tracer.export() if tracer else None,
        "fingerprint": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_fingerprint(),
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
