#!/usr/bin/env python3
"""ldpselect benchmark: time, memory and users per selection.

Usage, from the root of a checkout:
    python3 perfbench/run.py [--workload trials-k8|select-k32|offline-k128|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in child processes of its own (perfbench/worker.py), so
peak RSS is that workload's alone.  An untraced run splits its --seconds
over PARTS children that run one after another, each on its own inputs:
op times on this kind of machine vary more from process to process than
within one, and the split averages over that.  Set-up is timed in each
child, from its start to its first op, and reported as the median.  Every
metric is printed by name with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 (one child) the per-layer ones.  A full
record, with a machine fingerprint, goes to
.bench_out/BENCH_<workload>_trace<0|1>.json.

Exit codes: 0 all checks passed; 1 a correctness check failed or a child
failed; 2 the program under test is missing or the arguments are bad;
3 the workload's last recorded peak RSS does not fit in MemAvailable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RECORDED = HERE / "recorded"
# The names of workloads.SPECS, repeated so that this process never imports the library.
WORKLOADS = ("trials-k8", "select-k32", "offline-k128")
PARTS = 4  # children an untraced run is split over
RUN_TIMEOUT_S = 170  # per workload: every child of it must end within this
MEMORY_HEADROOM = 1.25  # required MemAvailable as a multiple of the recorded peak


class BenchmarkError(Exception):
    """A child process failed or printed no result."""


class InsufficientMemoryError(BenchmarkError):
    """The workload's last recorded peak RSS does not fit in MemAvailable."""


def mem_available_mb() -> float:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    raise BenchmarkError("MemAvailable missing from /proc/meminfo")


def last_recorded_peak_mb(workload: str, out_dir: Path) -> float | None:
    for directory in (out_dir, RECORDED):
        path = directory / f"BENCH_{workload}_trace0.json"
        if path.is_file():
            return json.loads(path.read_text())["metrics"]["peak_rss_mb"]["value"]
    return None


def check_memory(workload: str, out_dir: Path) -> None:
    peak = last_recorded_peak_mb(workload, out_dir)
    available = mem_available_mb()
    if peak is not None and peak * MEMORY_HEADROOM > available:
        raise InsufficientMemoryError(
            f"{workload} last peaked at {peak:.0f} MB; needs {peak * MEMORY_HEADROOM:.0f} MB "
            f"with headroom, MemAvailable is {available:.0f} MB"
        )


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py; return its JSON result with setup_s measured from spawn."""
    start = time.monotonic()
    timeout = max(deadline - start, 1.0)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def fingerprint(child: dict) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_available_mb": mem_available_mb(),
        **child["fingerprint"],
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(children: list[dict]) -> dict:
    """From every round of every child.  Percentiles are taken per op kind
    (generator model, or the barriers op) and averaged over the kinds, so a
    run's figure does not depend on which kind its middle op happens to be."""
    rounds = [rd for child in children for rd in child["rounds"]]
    by_kind: dict[str, list[float]] = {}
    for rd in rounds:
        for label, seconds in zip(rd["labels"], rd["op_s"]):
            by_kind.setdefault(label, []).append(seconds * 1e3)

    def percentile(values: list[float], q: int) -> float:
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]

    return {
        "setup_s": metric(statistics.median(child["setup_s"] for child in children), "s"),
        "wall_s": metric(statistics.median(sum(rd["op_s"]) for rd in rounds), "s"),
        "op_p50_ms": metric(statistics.fmean(percentile(ms, 50) for ms in by_kind.values()), "ms"),
        "op_p90_ms": metric(statistics.fmean(percentile(ms, 90) for ms in by_kind.values()), "ms"),
        "peak_rss_mb": metric(max(child["peak_rss_mb"] for child in children), "MB"),
        "users_required": metric(children[0]["users_required"], "users"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool, out_dir: Path) -> dict:
    check_memory(name, out_dir)
    parts = 1 if trace else PARTS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    children = []
    for part in range(parts):
        args = ["--workload", name, "--seed", str(seed), "--part", str(part),
                "--seconds", str(seconds / parts), "--trace", str(trace)]
        children.append(run_child([*args, "--tiny"] if tiny else args, deadline))
    if len({child["users_required"] for child in children}) != 1:
        raise BenchmarkError(f"children of {name} disagree on users_required")
    metrics = children[0]["per_layer"] if trace else end_to_end(children)
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    warnings: dict[str, int] = {}
    for child in children:
        for message, count in child["warnings"].items():
            warnings[message] = warnings.get(message, 0) + count
    record = {
        "workload": name,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": [f for child in children for f in child["failures"]],
        "metrics": metrics,
        "setup_s_samples": [child["setup_s"] for child in children],
        "params": children[0]["params"],
        "warnings": warnings,
        "rounds_by_part": [child["rounds"] for child in children],
        "fingerprint": fingerprint(children[0]),
        "unix_time": time.time(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"BENCH_{name}_trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (out_dir / f"SPANS_{name}.json").write_text(json.dumps(children[0]["spans"]) + "\n")
    return record


def print_record(record: dict) -> None:
    print(f"{record['workload']}: {record['attempted']} ops, {record['failed']} failed "
          f"(ops_failed_frac {record['ops_failed_frac']:.4g})")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    for message, count in record["warnings"].items():
        print(f"  warning x{count}: {message}")
    for failure in record["failures"]:
        print(f"  FAILED round {failure['round']} {failure['op']}: {', '.join(failure['failed'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ldpselect" / "__init__.py").is_file():
        print(f"error: program under test not found at {ROOT / 'src' / 'ldpselect'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace, args.tiny, args.out_dir))
            print_record(records[-1])
    except InsufficientMemoryError as exc:
        print(f"error: InsufficientMemoryError: {exc}", file=sys.stderr)
        return 3
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
