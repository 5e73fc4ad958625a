#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that
  * every workload, traced and untraced, prints exactly the metrics that
    BENCHMARK.json names, each with the unit given there;
  * a deliberately wrong selection (the hypothesis farthest from p) is
    counted as a failed op;
  * a workload whose recorded peak RSS does not fit is refused with
    InsufficientMemoryError;
  * without the program under test the benchmark exits non-zero and prints
    no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ldpselect import distributions, rmde  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for name in run.WORKLOADS:
            proc = bench("--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
                         "--tiny", "--out-dir", str(OUT))
            check(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{name}: {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected, f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected) - set(units))}, extra {sorted(set(units) - set(expected))}, "
                  f"units {[(k, units[k], expected[k]) for k in units if k in expected and units[k] != expected[k]]}")
            for metric_name in expected:
                check(f"  {metric_name} " in proc.stdout, f"{metric_name} not printed by name")
            print(f"ok  {name} trace {trace}: {len(units)} metrics with units")


def check_wrong_selection_fails() -> None:
    real_select = rmde.select_hypothesis

    def farthest(Q, pop, config):
        report = real_select(Q, pop, config)
        p = pop.true_distribution
        worst = max(range(Q.k), key=lambda j: distributions.l1_distance(Q.hypotheses[j], p))
        return replace(report, selected_index=worst + 1)

    # Pick the first seed whose farthest hypothesis breaks 13 * OPT + alpha, so
    # the wrong answer is wrong by the guarantee, not just suboptimal.
    bound_factor = workloads.config().approximation_factor
    for seed in range(200):
        wl = workloads.Workload("trials-k8", seed, tiny=True)
        inst = wl.instances[0]
        far = max(distributions.l1_distance(q, inst.p) for q in inst.Q.hypotheses)
        if far > bound_factor * inst.opt + workloads.ALPHA:
            break
    else:
        raise SystemExit("FAIL: no tiny instance where the farthest hypothesis breaks the guarantee")
    rmde.select_hypothesis = farthest
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # epsilon = 1, expected
            result = worker.measure(wl, seconds=0.0)
    finally:
        rmde.select_hypothesis = real_select
    check(result["attempted"] >= 1 and result["failed"] == result["attempted"],
          f"wrong selections counted {result['failed']} failed of {result['attempted']}")
    check(all("guarantee" in f["failed"] for f in result["failures"]), f"failures {result['failures']}")
    print(f"ok  farthest-hypothesis selection: {result['failed']}/{result['attempted']} ops failed")


def check_memory_refusal() -> None:
    records = OUT / "memory"
    records.mkdir(parents=True, exist_ok=True)
    (records / "BENCH_select-k32_trace0.json").write_text(
        json.dumps({"metrics": {"peak_rss_mb": {"value": 750.0, "unit": "MB"}}})
    )
    real = run.mem_available_mb
    run.mem_available_mb = lambda: 900.0
    try:
        run.check_memory("select-k32", records)
    except run.InsufficientMemoryError as exc:
        print(f"ok  memory refusal: {exc}")
    else:
        raise SystemExit("FAIL: check_memory accepted a workload that does not fit")
    finally:
        run.mem_available_mb = real


def check_bare_directory_fails() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "trials-k8", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    check(proc.returncode != 0, "benchmark succeeded without the program under test")
    check("correct" not in proc.stdout, f"printed a result without the program: {proc.stdout!r}")
    shutil.rmtree(bare)
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main() -> int:
    check_metrics_emitted()
    check_wrong_selection_fails()
    check_memory_refusal()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
