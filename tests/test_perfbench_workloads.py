"""The benchmark's workloads must keep running on the library: every op of the
first two rounds, at the self-test sizes, passes its own correctness gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", NAMES)
def test_workload_ops_pass_their_gates(workloads, name):
    wl = workloads.Workload(name, seed=0, tiny=True)
    for r in (0, 1):
        for op in wl.round_ops(r):
            failed, _ = op.check(op.run())
            assert not failed, f"{name} round {r} op {op.label}: {failed}"
