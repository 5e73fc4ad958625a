"""The benchmark tracer wraps library attributes by name; each must exist where it looks."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ldpselect import SelectionConfig, SimulatedPopulation, plan_sample_size, random_hypothesis_set, rmde

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_traced_selection_records_the_family_stage(tracing):
    """A plan goes through rmde.query_family_from_dominating_set, so a traced selection shows the
    family stage, with the certifies check under it."""
    Q = random_hypothesis_set(24, 16, seed=1)
    config = SelectionConfig(alpha=2.0, beta=0.5, epsilon=5.0, seed=1)
    pop = SimulatedPopulation.draw(Q.hypotheses[0], plan_sample_size(24, config), 1)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("op"):
        rmde.select_hypothesis(Q, pop, config)
    names = {span.name: span for span in tracer.spans}
    assert {"rmde.pipeline", "rmde.family", "rmde.certify", "rmde.select"} <= set(names)
    assert tracer.spans[names["rmde.certify"].parent].name == "rmde.family"
    assert tracer.spans[names["rmde.family"].parent].name == "rmde.pipeline"
