"""The benchmark's tracer patches qpcsim by name (module functions, class
methods, ``harness.np.random``).  This test installs it the way a traced
benchmark run does, so that renaming or rerouting any of those bindings
fails here and not only in the benchmark's own self-test."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import qpcsim.adversaries
import qpcsim.cli
import qpcsim.ghz
import qpcsim.harness
import qpcsim.photons
import qpcsim.protocol
from qpcsim.suites import _SCENARIOS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (qpcsim.adversaries, qpcsim.cli, qpcsim.ghz, qpcsim.harness, qpcsim.photons, qpcsim.protocol)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level name and class attribute of the traced modules."""
    seen = {}
    for module in MODULES:
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    seen[(module.__name__, name, attr)] = member
    return seen


@pytest.mark.parametrize("in_process", [True, False])
def test_tracer_installs_and_restores_every_binding(in_process):
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed(in_process=in_process):
        # Called through the module, as the benchmark does, to hit the patched binding.
        qpcsim.harness.run_scenario(qpcsim.harness.Scenario(n=3, m=2, trials=2, seed=5))
    spans = {name: count for name, (count, _, _) in tracer.totals().items()}
    assert spans.get("harness.run_scenario") == 1
    trial_side = ("protocol.run", "ghz.measure", "photons.interleave", "harness.default_rng")
    if in_process:
        assert all(spans.get(name, 0) > 0 for name in trial_side), spans
        assert spans["protocol.run"] == spans["harness.default_rng"] == 2
    else:
        assert not any(name in spans for name in trial_side), spans
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_the_battery_attacks_stay_in_the_block_engine_under_the_tracer():
    # The tracer wraps each kind's hooks in the class that defines them; every
    # attack still runs in the block engine, never in protocol's runners.
    attacks = [scenario for _, scenario in _SCENARIOS.values() if scenario.adversary.kind != "none"]
    tracer = _load_tracing().Tracer()
    with tracer.installed(in_process=True):
        for scenario in attacks:
            qpcsim.harness.run_scenario(replace(scenario, trials=3))
    spans = {name: count for name, (count, _, _) in tracer.totals().items()}
    assert len(attacks) == 19 and spans["harness.run_scenario"] == 19
    assert spans.get("protocol.run", 0) == 0, spans
