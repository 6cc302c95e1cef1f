"""Self-test of the benchmark at tiny size.

    PYTHONPATH=src python -m pytest -q perfbench

It checks that BENCHMARK.json matches the metric tables in the code, that
every run prints every metric by name with its unit, that two traced runs
agree exactly on the exact counts, and that the correctness gate flags
fabricated wrong counters and a result that differs across ``--jobs``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from qpcsim import harness
from qpcsim.harness import closed_form

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(workload: str, trace: int, seed: int = 7) -> list:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _shape(name: str) -> workloads.Shape:
    return next(s for s in workloads.HONEST_SHAPES + workloads.ATTACK_SHAPES if s.name == name)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(workloads.WHY.items())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in tracing.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: spec[0] for name, spec in (tracing.PER_LAYER if trace else run.END_TO_END).items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = [line.strip() for line in lines[:-1]]
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in printed), name


def test_two_traced_runs_agree_on_the_exact_counts():
    first = json.loads(_bench(workloads.ATTACK, 1, seed=5)[-1])["metrics"]
    second = json.loads(_bench(workloads.ATTACK, 1, seed=5)[-1])["metrics"]
    for name in tracing.EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert 0 < first["protocol.abort_step2_frac"]["value"] < 1


def test_checker_flags_fabricated_counters():
    honest = _shape("honest.n3")
    good = {"trials": 10, "completed": 10, "pairs_total": 30, "pairs_verdict_correct": 30,
            "pairs_r_checked": 30, "pairs_r_exact": 30, "z_check_rounds": 80}
    assert checks.call_failures(honest, 10, good) == []
    assert any("r_exact_rate" in f for f in checks.call_failures(honest, 10, dict(good, pairs_r_exact=29)))
    assert any("Z check" in f for f in checks.call_failures(honest, 10, dict(good, z_check_failures=1)))
    assert checks.call_failures(honest, 12, good)

    flip = _shape("flip.tp1")
    flipped = {"trials": 10, "aborted": 10, "abort_step7": 10}
    assert checks.call_failures(flip, 10, dict(flipped, arbiter_tp1=10)) == []
    assert any("arbiter" in f for f in checks.call_failures(flip, 10, dict(flipped, arbiter_tp2=10)))

    eve = _shape("eve.l20")
    target = closed_form("intercept_detection", 20)
    assert checks.aggregate_failures({eve.name: {"trials": 4000, "abort_step2": round(4000 * target)}}, [eve]) == []
    assert checks.aggregate_failures({eve.name: {"trials": 4000, "abort_step2": 3600}}, [eve])

    tp2 = _shape("tp2_intercept.v1")
    records = {"attack_bits_guessed": 8000, "attack_legit_bits_guessed": 8000, "attack_legit_bits_correct": 4000}
    assert checks.aggregate_failures({tp2.name: dict(records, attack_bits_correct=6000)}, [tp2]) == []
    assert checks.aggregate_failures({tp2.name: dict(records, attack_bits_correct=4000)}, [tp2])


def test_checker_flags_a_jobs_mismatch():
    wl = workloads.Workload(workloads.CLI, 11)
    wl.setup()
    wl.reset_outputs()
    call = next(wl.cycles())[0]
    assert wl.run_call(call).error is None
    path = wl.dir / "out" / f"{call.index}.json"
    written = path.read_text()

    verdict = run.Verdict()
    run.check_calls(wl, [workloads.Outcome(call, 0.0)], verdict, {})
    assert verdict.failed == 0, verdict.messages

    doc = json.loads(written)
    doc["counters"]["x_check_rounds"] = doc["counters"].get("x_check_rounds", 0) + 1
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    verdict = run.Verdict()
    run.check_calls(wl, [workloads.Outcome(call, 0.0)], verdict, {})
    assert verdict.failed == 1 and "jobs=1" in verdict.messages[0]

    scenario = harness.scenario_from_config(json.loads(wl.config_paths[call.shape.name].read_text()))
    assert checks.jobs_mismatch(harness.run_scenario(scenario, jobs=2).to_json().encode(), wl.reference_output(call)) == []
