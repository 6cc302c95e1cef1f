"""The block engine against the per-trial program: for every attack shape
below, its counters are exactly the summed counters that the per-trial
program, since deleted for attacks, gave it, zero-valued keys included,
kept as goldens in ``tests/data/golden/engine_counters.json``.  On honest
shapes it counts and renders every trial as ``protocol``'s per-trial
program does.  Its one measurement is also held against a ``GhzRegister``
per row, call by call.

Regenerate the goldens, from the engine, only for a deliberate draw-order
change; a redrawn case keeps its trial and the output it sets::

    PYTHONPATH=src python tests/test_block.py
"""

import importlib.util
import json
import random
import sys
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim import block, harness
from qpcsim.adversaries import (KIND_EVE, KIND_PARTICIPANT_INFER, KIND_POSITION_TAMPER, KIND_TP1_FAKE_RESULT,
                                KIND_TP1_FAKE_STATE, KIND_TP2_FAKE_RESULT, KIND_TP2_INTERCEPT, KINDS, POLICY_PAIRED,
                                POLICY_RANDOM)
from qpcsim.errors import ConfigError
from qpcsim.ghz import HELD, GhzRegister, GhzSpec, ghz_from_index
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, TrialSeeds, _extract, run_trial
from qpcsim.stream import FETCH_WORDS, Rows, Stream
from qpcsim.suites import _SCENARIOS
from test_golden import _stats_cases

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "tests" / "data" / "golden" / "engine_counters.json"

COVERED = ("eve_l1", "eve_l5", "eve_l10", "eve_l20", "tp1_flip", "tp2_flip", "baseline_flip", "fake_c4", "fake_c8",
           "fake_c16", "strangers", "acquainted", "tamper_l1", "tamper_l4", "tamper_l8", "tamper_relay", "infer",
           "infer_counterfactual", "tp2_intercept")


def _scalar(scenario, trials):
    """The summed counters of honest ``trials``, each run by the per-trial program."""
    seeds, totals = TrialSeeds(scenario.seed), {}
    for trial in trials:
        _extract(harness._honest_trial(scenario, trial, seeds), totals)
    return totals


def _engine(scenario, trials):
    """The engine's counters of ``trials``."""
    seeds = TrialSeeds(scenario.seed)
    return block.decide(scenario, scenario.validate(), trials, partial(harness._bit_generator, seeds))


# ---------------------------------------------------------------------------
# The golden cases
# ---------------------------------------------------------------------------


# Every golden stats case with an adversary.
_GOLDEN_ATTACKS = sorted(set(_stats_cases()) - {"proposed_none", "zhang_none", "zhang_check2"})
_ATTACK_CONFIGS = sorted(path.stem for path in CONFIGS.glob("*.json") if path.stem != "honest")
_LARGER = {
    # 120 of 123 registers checked: the positions' sample is nearly the population.
    "baseline_fake_c120": Scenario(protocol="zhang_baseline", n=2, m=3, check_rounds=120, decoy_count=5, seed=41,
                                   adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {})),
    # Every one of 40 rounds tampered: the rounds' sample is the whole population.
    "tamper_c40": Scenario(n=3, m=40, check_rounds=40, decoy_count=3, seed=41,
                           adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 40})),
}
# 3 * (8 registers + 2 decoys) = 30 slots a trial; a tolerated tap lets
# trials with disturbed decoys reach the later steps and the victim's coins.
_SPLIT = Scenario(n=3, m=4, decoy_count=2, decoy_tolerance=1, seed=23,
                  adversary=AdversarySpec(KIND_EVE, {"links": [1, 3], "victim": 1}))
_FAKE_ZEROS = AdversarySpec(KIND_TP1_FAKE_STATE, {})
_FETCHED = {
    "fake_c150": Scenario(n=2, m=150, check_rounds=150, decoy_count=0, seed=5, adversary=_FAKE_ZEROS),
    "tamper_c100": Scenario(n=2, m=100, check_rounds=100, decoy_count=0, seed=5,
                            adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 100})),
    "baseline_fake_c380": Scenario(protocol="zhang_baseline", n=2, m=1, check_rounds=380, seed=5,
                                   adversary=_FAKE_ZEROS),
    # 384 secret bits, 127 position draws, 64 bases and 384 fair bits.
    "fake_n6_c64": Scenario(n=6, m=64, check_rounds=64, decoy_count=0, seed=5, adversary=_FAKE_ZEROS),
    # 128 secret bits, 128 registers, a run of 191 draws, 192 bases and
    # the read-ahead of 192 + 64 bits.
    "eve_l64": Scenario(n=2, m=64, decoy_count=64, seed=5, adversary=AdversarySpec(KIND_EVE, {"links": [1]})),
}
# With every round checked the state check aborts nearly every trial
# (1 - (3/4)^16 of the fake preparations, 1 - 2^-8 of the tampered runs).
_FAKE = Scenario(n=3, m=16, check_rounds=16, decoy_count=2, trials=1, seed=31,
                 adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {}))
_TAMPER = Scenario(n=3, m=8, check_rounds=8, decoy_count=2, trials=1, seed=31,
                   adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 8}))
# Link 2 is the first tapped one.  Its two decoys pass 9/16 of the trials
# on to link 3, the check positions, the fourth run (links 1 and 3 are
# consumed, link 2 is drawn), and on to TP2's coins, so a redraw in link 1,
# in link 2's placement or after them moves what a passing trial counts.
# With 16 decoys, 1 - (3/4)^16 of the trials would abort at link 2 whatever
# its placement drew, and a placement redraw the engine skipped would go unseen.
_TP2 = Scenario(n=3, m=4, decoy_count=2, trials=1, seed=31,
                adversary=AdversarySpec(KIND_TP2_INTERCEPT, {"links": [2], "victim": 1}))
# Each a trial of 40 whose one output, in the draw named, is set to 0 where
# Lemire's rule redraws it (each golden holds the trial and the output).
_REDRAWN = {
    "decoy_run": _FAKE,  # the consumed run of every link's decoy draws
    "positions_run": _FAKE,  # the check positions' sample
    "rounds_run": _TAMPER,  # the tamperer's sample of rounds
    "target_below": _TAMPER,  # one tampered round's target, a `below`
    "consumed_before_tap": _TP2,  # link 1's consumed run, before the tapped link 2
    "tapped_placement": _TP2,  # the tapped link's decoy placement, in the run of link 2 after link 1's
    "positions_after_tap": _TP2,  # the check positions' sample after a tap and the consumed link 3
}


def _random_spec(draw, n):
    return {"q": "0" + "".join(draw.choice("01") for _ in range(n - 1)), "delta": draw.randint(0, 1)}


def _random_attack(draw):
    """One attack shape of any kind, drawn by ``draw`` (a ``random.Random``)
    from the space the engine runs: either protocol and variant, any sizes,
    tolerances and secret policy, several tapped links, repeats included,
    and any victim, pairs, tamper policy and fixed preparation."""
    baseline = draw.random() < 0.3
    n = 2 if baseline else draw.randint(2, 6)
    m = draw.randint(1, 8)
    c = draw.randint(0, m + 2 if baseline else m)
    l = draw.randint(0, 12)
    tolerance = draw.randint(0, 3)
    kinds = [KIND_TP1_FAKE_RESULT, KIND_PARTICIPANT_INFER, KIND_TP1_FAKE_STATE, KIND_EVE]
    if not baseline:  # the kinds that attack as TP2 or on the broadcast
        kinds += [KIND_TP2_FAKE_RESULT, KIND_POSITION_TAMPER, KIND_TP2_INTERCEPT]
    kind = draw.choice(kinds)
    if kind in (KIND_TP1_FAKE_RESULT, KIND_TP2_FAKE_RESULT):
        pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        params = {"pairs": "all" if draw.random() < 0.5 else draw.sample(pairs, draw.randint(1, len(pairs)))}
    elif kind == KIND_PARTICIPANT_INFER:
        attacker, victim = draw.sample(range(1, n + 1), 2)
        params = {"attacker": attacker, "victim": victim, "counterfactual": draw.random() < 0.5}
    elif kind == KIND_POSITION_TAMPER:
        params = {"count": draw.randint(0, c + 1), "policy": draw.choice([POLICY_PAIRED, POLICY_RANDOM])}
        if params["policy"] == POLICY_PAIRED and draw.random() < 0.5:
            params["pair"] = [_random_spec(draw, n), _random_spec(draw, n)]
    elif kind == KIND_TP1_FAKE_STATE:
        params = {}
        if draw.random() < 0.5:
            params["true_state"] = _random_spec(draw, n)
        if draw.random() < 0.5:
            params["claimed"] = _random_spec(draw, n)
    else:
        l = draw.randint(1, 12)
        params = {"links": [draw.randint(1, n) for _ in range(draw.randint(1, n + 1))]}  # repeats included
        if draw.random() < 0.7:
            params["victim"] = draw.randint(1, n)
        tolerance = draw.randint(0, l + 1)
    policy = draw.choice(harness.SECRET_POLICIES)
    values = [[draw.randint(0, 1) for _ in range(m)] for _ in range(n)] if policy == "explicit" else None
    scenario = Scenario(
        protocol="zhang_baseline" if baseline else "proposed", n=n, m=m, check_rounds=c, decoy_count=l,
        decoy_tolerance=tolerance, adversary=AdversarySpec(kind, params),
        variant="classical_broadcast" if baseline else draw.choice(["classical_broadcast", "tp2_relay"]),
        announce_r_vectors=not baseline and draw.random() < 0.5,
        secrets=SecretsSpec(policy, values), seed=draw.randint(0, 2**40),
    )
    try:
        scenario.validate()
    except ConfigError:  # too few distinct secrets to draw them unequal
        scenario = replace(scenario, secrets=SecretsSpec("uniform"))
    start = draw.randint(0, 200)
    return scenario, start, start + draw.randint(1, 120)


def _golden_cases():
    """Every golden case by name: a scenario, and the trials start..stop it counts."""
    cases = {}
    for key in COVERED:
        offset, template = _SCENARIOS[key]
        scenario = replace(template, seed=1000 * 20 + offset)
        # A share from 0, and one that starts and ends inside 64-trial chunks of TrialSeeds.
        cases[f"battery_{key}"] = (scenario, 0, 200)
        cases[f"battery_{key}_inner"] = (scenario, 37, 171)
    for name in _GOLDEN_ATTACKS:
        scenario = harness.scenario_from_config(_stats_cases()[name])
        cases[f"golden_{name}"] = (replace(scenario, seed=scenario.seed + 1), 5, 300)
    for config in _ATTACK_CONFIGS:
        cases[f"config_{config}"] = (harness.scenario_from_config(json.loads((CONFIGS / f"{config}.json").read_text())),
                                     0, 400)
    for name, scenario in _LARGER.items():
        cases[f"larger_{name}"] = (scenario, 0, 200)
    # A fixed preparation, read by a block of _ROWS trials that spans nine
    # 64-trial chunks of TrialSeeds, and by a shorter last block.
    offset, template = _SCENARIOS["fake_c8"]
    cases["chunks_fake_c8"] = (replace(template, seed=1000 * 23 + offset), 37, 600)
    cases["split"] = (_SPLIT, 0, 64)
    cases["split_inner"] = (_SPLIT, 37, 171)
    for name, scenario in _FETCHED.items():
        cases[f"fetch_{name}"] = (scenario, 3, 70)
    for name, scenario in _REDRAWN.items():
        cases[f"redraw_{name}"] = (scenario, 0, 40)
    draw = random.Random(36)
    for i in range(60):
        cases[f"random_{i:02d}"] = _random_attack(draw)
    return cases


_CASES = _golden_cases()


@lru_cache(maxsize=None)
def _goldens():
    return json.loads(GOLDEN.read_text())


def _golden(case):
    """Golden case ``case``: the counters the per-trial program gave, with
    the scenario and trials that gave them, as they are named here."""
    scenario, start, stop = _CASES[case]
    entry = _goldens()[case]
    assert entry["config"] == json.loads(json.dumps(scenario.to_config())) and entry["trials"] == [start, stop]
    return entry


def _assert_golden(case):
    """``_run_block`` counts golden case ``case`` as the per-trial program did."""
    scenario, start, stop = _CASES[case]
    assert harness._run_block(scenario, scenario.validate(), start, stop) == _golden(case)["counters"]


def test_every_golden_case_has_its_counters():
    assert sorted(_goldens()) == sorted(_CASES)


@pytest.mark.parametrize("key", COVERED)
def test_covered_battery_scenarios_count_as_the_scalar_trial(key):
    _assert_golden(f"battery_{key}")
    _assert_golden(f"battery_{key}_inner")


@pytest.mark.parametrize("name", _GOLDEN_ATTACKS)
def test_covered_golden_scenarios_count_as_the_scalar_trial(name):
    # Trials 0..29 at the golden's own seed are pinned by its stats file.
    _assert_golden(f"golden_{name}")


@pytest.mark.parametrize("config", _ATTACK_CONFIGS)
def test_the_shipped_attack_configs_count_as_the_scalar_trial(config):
    _assert_golden(f"config_{config}")


@pytest.mark.parametrize("name", sorted(_LARGER))
def test_larger_shapes_are_decided_as_the_scalar_trial(name):
    _assert_golden(f"larger_{name}")


def _benchmark_scenarios(monkeypatch, shapes_name):
    """The benchmark's scenarios of one shape table, by name.  The workload
    table is loaded from its file; its dataclasses look their module up in
    sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    shapes = getattr(workloads, shapes_name)
    return {shape.name: harness.scenario_from_config(workloads._config_doc(shape, 1, 0)) for shape in shapes}


def test_every_attack_and_redrawn_secret_runs_in_the_engine(monkeypatch):
    # Each battery, benchmark and golden shape, with its secrets and with
    # forced_unequal ones: attacks and redrawn secrets never reach the
    # per-trial program, and honest trials with secrets drawn once always do.
    def unreached(*args):
        raise AssertionError("a trial reached the program that was not to run it")

    scenarios = [scenario for _, scenario in _SCENARIOS.values()]
    scenarios += [harness.scenario_from_config(doc) for doc in _stats_cases().values()]
    for shapes_name in ("ATTACK_SHAPES", "HONEST_SHAPES"):
        scenarios += _benchmark_scenarios(monkeypatch, shapes_name).values()
    scenarios += [replace(scenario, secrets=SecretsSpec("forced_unequal")) for scenario in scenarios]
    for scenario in scenarios:
        honest = scenario.adversary.kind == "none" and scenario.secrets.policy != "forced_unequal"
        with monkeypatch.context() as patch:
            patch.setattr(*((block, "decide") if honest else (harness, "_honest_trial")), unreached)
            assert harness._run_block(scenario, scenario.validate(), 0, 3)["trials"] == 3


def test_every_battery_golden_and_benchmark_shape_runs_in_full_blocks(monkeypatch):
    scenarios = [scenario for _, scenario in _SCENARIOS.values()]
    scenarios += [harness.scenario_from_config(doc) for doc in _stats_cases().values()]
    for shapes_name in ("ATTACK_SHAPES", "HONEST_SHAPES"):
        scenarios += _benchmark_scenarios(monkeypatch, shapes_name).values()
    assert {block._Program(scenario, scenario.validate()).rows for scenario in scenarios} == {block._ROWS}


def test_a_full_block_across_many_seed_chunks_counts_as_the_scalar_trial():
    scenario, start, stop = _CASES["chunks_fake_c8"]
    assert block._Program(scenario, scenario.validate()).rows == block._ROWS < stop - start
    _assert_golden("chunks_fake_c8")


def test_a_fixed_preparation_is_held_as_one_row():
    _, template = _SCENARIOS["tamper_l4"]
    program = block._Program(template, template.validate())
    for states in program.fixed:  # the true and the claimed states
        for a in states:
            assert a.shape[0] == block._ROWS and a.strides[0] == 0 and not a.flags.writeable


def _assert_registers_of(states):
    registers = block._registers(states)
    ghz = [isinstance(state, GhzSpec) for state in states]
    assert registers.q[0].tolist() == [list(s.q if g else s) for s, g in zip(states, ghz)]
    assert registers.delta[0].tolist() == [s.delta if g else 0 for s, g in zip(states, ghz)]
    assert registers.product[0].tolist() == [not g for g in ghz]
    for a in registers:
        assert a.shape[0] == block._ROWS and a.strides[0] == 0 and not a.flags.writeable
    return registers


_SPECS = [GhzSpec((0, a, b), d) for a in (0, 1) for b in (0, 1) for d in (0, 1)]


def test_a_preparation_is_found_by_its_values():
    block._registers.cache_clear()
    kept = tuple(_SPECS[:3]) + ((1, 0, 1),)
    equal = tuple(GhzSpec(s.q, s.delta) for s in _SPECS[:3]) + ((1, 0, 1),)  # value-equal, other objects
    assert equal == kept and equal is not kept and equal[0] is not kept[0]
    registers = _assert_registers_of(kept)
    assert all(a is b for a, b in zip(_assert_registers_of(equal), registers))
    assert block._registers.cache_info().currsize == 1


def test_each_preparation_gets_its_own_registers_within_the_cache_bound():
    block._registers.cache_clear()
    specs = _SPECS
    registers = _assert_registers_of(tuple(specs[:3]) + ((1, 0, 1),))
    # Every other preparation gets its own registers, and the cache keeps
    # at most 8 of them.
    for i in range(24):
        other = _assert_registers_of(tuple(specs[(i + k) % 8] for k in range(i % 5 + 1)) + ((i % 2, 1, 0),))
        assert not any(a is b for a, b in zip(other, registers))
        assert block._registers.cache_info().currsize <= 8


@pytest.mark.parametrize("rows", [1, 8])
def test_a_shape_split_into_smaller_blocks_counts_as_the_scalar_trial(monkeypatch, rows):
    monkeypatch.setattr(block, "_BLOCK_SLOTS", 30 * rows + 29)
    assert block._Program(_SPLIT, _SPLIT.validate()).rows == rows
    _assert_golden("split")
    _assert_golden("split_inner")


@pytest.mark.parametrize("key", COVERED)
def test_covered_battery_scenarios_split_into_blocks_of_8_count_as_the_scalar_trial(monkeypatch, key):
    # Every adversary kind's program, run 8 trials a block: the share starts
    # and ends inside blocks, and crosses two 64-trial chunks of TrialSeeds.
    scenario = _CASES[f"battery_{key}_inner"][0]
    program = block._Program(scenario, scenario.validate())
    slots = program.n * (program.total + program.l)
    monkeypatch.setattr(block, "_BLOCK_SLOTS", 9 * slots - 1)
    assert block._Program(scenario, scenario.validate()).rows == 8
    _assert_golden(f"battery_{key}_inner")


@pytest.mark.parametrize("scenario", [
    *(_SCENARIOS[f"honest_n{n}"][1] for n in (2, 3, 4, 5)),
    Scenario(n=3, m=4, seed=9, secrets=SecretsSpec("forced_equal")),
    Scenario(n=3, m=4, seed=9, secrets=SecretsSpec("explicit", [[0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])),
], ids=["honest_n2", "honest_n3", "honest_n4", "honest_n5", "forced_equal", "explicit"])
def test_honest_shapes_are_decided_by_the_engine_as_the_scalar_trial(scenario):
    # Honest runs stay on the per-trial program (ROADMAP item 21, step a),
    # but the engine already counts them exactly, zero-valued keys included,
    # over two blocks of trials.
    trials = range(3, 3 + block._ROWS + 88)
    assert block.decide(scenario, scenario.validate(), trials,
                        partial(harness._bit_generator, TrialSeeds(scenario.seed))) == _scalar(scenario, trials)


@pytest.mark.parametrize("case", [case for case in _CASES if case.startswith("random_")])
def test_random_attack_shapes_count_as_the_per_trial_program(case):
    _assert_golden(case)


def test_the_random_attack_shapes_reach_every_move():
    shapes = [scenario for case, (scenario, _, _) in _CASES.items() if case.startswith("random_")]
    params = [scenario.adversary.params for scenario in shapes]
    assert {scenario.adversary.kind for scenario in shapes} == set(KINDS) - {"none"}
    assert {scenario.protocol for scenario in shapes} == {"proposed", "zhang_baseline"}
    assert {scenario.secrets.policy for scenario in shapes} == set(harness.SECRET_POLICIES)
    assert any(scenario.variant == "tp2_relay" and scenario.adversary.kind == KIND_POSITION_TAMPER
               for scenario in shapes)
    assert any(p.get("policy") == POLICY_RANDOM for p in params)
    assert any(len(set(p.get("links", ()))) > 1 for p in params)
    assert any(scenario.decoy_tolerance and "links" in scenario.adversary.params for scenario in shapes)


# ---------------------------------------------------------------------------
# Random honest shapes
# ---------------------------------------------------------------------------


@st.composite
def _honest_scenarios(draw):
    baseline = draw(st.booleans())
    n = 2 if baseline else draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    policy = draw(st.sampled_from(["explicit", "uniform", "forced_equal"]))
    values = [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(n)] if policy == "explicit" else None
    return Scenario(
        protocol="zhang_baseline" if baseline else "proposed", n=n, m=m,
        check_rounds=draw(st.integers(0, m + 2 if baseline else m)), decoy_count=draw(st.integers(0, 40)),
        decoy_tolerance=draw(st.integers(0, 3)),
        variant="classical_broadcast" if baseline else draw(st.sampled_from(["classical_broadcast", "tp2_relay"])),
        announce_r_vectors=False if baseline else draw(st.booleans()),
        secrets=SecretsSpec(policy, values), seed=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=100, deadline=None)
@given(scenario=_honest_scenarios(), start=st.integers(0, 200), length=st.integers(1, 100))
def test_random_honest_shapes_count_and_render_as_the_per_trial_program(scenario, start, length):
    trials = range(start, start + length)
    assert _engine(scenario, trials) == _scalar(scenario, trials)
    seeds = TrialSeeds(scenario.seed)
    for trial in trials[:4]:
        assert run_trial(scenario, trial).to_json() == \
            harness._honest_trial(scenario, trial, seeds).to_json()


# ---------------------------------------------------------------------------
# The block's measurement against a GhzRegister per row, call by call
# ---------------------------------------------------------------------------


def _random_block(plan, count, n, total, photons):
    """``count`` trials of ``total`` random registers, each a GHZ state or a
    product state, and ``photons`` decoys: the block's ``_Trials``, and a
    ``GhzRegister`` and a ``Stream`` per row that hold and draw the same."""
    product = plan.integers(0, 2, size=(count, total)).astype(bool)
    specs = [[ghz_from_index(int(i), n) for i in row] for row in plan.integers(1, 2**n + 1, size=(count, total))]
    q = np.where(product[..., None], plan.integers(0, 2, size=(count, total, n)),
                 [[spec.q for spec in row] for row in specs]).astype(np.int8)
    delta = np.where(product, 0, [[spec.delta for spec in row] for row in specs]).astype(np.int8)
    states = block._States(q, delta, product)
    seeds = plan.integers(0, 2**63, size=count).tolist()
    trials = block._Trials(Rows(np.random.PCG64(seed) for seed in seeds), np.zeros((count, n, 1), dtype=np.int8),
                           states, states, photons)
    decoys = plan.integers(0, 4, size=(count, photons))
    trials.slot[:, n * total :] = decoys
    rows = []
    for row, seed in enumerate(seeds):
        registers = GhzRegister.__new__(GhzRegister)  # a product register's branch is set from the start
        registers._hold(list(map(tuple, q[row].tolist())), [0 if p else None for p in product[row].tolist()],
                        delta[row].tolist())
        registers.add_photons(decoys[row].tolist())
        rows.append((registers, Stream(np.random.PCG64(seed))))
    return trials, rows


def _register_id(n, total, at):
    """A row's ``GhzRegister`` id of the block's id ``at``: particle k of
    register r is ``(k - 1) * total + r`` in the block and ``r * n + k - 1``
    in the register; photons follow the particles in both."""
    return at % total * n + at // total if at < n * total else at


def _random_call(plan, trials, n, total):
    """A random ``measure`` call's ids and bases, a row per trial, and
    whether it forwards: a tap, which measures particle k of every register
    in register order, in random bases, with decoys at random slots; a step
    on some registers' held particles, each register's ascending and in
    one basis, with photons among them; or photons alone.  None if no call
    of the kind drawn is left."""
    count, width = trials.slot.shape
    held = trials.slot[:, : n * total].reshape(count, n, total) == HELD
    kind = int(plan.integers(0, 3))
    links = np.flatnonzero(held.all(axis=(0, 2)))
    if kind == 0:
        if not links.size:
            return None
        k, decoys = int(plan.choice(links)), int(plan.integers(0, width - n * total + 1))
        ids = np.empty((count, total + decoys), dtype=np.int64)
        for row in ids:
            decoy = np.zeros(total + decoys, dtype=bool)
            decoy[plan.choice(total + decoys, decoys, replace=False)] = True
            row[decoy] = np.sort(plan.choice(np.arange(n * total, width), decoys, replace=False))
            row[~decoy] = k * total + np.arange(total)
        return ids, plan.integers(0, 2, size=ids.shape), True
    counts = held.sum(axis=1)  # (trial, register)
    size = groups = 0
    if kind == 1 and counts.max(axis=1).min():
        size = int(plan.integers(1, counts.max(axis=1).min() + 1))
        groups = int(plan.integers(1, (counts >= size).sum(axis=1).min() + 1))
    # Photons: the decoys, and what a tap forwarded in a particle's place.
    free = [np.flatnonzero(slots >= 0) for slots in trials.slot]
    extra = int(plan.integers(0, min(map(len, free)) + 1))
    if not groups + extra:
        return None
    ids, bases = [], []
    for row in range(count):
        row_ids, row_bases = [], []
        for r in [r for r in plan.permutation(total) if counts[row, r] >= size][:groups]:
            row_ids += (np.sort(plan.choice(np.flatnonzero(held[row, :, r]), size, replace=False)) * total + r).tolist()
            row_bases += [int(plan.integers(0, 2))] * size
        for at in plan.choice(free[row], extra, replace=False).tolist():
            place = int(plan.integers(0, len(row_ids) + 1))
            row_ids.insert(place, at)
            row_bases.insert(place, int(plan.integers(0, 2)))
        ids.append(row_ids)
        bases.append(row_bases)
    return np.array(ids), np.array(bases), False


def test_measure_draws_as_a_register_per_row_call_by_call():
    # Each call's outcomes, each register's branch, parity and particles
    # held, every slot, and the draws after the calls, against a
    # ``GhzRegister.measure`` per row.
    plan = np.random.default_rng(np.random.SeedSequence(entropy=7717))
    calls = {"tap": 0, "step": 0, "photons": 0}
    for _ in range(60):
        count, n, total, photons = (int(plan.integers(1, 6)), int(plan.integers(2, 6)), int(plan.integers(1, 7)),
                                    int(plan.integers(0, 7)))
        trials, rows = _random_block(plan, count, n, total, photons)
        for _ in range(10):
            call = _random_call(plan, trials, n, total)
            if call is None:
                continue
            ids, bases, forward = call
            calls["tap" if forward else "photons" if (ids >= n * total).all() else "step"] += 1
            out = trials.measure(ids, bases, forward)
            for row, (registers, stream) in enumerate(rows):
                ref_ids = [_register_id(n, total, at) for at in ids[row].tolist()]
                assert out[row].tolist() == registers.measure(ref_ids, bases[row].tolist(), stream, forward)
                assert [None if b < 0 else b for b in trials.branch[row].tolist()] == registers.branch
                assert trials.parity[row].tolist() == registers.parity
                assert trials.held[row].tolist() == [registers.slots[r * n : (r + 1) * n].count(HELD)
                                                     for r in range(total)]
                assert trials.slot[row].tolist() == [registers.slots[_register_id(n, total, at)]
                                                     for at in range(trials.slot.shape[1])]
        next_draws = trials.draws.bits(3, 32)
        for row, (_, stream) in enumerate(rows):
            assert next_draws[row].tolist() == stream.bits(3, 32)
    # Every kind of call is reached, so the comparison is not vacuous.
    assert calls["tap"] > 30 and calls["step"] > 150 and calls["photons"] > 50


def test_an_empty_measure_draws_nothing():
    # A zero-decoy check measures no id: each row's outcomes are empty, and
    # its slots and draws are left as they were.
    plan = np.random.default_rng(np.random.SeedSequence(entropy=7718))
    trials, rows = _random_block(plan, 3, 3, 4, 2)
    slot = trials.slot.copy()
    out = trials.measure(np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64))
    assert out.shape == (3, 0)
    assert (trials.slot == slot).all()
    next_draws = trials.draws.bits(3, 32)
    for row, (_, stream) in enumerate(rows):
        assert next_draws[row].tolist() == stream.bits(3, 32)


# ---------------------------------------------------------------------------
# Lemire redraws, each pinned on one trial, and reads past one fetch
# ---------------------------------------------------------------------------


class _Doctored:
    """A trial's bit generator with some of its 32-bit outputs, by index,
    replaced: both engines read the same doctored stream."""

    def __init__(self, bit_generator, replaced):
        self._source, self._replaced, self._read = bit_generator, replaced, 0

    def random_raw(self, size):
        raw = self._source.random_raw(size)
        halves = raw.view("<u4")
        for at, value in self._replaced.items():
            if 0 <= at - self._read < len(halves):
                halves[at - self._read] = value
        self._read += len(halves)
        return raw


def _doctor(monkeypatch, trial, replaced):
    """Make trial ``trial``'s generator, for both engines, read ``replaced``."""
    plain = harness._bit_generator

    def doctored(seeds, at):
        source = plain(seeds, at)
        return _Doctored(source, replaced) if at == trial else source

    monkeypatch.setattr(harness, "_bit_generator", doctored)


@pytest.mark.parametrize("name", sorted(_REDRAWN))
def test_a_trial_with_a_lemire_redraw_is_decided_in_the_engine(monkeypatch, name):
    entry = _golden(f"redraw_{name}")
    _doctor(monkeypatch, entry["trial"], {int(at): value for at, value in entry["replaced"].items()})
    redraw, redraws = Rows._redraw, []
    monkeypatch.setattr(Rows, "_redraw", lambda self, row, *args: redraws.append(row) or redraw(self, row, *args))
    assert _engine(_REDRAWN[name], range(40)) == entry["counters"]
    assert redraws


class _Counted:
    """A trial's bit generator that records how many 64-bit outputs are
    fetched from it."""

    def __init__(self, bit_generator, fetched):
        self._source, self._fetched = bit_generator, fetched

    def random_raw(self, size):
        self._fetched.append(size)
        return self._source.random_raw(size)


@pytest.mark.parametrize("name", sorted(_FETCHED))
def test_a_shape_that_reads_past_one_fetch_is_decided_in_the_engine(name):
    scenario, start, stop = _CASES[f"fetch_{name}"]
    strategy, seeds, fetched = scenario.validate(), TrialSeeds(scenario.seed), []
    counters = block.decide(scenario, strategy, range(start, stop),
                            lambda trial: _Counted(harness._bit_generator(seeds, trial), fetched))
    assert counters == _golden(f"fetch_{name}")["counters"]
    # Some row fetched a second time, and no fetch took fewer than FETCH_WORDS
    # words (tests/test_stream.py pins how many more).
    assert len(fetched) > 67 and min(fetched) == FETCH_WORDS


def _write_goldens():
    """Each golden case's counters, from the engine."""
    entries = _goldens()
    for case, (scenario, start, stop) in _CASES.items():
        with pytest.MonkeyPatch.context() as patch:
            if case.startswith("redraw_"):
                _doctor(patch, entries[case]["trial"], {int(at): v for at, v in entries[case]["replaced"].items()})
            entries[case].update(config=scenario.to_config(), trials=[start, stop],
                                 counters=harness._run_block(scenario, scenario.validate(), start, stop))
    # A case a line.
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(case)}: {json.dumps(entries[case], sort_keys=True)}"
                                          for case in sorted(entries)) + "\n}\n")


if __name__ == "__main__":
    _write_goldens()
