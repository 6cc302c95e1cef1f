"""The block engine against the scalar trial: for every scenario it covers,
its counters are exactly the summed ``_extract(run_trial(...))`` counters,
zero-valued keys included, and no trial of it goes through ``run_trial``.
Its one measurement is also held against a ``GhzRegister`` per row, call by
call."""

import importlib.util
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim import block, harness
from qpcsim.adversaries import (KIND_EVE, KIND_PARTICIPANT_INFER, KIND_POSITION_TAMPER, KIND_TP1_FAKE_RESULT,
                                KIND_TP1_FAKE_STATE, KIND_TP2_FAKE_RESULT, KIND_TP2_INTERCEPT, POLICY_PAIRED,
                                POLICY_RANDOM)
from qpcsim.ghz import HELD, GhzRegister, ghz_from_index
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, TrialSeeds, _extract, run_trial
from qpcsim.stream import FETCH_WORDS, Rows, Stream
from qpcsim.suites import _SCENARIOS
from test_golden import _stats_cases

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

COVERED = ("eve_l1", "eve_l5", "eve_l10", "eve_l20", "tp1_flip", "tp2_flip", "baseline_flip", "fake_c4", "fake_c8",
           "fake_c16", "strangers", "acquainted", "tamper_l1", "tamper_l4", "tamper_l8", "tamper_relay", "infer",
           "infer_counterfactual", "tp2_intercept")


def _scalar(scenario, trials):
    """The summed counters of ``trials``, each run by ``run_trial``."""
    strategy, seeds = scenario.strategy(), TrialSeeds(scenario.seed)
    totals = {}
    for trial in trials:
        _extract(run_trial(scenario, strategy, trial, seeds), totals)
    return totals


def _engine(scenario, trials):
    """The engine's counters of ``trials``."""
    seeds = TrialSeeds(scenario.seed)
    return block.decide(scenario, scenario.strategy(), trials, partial(harness._bit_generator, seeds))


def _unreached(*args):
    raise AssertionError("a covered trial went through run_trial")


def _assert_same(scenario, start, stop):
    """``_run_block`` counts trials start..stop as the scalar trial does,
    with ``run_trial`` out of its reach."""
    assert block.covers(scenario, scenario.strategy())
    expected = _scalar(scenario, range(start, stop))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_trial", _unreached)
        assert harness._run_block(scenario, scenario.strategy(), start, stop) == expected


def test_the_covered_battery_scenarios():
    # Every scenario with an adversary; the honest ones keep the per-trial loop.
    covered = {key for key, (_, scenario) in _SCENARIOS.items() if block.covers(scenario, scenario.strategy())}
    assert covered == set(COVERED)


@pytest.mark.parametrize("key", COVERED)
def test_covered_battery_scenarios_count_as_the_scalar_trial(key):
    offset, template = _SCENARIOS[key]
    scenario = replace(template, seed=1000 * 20 + offset)
    # A share from 0, and one that starts and ends inside 64-trial chunks of TrialSeeds.
    _assert_same(scenario, 0, 200)
    _assert_same(scenario, 37, 171)


# Every golden with an adversary, but those whose secrets may be drawn again.
_GOLDEN_COVERED = sorted(set(_stats_cases()) - {"proposed_none", "zhang_none", "zhang_check2",
                                                "proposed_eve_tolerance_unequal",
                                                "proposed_tp1_fake_initial_state_unequal"})


@pytest.mark.parametrize("name", _GOLDEN_COVERED)
def test_covered_golden_scenarios_count_as_the_scalar_trial(name):
    scenario = harness.scenario_from_config(_stats_cases()[name])
    _assert_same(scenario, 0, scenario.trials)
    _assert_same(replace(scenario, seed=scenario.seed + 1), 5, 300)


@pytest.mark.parametrize("config", sorted(path.stem for path in CONFIGS.glob("*.json") if path.stem != "honest"))
def test_the_shipped_attack_configs_count_as_the_scalar_trial(config):
    scenario = harness.scenario_from_config(json.loads((CONFIGS / f"{config}.json").read_text()))
    _assert_same(scenario, 0, 400)


@pytest.mark.parametrize("scenario", [
    # 120 of 123 registers checked: the positions' sample is nearly the population.
    Scenario(protocol="zhang_baseline", n=2, m=3, check_rounds=120, decoy_count=5, seed=41,
             adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {})),
    # Every one of 40 rounds tampered: the rounds' sample is the whole population.
    Scenario(n=3, m=40, check_rounds=40, decoy_count=3, seed=41,
             adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 40})),
], ids=["baseline_fake_c120", "tamper_c40"])
def test_larger_shapes_are_decided_as_the_scalar_trial(scenario):
    assert _engine(scenario, range(200)) == _scalar(scenario, range(200))


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


def test_the_engine_covers_exactly_the_benchmark_shapes_it_serves(monkeypatch):
    # Any narrowing of the engine below the traffic attack_mix sends it fails here.
    def covered(scenarios):
        return {name for name, scenario in scenarios.items() if block.covers(scenario, scenario.strategy())}

    attacks = _benchmark_scenarios(monkeypatch, "ATTACK_SHAPES")
    assert covered(attacks) == set(attacks) and len(attacks) == 17
    assert covered(_benchmark_scenarios(monkeypatch, "HONEST_SHAPES")) == set()


def test_every_battery_golden_and_benchmark_shape_runs_in_full_blocks(monkeypatch):
    scenarios = [scenario for _, scenario in _SCENARIOS.values()]
    scenarios += [harness.scenario_from_config(doc) for doc in _stats_cases().values()]
    for shapes_name in ("ATTACK_SHAPES", "HONEST_SHAPES"):
        scenarios += _benchmark_scenarios(monkeypatch, shapes_name).values()
    assert {block._Program(scenario, scenario.strategy()).rows for scenario in scenarios} == {block._ROWS}


def test_a_full_block_across_many_seed_chunks_counts_as_the_scalar_trial():
    # A fixed preparation, read by a block of _ROWS trials that spans nine
    # 64-trial chunks of TrialSeeds, and by a shorter last block.
    offset, template = _SCENARIOS["fake_c8"]
    scenario = replace(template, seed=1000 * 23 + offset)
    assert block._Program(scenario, scenario.strategy()).rows == block._ROWS < 600 - 37
    _assert_same(scenario, 37, 600)


def test_a_fixed_preparation_is_held_as_one_row():
    _, template = _SCENARIOS["tamper_l4"]
    program = block._Program(template, template.strategy())
    for states in program.fixed:  # the true and the claimed states
        for a in states:
            assert a.shape[0] == block._ROWS and a.strides[0] == 0 and not a.flags.writeable


@pytest.mark.parametrize("rows", [1, 8])
def test_a_shape_split_into_smaller_blocks_counts_as_the_scalar_trial(monkeypatch, rows):
    # 3 * (8 registers + 2 decoys) = 30 slots a trial; a tolerated tap lets
    # trials with disturbed decoys reach the later steps and the victim's coins.
    scenario = Scenario(n=3, m=4, decoy_count=2, decoy_tolerance=1, seed=23,
                        adversary=AdversarySpec(KIND_EVE, {"links": [1, 3], "victim": 1}))
    monkeypatch.setattr(block, "_BLOCK_SLOTS", 30 * rows + 29)
    assert block._Program(scenario, scenario.strategy()).rows == rows
    _assert_same(scenario, 0, 64)
    _assert_same(scenario, 37, 171)


@pytest.mark.parametrize("key", COVERED)
def test_covered_battery_scenarios_split_into_blocks_of_8_count_as_the_scalar_trial(monkeypatch, key):
    # Every adversary kind's program, run 8 trials a block: the share starts
    # and ends inside blocks, and crosses two 64-trial chunks of TrialSeeds.
    offset, template = _SCENARIOS[key]
    scenario = replace(template, seed=1000 * 22 + offset)
    program = block._Program(scenario, scenario.strategy())
    slots = program.n * (program.total + program.l)
    monkeypatch.setattr(block, "_BLOCK_SLOTS", 9 * slots - 1)
    assert block._Program(scenario, scenario.strategy()).rows == 8
    _assert_same(scenario, 37, 171)


def test_the_engine_leaves_out_only_honest_runs_and_redrawn_secrets():
    fake = AdversarySpec(KIND_TP1_FAKE_STATE, {})
    eve = AdversarySpec(KIND_EVE, {"links": [1]})
    attacks = [
        Scenario(adversary=fake),
        # A decoy check that cannot abort: no decoys, or no more than it tolerates.
        Scenario(adversary=eve, decoy_count=0),
        Scenario(adversary=AdversarySpec(KIND_TP2_INTERCEPT, {"links": [1]}), decoy_count=2, decoy_tolerance=2),
        Scenario(adversary=eve, decoy_count=2, decoy_tolerance=3),
        Scenario(adversary=AdversarySpec(KIND_TP1_FAKE_RESULT, {})),
        Scenario(adversary=AdversarySpec(KIND_TP2_FAKE_RESULT, {"pairs": [[1, 3]]})),
        Scenario(protocol="zhang_baseline", n=2, adversary=AdversarySpec(KIND_TP1_FAKE_RESULT, {})),
        Scenario(adversary=AdversarySpec(KIND_PARTICIPANT_INFER, {"counterfactual": True})),
        Scenario(protocol="zhang_baseline", n=2, adversary=AdversarySpec(KIND_PARTICIPANT_INFER, {})),
        Scenario(adversary=fake, check_rounds=0),
        Scenario(protocol="zhang_baseline", n=2, adversary=fake),  # no check by default
        Scenario(adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 2}), variant="tp2_relay"),
        Scenario(adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 2, "policy": "random"})),
    ]
    for scenario in attacks:
        scenario.validate()
        assert block.covers(scenario, scenario.strategy()), scenario
    # Honest runs, under either protocol and any secrets, and every run
    # whose secrets may be drawn again.
    left_out = [Scenario(), Scenario(protocol="zhang_baseline", n=2, check_rounds=2),
                Scenario(secrets=SecretsSpec("forced_equal")), Scenario(secrets=SecretsSpec("forced_unequal"))]
    left_out += [replace(scenario, secrets=SecretsSpec("forced_unequal")) for scenario in attacks]
    for scenario in left_out:
        scenario.validate()
        assert not block.covers(scenario, scenario.strategy()), scenario


# ---------------------------------------------------------------------------
# Random covered shapes
# ---------------------------------------------------------------------------


@st.composite
def _spec(draw, n):
    return {"q": "0" + "".join(draw(st.sampled_from("01")) for _ in range(n - 1)), "delta": draw(st.integers(0, 1))}


@st.composite
def _covered_scenarios(draw):
    baseline = draw(st.booleans())
    n = 2 if baseline else draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    c = draw(st.integers(1, m + 2 if baseline else m))
    policy = draw(st.sampled_from([policy for policy in harness.SECRET_POLICIES if policy != "forced_unequal"]))
    values = [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(n)] if policy == "explicit" else None
    # Steps 6-7 run in the engine: the proposed protocol's variant and r
    # vectors are drawn too (a tamperer is covered on the broadcast only).
    variant, announce_r = "classical_broadcast", not baseline and draw(st.booleans())
    if baseline or draw(st.booleans()):
        params = {}
        if draw(st.booleans()):
            params["true_state"] = draw(_spec(n))
        if draw(st.booleans()):
            params["claimed"] = draw(_spec(n))
        adversary = AdversarySpec(KIND_TP1_FAKE_STATE, params)
        if not baseline:
            variant = draw(st.sampled_from(["classical_broadcast", "tp2_relay"]))
    else:
        params = {"count": draw(st.integers(0, c + 1)), "policy": "paired_specs"}
        if draw(st.booleans()):
            params["pair"] = [draw(_spec(n)), draw(_spec(n))]
        adversary = AdversarySpec(KIND_POSITION_TAMPER, params)
    return Scenario(
        protocol="zhang_baseline" if baseline else "proposed", n=n, m=m, check_rounds=c,
        decoy_count=draw(st.integers(0, 40)), variant=variant, announce_r_vectors=announce_r, adversary=adversary,
        secrets=SecretsSpec(policy, values), seed=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=200, deadline=None)
@given(scenario=_covered_scenarios(), start=st.integers(0, 200), length=st.integers(1, 150))
def test_random_covered_shapes_count_as_the_scalar_trial(scenario, start, length):
    scenario.validate()
    _assert_same(scenario, start, start + length)


@st.composite
def _intercept_scenarios(draw):
    baseline = draw(st.booleans())
    n = 2 if baseline else draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    l = draw(st.integers(1, 40))
    policy = draw(st.sampled_from([policy for policy in harness.SECRET_POLICIES if policy != "forced_unequal"]))
    values = [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(n)] if policy == "explicit" else None
    # Any tapped links, in any order and with repeats, as a config may list
    # them: the first tapped one may be the last link.
    params = {"links": draw(st.lists(st.integers(1, n), min_size=1, max_size=n + 1))}
    # Any victim or none, its link tapped or not: the attacker's coins are drawn in the engine.
    victim = draw(st.none() | st.integers(1, n))
    if victim is not None:
        params["victim"] = victim
    kind = KIND_EVE if baseline else draw(st.sampled_from([KIND_EVE, KIND_TP2_INTERCEPT]))
    return Scenario(
        protocol="zhang_baseline" if baseline else "proposed", n=n, m=m,
        check_rounds=draw(st.integers(0, m + 2 if baseline else m)), decoy_count=l,
        decoy_tolerance=draw(st.integers(0, l - 1)), adversary=AdversarySpec(kind, params),
        variant="classical_broadcast" if baseline else draw(st.sampled_from(["classical_broadcast", "tp2_relay"])),
        announce_r_vectors=False if baseline else draw(st.booleans()),
        secrets=SecretsSpec(policy, values), seed=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=100, deadline=None)
@given(scenario=_intercept_scenarios(), start=st.integers(0, 200), length=st.integers(1, 100))
def test_random_intercept_shapes_count_as_the_scalar_trial(scenario, start, length):
    scenario.validate()
    _assert_same(scenario, start, start + length)


@st.composite
def _any_kind_scenarios(draw):
    """The shapes no check need abort: verdict flips of any pairs, an
    inferring participant, a tamperer of either policy on either variant, a
    fake preparation with no check rounds, and taps whose decoy check
    tolerates every decoy."""
    baseline = draw(st.booleans())
    n = 2 if baseline else draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    c = draw(st.integers(0, m + 2 if baseline else m))
    l = draw(st.integers(0, 12))
    tolerance = draw(st.integers(0, 3))
    policy = draw(st.sampled_from([policy for policy in harness.SECRET_POLICIES if policy != "forced_unequal"]))
    values = [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(n)] if policy == "explicit" else None
    kinds = [KIND_TP1_FAKE_RESULT, KIND_PARTICIPANT_INFER, KIND_TP1_FAKE_STATE, KIND_EVE]
    if not baseline:  # the kinds that attack as TP2 or on the broadcast
        kinds += [KIND_TP2_FAKE_RESULT, KIND_POSITION_TAMPER, KIND_TP2_INTERCEPT]
    kind = draw(st.sampled_from(kinds))
    if kind in (KIND_TP1_FAKE_RESULT, KIND_TP2_FAKE_RESULT):
        pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        params = {"pairs": draw(st.just("all") | st.lists(st.sampled_from(pairs), min_size=1, unique_by=tuple))}
    elif kind == KIND_PARTICIPANT_INFER:
        attacker, victim = draw(st.permutations(range(1, n + 1)))[:2]
        params = {"attacker": attacker, "victim": victim, "counterfactual": draw(st.booleans())}
    elif kind == KIND_POSITION_TAMPER:
        params = {"count": draw(st.integers(0, c + 1)), "policy": draw(st.sampled_from([POLICY_PAIRED, POLICY_RANDOM]))}
    elif kind == KIND_TP1_FAKE_STATE:
        c = 0
        params = {"true_state": draw(_spec(n))} if draw(st.booleans()) else {}
    else:
        params = {"links": draw(st.lists(st.integers(1, n), min_size=1, max_size=n + 1))}  # repeats included
        victim = draw(st.none() | st.integers(1, n))
        if victim is not None:
            params["victim"] = victim
        tolerance = draw(st.integers(l, l + 2))
    return Scenario(
        protocol="zhang_baseline" if baseline else "proposed", n=n, m=m, check_rounds=c, decoy_count=l,
        decoy_tolerance=tolerance, adversary=AdversarySpec(kind, params),
        variant="classical_broadcast" if baseline else draw(st.sampled_from(["classical_broadcast", "tp2_relay"])),
        announce_r_vectors=False if baseline else draw(st.booleans()),
        secrets=SecretsSpec(policy, values), seed=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=200, deadline=None)
@given(scenario=_any_kind_scenarios(), start=st.integers(0, 200), length=st.integers(1, 100))
def test_random_shapes_of_every_kind_count_as_the_scalar_trial(scenario, start, length):
    scenario.validate()
    _assert_same(scenario, start, start + length)


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


class _Log(Stream):
    """A trial's stream that logs where each bounded draw starts, as an
    output index, and counts Lemire redraws."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.fetched, self.runs, self.belows, self.nexts = 0, [], [], 0

    def _refill(self, short):
        left = len(self._words) - self._at
        super()._refill(short)
        self.fetched += len(self._words) - left

    def position(self):
        return self.fetched - (len(self._words) - self._at)

    def _next(self):
        self.nexts += 1
        return super()._next()

    def run(self, bounds):
        self.runs.append((self.position(), bounds))
        return super().run(bounds)

    def below(self, bound):
        self.belows.append((self.position(), bound))
        return super().below(bound)

    @property
    def redraws(self):
        return self.nexts - sum(bound > 1 for _, bound in self.belows)


def _logged(monkeypatch, scenario, trial):
    """Trial ``trial`` run by ``run_trial`` over a ``_Log``, and the log."""
    logs = []

    def logged(bit_generator):
        logs.append(_Log(bit_generator))
        return logs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(harness, "Stream", logged)
        t = run_trial(scenario, scenario.strategy(), trial)
    return t, logs[0]


def _doctor(monkeypatch, trial, replaced):
    """Make trial ``trial``'s generator, for both engines, read ``replaced``."""
    plain = harness._bit_generator

    def doctored(seeds, at):
        source = plain(seeds, at)
        return _Doctored(source, replaced) if at == trial else source

    monkeypatch.setattr(harness, "_bit_generator", doctored)


def _pinned(monkeypatch, scenario, trials, replacing):
    """The first of ``trials`` that makes the draw ``replacing(log)`` names
    from its undoctored run's log, doctored to read the outputs it gives,
    and the log of its doctored run."""
    for trial in trials:
        try:
            replaced = replacing(_logged(monkeypatch, scenario, trial)[1])
        except (IndexError, StopIteration):  # the trial aborts before that draw
            continue
        _doctor(monkeypatch, trial, replaced)
        return _logged(monkeypatch, scenario, trial)[1]
    raise AssertionError("no trial to pin")


def _first_redrawable(start, bounds, after=0):
    """The output index of the first draw of a run, from its draw ``after``
    on, that a 0 would redraw."""
    first = next(i for i, b in enumerate(bounds.values) if i >= after and (2**32 - b) % b)
    return start + sum(b > 1 for b in bounds.values[:first])


# With every round checked the state check aborts nearly every trial
# (1 - (3/4)^16 of the fake preparations, 1 - 2^-8 of the tampered runs).
_FAKE = Scenario(n=3, m=16, check_rounds=16, decoy_count=2, trials=1, seed=31,
                 adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {}))
_TAMPER = Scenario(n=3, m=8, check_rounds=8, decoy_count=2, trials=1, seed=31,
                   adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 8}))
# Link 2 is the first tapped one, and 16 decoys on it abort 1 - (3/4)^16 of
# the trials at its decoy check.
_EVE = Scenario(n=3, m=4, decoy_count=16, trials=1, seed=31, adversary=AdversarySpec(KIND_EVE, {"links": [2]}))
# Two decoys on link 2 pass 9/16 of the trials on to the check positions,
# the third run, and on to TP2's coins.
_TP2 = Scenario(n=3, m=4, decoy_count=2, trials=1, seed=31,
                adversary=AdversarySpec(KIND_TP2_INTERCEPT, {"links": [2], "victim": 1}))


@pytest.mark.parametrize("scenario, where", [
    (_FAKE, 0),  # the run of every link's decoy draws
    (_FAKE, 1),  # the check positions' sample
    (_TAMPER, 2),  # the tamperer's sample of rounds
    (_TAMPER, "target"),  # one tampered round's target, a `below`
    (_EVE, "placement"),  # the tapped link's decoy placement, inside the run of links 1 and 2
    (_TP2, 2),  # the check positions' sample after a tap
], ids=["decoy_run", "positions_run", "rounds_run", "target_below", "tapped_placement", "positions_after_tap"])
def test_a_trial_with_a_lemire_redraw_is_decided_in_the_engine(monkeypatch, scenario, where):
    def replacing(log):
        if where == "target":
            return {next(at for at, bound in log.belows if (2**32 - bound) % bound): 0}
        if where == "placement":
            # Link 2's draws are the run's second half: its 16 decoys, then its placement.
            start, bounds = log.runs[0]
            return {_first_redrawable(start, bounds, after=len(bounds.values) // 2 + 16): 0}
        return {_first_redrawable(*log.runs[where]): 0}

    log = _pinned(monkeypatch, scenario, range(40), replacing)
    assert log.redraws > 0
    assert _engine(scenario, range(40)) == _scalar(scenario, range(40))


class _Counted:
    """A trial's bit generator that records how many 64-bit outputs are
    fetched from it."""

    def __init__(self, bit_generator, fetched):
        self._source, self._fetched = bit_generator, fetched

    def random_raw(self, size):
        self._fetched.append(size)
        return self._source.random_raw(size)


_FAKE_ZEROS = AdversarySpec(KIND_TP1_FAKE_STATE, {})


@pytest.mark.parametrize("scenario", [
    Scenario(n=2, m=150, check_rounds=150, decoy_count=0, seed=5, adversary=_FAKE_ZEROS),
    Scenario(n=2, m=100, check_rounds=100, decoy_count=0, seed=5,
             adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 100})),
    Scenario(protocol="zhang_baseline", n=2, m=1, check_rounds=380, seed=5, adversary=_FAKE_ZEROS),
    # 384 secret bits, 127 position draws, 64 bases and 384 fair bits.
    Scenario(n=6, m=64, check_rounds=64, decoy_count=0, seed=5, adversary=_FAKE_ZEROS),
    # 128 secret bits, 128 registers, a run of 191 draws, 192 bases and
    # the read-ahead of 192 + 64 bits.
    Scenario(n=2, m=64, decoy_count=64, seed=5, adversary=AdversarySpec(KIND_EVE, {"links": [1]})),
], ids=["fake_c150", "tamper_c100", "baseline_fake_c380", "fake_n6_c64", "eve_l64"])
def test_a_shape_that_reads_past_one_fetch_is_decided_in_the_engine(scenario):
    strategy, seeds, fetched = scenario.strategy(), TrialSeeds(scenario.seed), []
    counters = block.decide(scenario, strategy, range(3, 70),
                            lambda trial: _Counted(harness._bit_generator(seeds, trial), fetched))
    assert counters == _scalar(scenario, range(3, 70))
    # Some row fetched a second time, and no fetch took fewer than FETCH_WORDS
    # words (tests/test_stream.py pins how many more).
    assert len(fetched) > 67 and min(fetched) == FETCH_WORDS
