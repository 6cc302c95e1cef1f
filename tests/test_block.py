"""The block engine against the scalar trial: for every scenario it covers,
its counters plus those of the trials it leaves to rerun are exactly the
summed ``_extract(run_trial(...))`` counters, zero-valued keys included."""

import importlib.util
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim import block, harness
from qpcsim.adversaries import KIND_POSITION_TAMPER, KIND_TP1_FAKE_STATE
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, TrialSeeds, _extract, run_trial
from qpcsim.stream import RAW_WORDS, Stream
from qpcsim.suites import _SCENARIOS
from test_golden import _stats_cases

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

COVERED = ("acquainted", "fake_c4", "fake_c8", "fake_c16", "tamper_l1", "tamper_l4", "tamper_l8")


def _scalar(scenario, trials):
    """The summed counters of ``trials``, each run by ``run_trial``."""
    strategy, seeds = scenario.strategy(), TrialSeeds(scenario.seed)
    totals = {}
    for trial in trials:
        _extract(run_trial(scenario, strategy, trial, seeds), totals)
    return totals


def _engine(scenario, trials):
    """The engine's counters and the trials it leaves to rerun."""
    seeds = TrialSeeds(scenario.seed)
    return block.state_check(scenario, scenario.strategy(), trials, partial(harness._bit_generator, seeds))


def _assert_same(scenario, start, stop):
    assert block.covers(scenario, scenario.strategy())
    assert harness._run_block(scenario, start, stop) == _scalar(scenario, range(start, stop))


def test_the_covered_battery_scenarios():
    # The state check can abort these before anything taps; the others keep the per-trial loop.
    covered = {key for key, (_, scenario) in _SCENARIOS.items() if block.covers(scenario, scenario.strategy())}
    assert covered == set(COVERED)


@pytest.mark.parametrize("key", COVERED)
def test_covered_battery_scenarios_count_as_the_scalar_trial(key):
    offset, template = _SCENARIOS[key]
    scenario = replace(template, seed=1000 * 20 + offset)
    # A share from 0, and one that starts and ends inside 64-trial blocks.
    _assert_same(scenario, 0, 200)
    _assert_same(scenario, 37, 171)


_GOLDEN_COVERED = ("proposed_classical_position_tamper", "proposed_tp1_fake_initial_state",
                   "proposed_tp1_fake_initial_state_entangled")


@pytest.mark.parametrize("name", _GOLDEN_COVERED)
def test_covered_golden_scenarios_count_as_the_scalar_trial(name):
    scenario = harness.scenario_from_config(_stats_cases()[name])
    _assert_same(scenario, 0, scenario.trials)
    _assert_same(replace(scenario, seed=scenario.seed + 1), 5, 300)


def test_the_baseline_fake_state_config_counts_as_the_scalar_trial():
    scenario = harness.scenario_from_config(json.loads((CONFIGS / "baseline_fake_state.json").read_text()))
    _assert_same(scenario, 0, 400)


def test_the_tamper_l4_config_counts_as_the_scalar_trial():
    scenario = harness.scenario_from_config(json.loads((CONFIGS / "tamper_l4.json").read_text()))
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
    counters, rerun = _engine(scenario, range(200))
    assert rerun == []
    assert counters == _scalar(scenario, range(200))


def test_the_engine_covers_exactly_the_benchmark_shapes_it_serves(monkeypatch):
    # Any narrowing of the engine below the traffic attack_mix sends it fails
    # here.  The workload table is loaded from its file; its dataclasses look
    # their module up in sys.modules.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    def covered(shapes):
        scenarios = {shape.name: harness.scenario_from_config(workloads._config_doc(shape, 1, 0)) for shape in shapes}
        return {name for name, scenario in scenarios.items() if block.covers(scenario, scenario.strategy())}

    assert covered(workloads.ATTACK_SHAPES) == {"fake_state.c4", "fake_state.c8", "fake_state.c16", "tamper.l1",
                                                "tamper.l4", "tamper.l8"}
    assert covered(workloads.HONEST_SHAPES) == set()


def test_no_other_kind_and_no_unchecked_run_is_covered():
    fake = AdversarySpec(KIND_TP1_FAKE_STATE, {})
    for scenario in [
        Scenario(),
        Scenario(adversary=AdversarySpec("eve_intercept_resend", {"links": [1]})),
        Scenario(adversary=AdversarySpec("tp2_intercept", {"links": [1]})),
        Scenario(adversary=AdversarySpec("tp1_fake_result", {})),
        Scenario(adversary=AdversarySpec("participant_infer", {})),
        Scenario(adversary=fake, check_rounds=0),
        Scenario(protocol="zhang_baseline", n=2, adversary=fake),  # no check by default
        Scenario(adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 2}), variant="tp2_relay"),
        # A random substitute leaves the honest preparation, which draws.
        Scenario(adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 2, "policy": "random"})),
        # Secrets that may be drawn again.
        Scenario(adversary=fake, secrets=SecretsSpec("forced_unequal")),
    ]:
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
    if baseline or draw(st.booleans()):
        params = {}
        if draw(st.booleans()):
            params["true_state"] = draw(_spec(n))
        if draw(st.booleans()):
            params["claimed"] = draw(_spec(n))
        adversary = AdversarySpec(KIND_TP1_FAKE_STATE, params)
    else:
        params = {"count": draw(st.integers(0, c + 1)), "policy": "paired_specs"}
        if draw(st.booleans()):
            params["pair"] = [draw(_spec(n)), draw(_spec(n))]
        adversary = AdversarySpec(KIND_POSITION_TAMPER, params)
    return Scenario(
        protocol="zhang_baseline" if baseline else "proposed", n=n, m=m, check_rounds=c,
        decoy_count=draw(st.integers(0, 40)), adversary=adversary, secrets=SecretsSpec(policy, values),
        seed=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=200, deadline=None)
@given(scenario=_covered_scenarios(), start=st.integers(0, 200), length=st.integers(1, 150))
def test_random_covered_shapes_count_as_the_scalar_trial(scenario, start, length):
    scenario.validate()
    _assert_same(scenario, start, start + length)


# ---------------------------------------------------------------------------
# The ways off the arrays, each pinned on one trial
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
    """The first of ``trials`` that the state check still aborts once the
    outputs ``replacing(log)`` names, from its undoctored run's log, are
    replaced; that trial stays doctored."""
    for trial in trials:
        with monkeypatch.context() as attempt:
            _doctor(attempt, trial, replacing(_logged(attempt, scenario, trial)[1]))
            t, log = _logged(attempt, scenario, trial)
            if (t.abort_step, t.abort_cause) == (3, "state_check_failed"):
                break
    else:
        raise AssertionError("no trial to pin")
    _doctor(monkeypatch, trial, replacing(_logged(monkeypatch, scenario, trial)[1]))
    return trial, _logged(monkeypatch, scenario, trial)


def _assert_rerun(scenario, trials, trial):
    counters, rerun = _engine(scenario, trials)
    assert trial in rerun
    harness._merge(counters, _scalar(scenario, rerun))
    assert counters == _scalar(scenario, trials)


def _first_redrawable(start, bounds):
    """The output index of the first draw of a run that a 0 would redraw."""
    wide = [b for b in bounds.values if b > 1]
    return start + next(i for i, b in enumerate(wide) if (2**32 - b) % b)


# With every round checked the state check aborts nearly every trial
# (1 - (3/4)^16 of the fake preparations, 1 - 2^-8 of the tampered runs), so
# a pinned trial is rerun only for the reason it is pinned for.
_FAKE = Scenario(n=3, m=16, check_rounds=16, decoy_count=2, trials=1, seed=31,
                 adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {}))
_TAMPER = Scenario(n=3, m=8, check_rounds=8, decoy_count=2, trials=1, seed=31,
                   adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 8}))


@pytest.mark.parametrize("scenario, where", [
    (_FAKE, 0),  # the run of every link's decoy draws
    (_FAKE, 1),  # the check positions' sample
    (_TAMPER, 2),  # the tamperer's sample of rounds
    (_TAMPER, "target"),  # one tampered round's target, a `below`
], ids=["decoy_run", "positions_run", "rounds_run", "target_below"])
def test_a_trial_with_a_lemire_redraw_is_rerun(monkeypatch, scenario, where):
    def replacing(log):
        if where != "target":
            return {_first_redrawable(*log.runs[where]): 0}
        return {next(at for at, bound in log.belows if (2**32 - bound) % bound): 0}

    trial, (_, log) = _pinned(monkeypatch, scenario, range(40), replacing)
    assert log.redraws > 0
    _assert_rerun(scenario, range(40), trial)


_FAKE_ZEROS = AdversarySpec(KIND_TP1_FAKE_STATE, {})


@pytest.mark.parametrize("scenario", [
    Scenario(n=2, m=150, check_rounds=150, decoy_count=0, seed=5, adversary=_FAKE_ZEROS),
    Scenario(n=2, m=100, check_rounds=100, decoy_count=0, seed=5,
             adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 100})),
    Scenario(protocol="zhang_baseline", n=2, m=1, check_rounds=380, seed=5, adversary=_FAKE_ZEROS),
    # 384 secret bits, 127 position draws, 64 bases and 384 fair bits.
    Scenario(n=6, m=64, check_rounds=64, decoy_count=0, seed=5, adversary=_FAKE_ZEROS),
], ids=["fake_c150", "tamper_c100", "baseline_fake_c380", "fake_n6_c64"])
def test_a_shape_that_can_read_past_one_fetch_is_left_to_the_scalar_loop(scenario):
    def unfetched(trial):
        raise AssertionError(f"trial {trial}'s generator was called")

    strategy = scenario.strategy()
    assert block.covers(scenario, strategy)
    assert block._Shape(scenario, strategy).words > RAW_WORDS
    assert block.state_check(scenario, strategy, range(3, 70), unfetched) == ({}, list(range(3, 70)))
    assert harness._run_block(scenario, 0, 70) == _scalar(scenario, range(70))
