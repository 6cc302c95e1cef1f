"""The block engine against the scalar trial: for every scenario it covers,
its counters plus those of the trials it leaves to rerun are exactly the
summed ``_extract(run_trial(...))`` counters, zero-valued keys included."""

import json
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpcsim import block, harness
from qpcsim.adversaries import KIND_POSITION_TAMPER, KIND_TP1_FAKE_STATE
from qpcsim.errors import ConfigError
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, TrialSeeds, _extract, run_trial
from qpcsim.stream import RAW_WORDS, Stream
from qpcsim.suites import _SCENARIOS
from test_golden import _stats_cases

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

COVERED = ("acquainted", "fake_c4", "fake_c8", "fake_c16", "tamper_l1", "tamper_l4", "tamper_l8")


def _scalar(scenario, trials):
    """The summed counters of ``trials``, each run by ``run_trial``."""
    strategy, seeds = scenario.strategy(), TrialSeeds(scenario.seed)
    totals = {}
    for trial in trials:
        _extract(run_trial(scenario, strategy, trial, False, seeds), totals)
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


_GOLDEN_COVERED = ("proposed_classical_position_tamper", "proposed_tamper_random", "proposed_tp1_fake_initial_state",
                   "proposed_tp1_fake_initial_state_entangled")


@pytest.mark.parametrize("name", _GOLDEN_COVERED)
def test_covered_golden_scenarios_count_as_the_scalar_trial(name):
    scenario = harness.scenario_from_config(_stats_cases()[name])
    _assert_same(scenario, 0, scenario.trials)
    _assert_same(replace(scenario, seed=scenario.seed + 1), 5, 300)


def test_the_baseline_fake_state_config_counts_as_the_scalar_trial():
    scenario = harness.scenario_from_config(json.loads((CONFIGS / "baseline_fake_state.json").read_text()))
    _assert_same(scenario, 0, 400)


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
    policy = draw(st.sampled_from(harness.SECRET_POLICIES))
    values = [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(n)] if policy == "explicit" else None
    if baseline or draw(st.booleans()):
        params = {}
        if draw(st.booleans()):
            params["true_state"] = draw(_spec(n))
        if draw(st.booleans()):
            params["claimed"] = draw(_spec(n))
        adversary = AdversarySpec(KIND_TP1_FAKE_STATE, params)
    else:
        params = {"count": draw(st.integers(0, c + 1)), "policy": draw(st.sampled_from(["paired_specs", "random"]))}
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
    try:
        scenario.validate()
    except ConfigError:
        assume(False)  # forced_unequal with too few distinct vectors
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
        t = run_trial(scenario, scenario.strategy(), trial, False)
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


def test_a_trial_whose_unequal_secrets_are_redrawn_is_rerun(monkeypatch):
    scenario = replace(_FAKE, secrets=SecretsSpec("forced_unequal"))
    # All n*m secret bits 0: every secret is the same, so they are drawn again.
    trial, (t, log) = _pinned(monkeypatch, scenario, range(40),
                              lambda log: dict.fromkeys(range(scenario.n * scenario.m), 0))
    # The secrets the trial kept are distinct, so they are a later draw.
    assert len(set(t.secrets)) == scenario.n
    _assert_rerun(scenario, range(40), trial)


def test_a_trial_that_reads_past_its_outputs_is_rerun(monkeypatch):
    # 384 secret bits and 127 position draws, then 64 bases and six fair
    # bits per X round of an all-|0> product: a trial with 35 or more X
    # rounds draws past the 2 * RAW_WORDS outputs fetched for it.
    scenario = Scenario(n=6, m=64, check_rounds=64, decoy_count=0, seed=5,
                        adversary=AdversarySpec(KIND_TP1_FAKE_STATE, {}))
    trials = range(0, 64)
    read = {}
    for trial in trials:
        t, log = _logged(monkeypatch, scenario, trial)
        read[trial] = log.position() if t.aborted else None
    past = {trial for trial, used in read.items() if used is not None and used > 2 * RAW_WORDS}
    assert past and len(past) < len(trials)
    counters, rerun = _engine(scenario, trials)
    assert set(rerun) == past | {trial for trial, used in read.items() if used is None}
    harness._merge(counters, _scalar(scenario, rerun))
    assert counters == _scalar(scenario, trials)
