"""Protocol state-machine tests: the correctness identity, the cooperative
check, cross-checking, the arbiter, and the two-party baseline."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qpcsim import harness
from qpcsim.cli import EXIT_OK, main
from qpcsim.ghz import Basis, GhzRegister, GhzSpec
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, run_scenario, run_trial
from qpcsim.protocol import (
    CAUSE_CONFLICT,
    CAUSE_DECOY,
    CAUSE_STATE_CHECK,
    DIFFERENT,
    IDENTICAL,
    Announcement,
    VARIANT_TP2_RELAY,
    arbiter_identify,
    cross_check,
    run_proposed,
    run_zhang_baseline,
    step3_check,
    verdict_for,
    xor_bits,
)
from qpcsim.stream import RAW_WORDS, Stream
from qpcsim.suites import _SCENARIOS


def seed_sequence(*key):
    return np.random.SeedSequence(entropy=987004, spawn_key=key)


def make_rng(*key):
    return Stream(np.random.PCG64(seed_sequence(*key)))


# ---------------------------------------------------------------------------
# Honest runs
# ---------------------------------------------------------------------------


def test_honest_runs_satisfy_result_identity():
    for n in (2, 3, 4):
        for trial in range(60):
            t = run_proposed(Scenario(n=n, m=8), make_rng(1, n, trial))
            secrets = t.secrets
            assert not t.aborted
            for source in ("TP1", "TP2"):
                for (i, j), r in t.r_values[source].items():
                    assert r == xor_bits(secrets[i - 1], secrets[j - 1])
            for (i, j), info in t.pair_results.items():
                truth = IDENTICAL if secrets[i - 1] == secrets[j - 1] else DIFFERENT
                assert info["accepted"]
                assert info["tp1_verdict"] == truth
                assert info["tp2_verdict"] == truth


def test_equal_secrets_announce_identical():
    t = run_proposed(Scenario(n=3, m=4, secrets=SecretsSpec("explicit", [[1, 0, 1, 1]] * 3)), make_rng(2))
    assert all(info["tp1_verdict"] == IDENTICAL for info in t.pair_results.values())


def test_check_consumption_accounting():
    for c in (0, 2, 4, 8):
        t = run_proposed(Scenario(n=3, m=8, check_rounds=c), make_rng(3, c))
        assert len(t.checked_positions) == c
        assert len(t.comparison_positions) == 8
        assert not set(t.checked_positions) & set(t.comparison_positions)
        # Checked plus retained partition the 2m prepared registers.
        retained = 16 - c
        assert retained + c == 16
        assert set(t.comparison_positions) <= set(range(16)) - set(t.checked_positions)


def test_masking_arithmetic_example():
    # With equal keys 0110 (register pad 0000) and equal secrets 1010, both
    # masked strings are 1100 and the result vector is all zeros.
    key = (0, 1, 1, 0)
    secret = (1, 0, 1, 0)
    comp = xor_bits(key, secret)
    assert comp == (1, 1, 0, 0)
    t_vec = (0, 0, 0, 0)
    r = xor_bits(xor_bits(t_vec, comp), comp)
    assert r == (0, 0, 0, 0)
    assert verdict_for(r) == IDENTICAL


def test_keys_match_comparisons_in_transcript():
    t = run_proposed(Scenario(n=3, m=6), make_rng(4))
    for k in (1, 2, 3):
        assert t.comps[k] == xor_bits(t.keys[k], t.secrets[k - 1])


def test_key_bits_are_uniform_over_runs():
    # Fixed secrets; the masked strings should look like one-time-pad output.
    scenario = Scenario(n=2, m=2, secrets=SecretsSpec("explicit", [[1, 1], [0, 1]]))
    ones = np.zeros(2, dtype=int)
    trials = 3000
    for trial in range(trials):
        t = run_proposed(scenario, make_rng(5, trial))
        ones += np.array(t.comps[1])
    sigma = 3 * 0.5 / np.sqrt(trials)
    assert np.all(np.abs(ones / trials - 0.5) <= sigma)


# ---------------------------------------------------------------------------
# Step-3 consistency check
# ---------------------------------------------------------------------------


def test_step3_check_examples():
    psi1 = GhzSpec((0, 0, 0), 0)
    ok = step3_check([psi1], [Basis.Z], [(0, 0, 0)])
    assert ok.passed
    ok = step3_check([psi1], [Basis.Z], [(1, 1, 1)])
    assert ok.passed
    bad = step3_check([psi1], [Basis.X], [(1, 0, 0)])  # |-++>: odd minus count
    assert not bad.passed and bad.failures == (0,)
    bad = step3_check([psi1], [Basis.Z], [(0, 1, 0)])
    assert not bad.passed
    with pytest.raises(ValueError):
        step3_check([psi1], [Basis.Z], [(0, 0)])
    with pytest.raises(ValueError):
        step3_check([psi1], [Basis.Z, Basis.X], [(0, 0, 0)])


def test_step3_x_round_parity_rule():
    spec = GhzSpec((0, 1, 0), 0)
    report = step3_check(
        [spec, spec],
        [Basis.X, Basis.X],
        [(1, 1, 0), (1, 0, 0)],
    )
    assert report.failures == (1,)


# ---------------------------------------------------------------------------
# Cross-check and arbiter
# ---------------------------------------------------------------------------


def test_cross_check_rules():
    a = Announcement("TP1", (1, 2), IDENTICAL)
    b = Announcement("TP2", (1, 2), IDENTICAL)
    assert cross_check(a, b)
    assert not cross_check(a, Announcement("TP2", (1, 2), DIFFERENT))
    with pytest.raises(ValueError):
        cross_check(a, Announcement("TP2", (1, 3), IDENTICAL))
    # Published vectors must agree too when both sides announce them.
    va = Announcement("TP1", (1, 2), IDENTICAL, (0, 0))
    vb = Announcement("TP2", (1, 2), IDENTICAL, (0, 1))
    assert not cross_check(va, vb)


def _arbiter_fixture():
    specs = [GhzSpec((0, 1), 0), GhzSpec((0, 0), 1)]
    comps = {1: (1, 0), 2: (0, 0)}
    # t = (1, 0), so r = (0, 0) and the honest verdict is "identical".
    honest = {(1, 2): Announcement("TP1", (1, 2), IDENTICAL)}
    honest2 = {(1, 2): Announcement("TP2", (1, 2), IDENTICAL)}
    return specs, comps, honest, honest2


def test_arbiter_identifies_liar():
    specs, comps, a1, a2 = _arbiter_fixture()
    assert arbiter_identify(specs, comps, a1, a2) is None
    lying1 = {(1, 2): Announcement("TP1", (1, 2), DIFFERENT)}
    assert arbiter_identify(specs, comps, lying1, a2) == "TP1"
    lying2 = {(1, 2): Announcement("TP2", (1, 2), DIFFERENT)}
    assert arbiter_identify(specs, comps, a1, lying2) == "TP2"
    assert arbiter_identify(specs, comps, lying1, lying2) == "both"


def test_conflict_aborts_and_names_liar_in_run():
    scenario = Scenario(n=3, m=4, seed=6, adversary=AdversarySpec("tp2_fake_result"))
    t = run_trial(scenario, 0)
    assert t.aborted and t.abort_step == 7 and t.abort_cause == CAUSE_CONFLICT
    assert t.arbiter == "TP2"


def test_honest_runs_never_conflict():
    for trial in range(200):
        t = run_proposed(Scenario(n=2, m=4), make_rng(7, trial))
        assert not t.aborted


def test_announced_vectors_still_cross_check():
    t = run_proposed(Scenario(n=2, m=4, announce_r_vectors=True), make_rng(8))
    assert not t.aborted
    ann = t.announcements["TP1"][(1, 2)]
    assert ann.r is not None


# ---------------------------------------------------------------------------
# Baseline protocol
# ---------------------------------------------------------------------------


def test_zhang_honest_verdict_matches_truth():
    for trial in range(100):
        t = run_zhang_baseline(Scenario(protocol="zhang_baseline", n=2, m=6), make_rng(9, trial))
        secrets = t.secrets
        assert not t.aborted
        truth = IDENTICAL if secrets[0] == secrets[1] else DIFFERENT
        assert t.pair_results[(1, 2)]["tp_verdict"] == truth
        r = t.r_values["TP"][(1, 2)]
        assert r == xor_bits(secrets[0], secrets[1])


def test_zhang_anticorrelated_bell_state():
    # (|01>-|10>)/sqrt(2) measured in Z gives opposite bits; the pad is 1.
    spec = GhzSpec((0, 1), 1)
    rng = make_rng(10)
    for _ in range(100):
        first, second = GhzRegister([spec]).measure([0, 1], [Basis.Z, Basis.Z], rng)
        assert first ^ second == 1


def test_zhang_fake_result_goes_undetected():
    # Every flipped verdict is accepted: a verdict is counted correct only
    # if it is accepted and true.
    counters = run_scenario(Scenario(protocol="zhang_baseline", n=2, m=4, trials=200, seed=11,
                                     adversary=AdversarySpec("tp1_fake_result"))).counters
    assert counters["completed"] == counters["pairs_total"] == 200
    assert "aborted" not in counters and "pairs_verdict_correct" not in counters


@pytest.mark.parametrize("adversary", [AdversarySpec("tp2_fake_result"), AdversarySpec("tp2_intercept", {"victim": 1}),
                                       AdversarySpec("classical_position_tamper", {"count": 1})],
                         ids=lambda adversary: adversary.kind)
def test_the_baseline_runner_rejects_the_kinds_it_has_no_party_for(adversary):
    # No TP2 to attack as, and no check positions on a plain broadcast: the
    # baseline refuses these kinds, and the proposed protocol runs them.
    with pytest.raises(harness.ConfigError, match=f"adversary.kind` {adversary.kind} is not supported"):
        Scenario(protocol="zhang_baseline", n=2, m=4, check_rounds=2, adversary=adversary).validate()
    assert run_scenario(Scenario(n=2, m=4, check_rounds=2, trials=5, adversary=adversary)).counters["trials"] == 5


def test_zhang_with_state_check_rounds():
    t = run_zhang_baseline(Scenario(protocol="zhang_baseline", n=2, m=5, check_rounds=3), make_rng(12))
    assert not t.aborted
    assert len(t.checked_positions) == 3
    assert len(t.comparison_positions) == 5
    assert t.r_values["TP"][(1, 2)] == xor_bits(t.secrets[0], t.secrets[1])


# ---------------------------------------------------------------------------
# Transcript mechanics and validation
# ---------------------------------------------------------------------------


def test_transcript_round_trips_through_json():
    t = run_proposed(Scenario(n=3, m=4), make_rng(13))
    text = t.to_json()
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["protocol"] == "proposed"
    assert doc["result"]["aborted"] is False
    assert len(doc["result"]["claimed_states"]) == 8
    assert json.loads(json.dumps(doc)) == doc
    assert any(e["kind"] == "announcement" for e in doc["events"])


def test_every_transcript_carries_its_full_event_log(tmp_path):
    t = run_proposed(Scenario(n=2, m=4), make_rng(14))
    assert [e["kind"] for e in t.events] == (
        ["prepare"] + ["quantum_send", "decoy_check"] * 2 + ["initial_states", "check_positions", "check_bases"]
        + ["check_measurement"] * 4 + ["check_verdict"] + ["key_measurement", "comparison_submitted"] * 2
        + ["announcement"] * 2 + ["cross_check"]
    )
    eve = Scenario(n=2, m=4, decoy_count=16, seed=14, adversary=AdversarySpec("eve_intercept_resend", {"links": [1]}))
    t = run_trial(eve, 0)
    assert t.abort_step == 2
    assert t.events[-1] == {"step": 2, "actor": "protocol", "kind": "abort", "payload": {"cause": t.abort_cause}}
    scenario = Scenario(n=2, m=2, decoy_count=2, trials=12, seed=11,
                        adversary=AdversarySpec("eve_intercept_resend", {"links": [1]}))
    config = tmp_path / "eve.json"
    config.write_text(json.dumps(scenario.to_config()))
    aborted = 0
    for k in range(scenario.trials):
        t = run_trial(scenario, k)
        assert t.events[0]["kind"] == "prepare"
        if t.aborted:
            aborted += 1
            assert t.events[-1] == {"step": t.abort_step, "actor": "protocol", "kind": "abort",
                                    "payload": {"cause": t.abort_cause}}
        out = tmp_path / f"trial{k}.json"
        assert main(["transcript", "--config", str(config), "--trial", str(k), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == t.to_json()
    assert 0 < aborted < scenario.trials


def test_same_seed_same_transcript():
    scenario = Scenario(n=2, m=4, secrets=SecretsSpec("explicit", [[0, 1, 1, 0], [1, 1, 0, 0]]))
    t1 = run_proposed(scenario, make_rng(15))
    t2 = run_proposed(scenario, make_rng(15))
    assert t1.to_json() == t2.to_json()


def test_relay_variant_runs_honestly():
    t = run_proposed(Scenario(n=3, m=4, variant=VARIANT_TP2_RELAY), make_rng(16))
    assert not t.aborted


def test_abort_causes_are_machine_readable():
    def causes(scenario, trials):
        runs = (run_trial(scenario, k) for k in range(trials))
        return {(t.abort_step, t.abort_cause) for t in runs if t.aborted}

    eve = Scenario(n=2, m=2, decoy_count=8, seed=18, adversary=AdversarySpec("eve_intercept_resend", {"links": [1]}))
    assert (2, CAUSE_DECOY) in causes(eve, 80)
    fake = Scenario(n=3, m=4, check_rounds=4, decoy_count=2, seed=19, adversary=AdversarySpec("tp1_fake_initial_state"))
    assert causes(fake, 50) == {(3, CAUSE_STATE_CHECK)}


# ---------------------------------------------------------------------------
# Generator calls per trial
# ---------------------------------------------------------------------------


class _RawCounter:
    """A bit generator that records the size of every ``random_raw`` call."""

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self.sizes = []

    def random_raw(self, size):
        self.sizes.append(size)
        return self._bit_generator.random_raw(size)


class _CountingStream(Stream):
    """A trial stream that records each draw the protocol asks of it."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws = []

    def bits(self, count, width=1):
        self.draws.append("bits")
        return super().bits(count, width)

    def peek(self, count):
        self.draws.append("peek")
        return super().peek(count)

    def below(self, bound):
        self.draws.append("below")
        return super().below(bound)

    def run(self, bounds):
        self.draws.append("run")
        return super().run(bounds)

    def consume(self, bounds):
        self.draws.append("consume")
        return super().consume(bounds)

    def sample(self, population, size):
        values = super().sample(population, size)
        self.draws[-1] = "sample"  # its run of bounds
        return values


def _counted_trial(scenario):
    """The draws of one trial, its secrets included, and the sizes of the
    raw generator calls that served them."""
    source = _RawCounter(np.random.PCG64(seed_sequence(80, scenario.n, scenario.check_rounds or 0)))
    rng = _CountingStream(source)
    t = (run_proposed if scenario.protocol == "proposed" else run_zhang_baseline)(scenario, rng)
    assert not t.aborted
    return rng.draws, source.sizes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_honest_trial_draws_seven_times_from_one_raw_call(n):
    # Secrets, preparation, every link (consumed: no step reads an
    # untapped link), check positions, check bases and the two measurement
    # runs, all from one random_raw call; drawing through
    # Generator.integers and Generator.choice made 7 calls.
    draws, sizes = _counted_trial(Scenario(n=n, m=16))
    assert draws == ["bits", "bits", "consume", "sample", "bits", "peek", "peek"]
    assert sizes == [RAW_WORDS]


@pytest.mark.parametrize("check_rounds, count", [(0, 4), (4, 7)])
def test_baseline_trial_generator_calls(check_rounds, count):
    # Secrets, preparation, both links (consumed) and the key run, plus
    # check positions, bases and outcomes when it checks: one random_raw call.
    draws, sizes = _counted_trial(Scenario(protocol="zhang_baseline", n=2, m=16, check_rounds=check_rounds))
    assert len(draws) == count and draws[2] == "consume" and sizes == [RAW_WORDS]


class _RecordedGenerator:
    """Stands in for a trial's Generator: records every attribute read on
    it other than its bit generator, whose raw calls ``_RawCounter`` records."""

    def __init__(self, rng):
        self.bit_generator = _RawCounter(rng.bit_generator)
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


# Every honest shape of the acceptance battery, which the benchmark's
# honest_full workload runs, plus a checking baseline, each at seed 12 for
# 25 trials.  Trials 0-199 of honest n=5 at seed 2 reach furthest into
# their stream: 20 of the first 2000 once read ahead past 384 words in
# their key measurement (trial 60 first).
_SHAPES = {key: (replace(scenario, seed=12), 25) for key, (_, scenario) in _SCENARIOS.items()
           if scenario.adversary.kind == "none"}
_SHAPES["baseline_check4"] = (Scenario(protocol="zhang_baseline", n=2, m=16, check_rounds=4, seed=12), 25)
_SHAPES["honest_n5_seed2"] = (replace(_SCENARIOS["honest_n5"][1], seed=2), 200)


@pytest.mark.parametrize("key", sorted(_SHAPES))
def test_every_honest_battery_trial_makes_one_raw_generator_call(monkeypatch, key):
    made = []

    def default_rng(seed):
        made.append(_RecordedGenerator(np.random.default_rng(seed)))
        return made[-1]

    random = SimpleNamespace(SeedSequence=np.random.SeedSequence, default_rng=default_rng)
    monkeypatch.setattr(harness, "np", SimpleNamespace(random=random))
    scenario, trials = _SHAPES[key]
    harness._run_block(scenario, scenario.validate(), 0, trials)
    assert len(made) == trials
    for rng in made:
        assert rng.calls == [] and rng.bit_generator.sizes == [RAW_WORDS]
