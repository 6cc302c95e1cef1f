"""Protocol state-machine tests: the correctness identity, the cooperative
check, cross-checking, the arbiter, and the two-party baseline."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qpcsim import harness, protocol
from qpcsim.adversaries import (
    TP1,
    AdversaryStrategy,
    ClassicalPositionTamper,
    EveInterceptResend,
    Tp2FakeResult,
    Tp2Intercept,
    TpFakeResult,
)
from qpcsim.cli import EXIT_OK, main
from qpcsim.ghz import Basis, GhzRegister, GhzSpec, ghz_from_index
from qpcsim.harness import Scenario, _draw_secrets, run_trial
from qpcsim.photons import Link, QuantumChannel, interleave, public_discussion
from qpcsim.protocol import (
    _PROPOSED,
    CAUSE_CONFLICT,
    CAUSE_STATE_CHECK,
    DIFFERENT,
    IDENTICAL,
    Announcement,
    Transcript,
    VARIANT_TP2_RELAY,
    _distribute,
    arbiter_identify,
    cross_check,
    run_proposed,
    run_zhang_baseline,
    step3_check,
    verdict_for,
    xor_bits,
)
from qpcsim.stream import RAW_WORDS, Stream, TrialSeeds
from qpcsim.suites import _SCENARIOS


def seed_sequence(*key):
    return np.random.SeedSequence(entropy=987004, spawn_key=key)


def make_rng(*key):
    return Stream(np.random.PCG64(seed_sequence(*key)))


def random_secrets(n, m, rng):
    return [rng.bits(m) for _ in range(n)]


# ---------------------------------------------------------------------------
# Honest runs
# ---------------------------------------------------------------------------


def test_honest_runs_satisfy_result_identity():
    for n in (2, 3, 4):
        for trial in range(60):
            rng = make_rng(1, n, trial)
            secrets = random_secrets(n, 8, rng)
            t = run_proposed(n, 8, secrets, rng=rng)
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
    rng = make_rng(2)
    secrets = [[1, 0, 1, 1]] * 3
    t = run_proposed(3, 4, secrets, rng=rng)
    assert all(info["tp1_verdict"] == IDENTICAL for info in t.pair_results.values())


def test_check_consumption_accounting():
    for c in (0, 2, 4, 8):
        rng = make_rng(3, c)
        t = run_proposed(3, 8, random_secrets(3, 8, rng), check_rounds=c, rng=rng)
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
    rng = make_rng(4)
    secrets = random_secrets(3, 6, rng)
    t = run_proposed(3, 6, secrets, rng=rng)
    for k in (1, 2, 3):
        assert t.comps[k] == xor_bits(t.keys[k], secrets[k - 1])


def test_key_bits_are_uniform_over_runs():
    # Fixed secrets; the masked strings should look like one-time-pad output.
    secrets = [[1, 1], [0, 1]]
    ones = np.zeros(2, dtype=int)
    trials = 3000
    for trial in range(trials):
        rng = make_rng(5, trial)
        t = run_proposed(2, 2, secrets, rng=rng)
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
    rng = make_rng(6)
    t = run_proposed(3, 4, random_secrets(3, 4, rng), adversary=Tp2FakeResult(), rng=rng)
    assert t.aborted and t.abort_step == 7 and t.abort_cause == CAUSE_CONFLICT
    assert t.arbiter == "TP2"


def test_honest_runs_never_conflict():
    for trial in range(200):
        rng = make_rng(7, trial)
        t = run_proposed(2, 4, random_secrets(2, 4, rng), rng=rng)
        assert not t.aborted


def test_announced_vectors_still_cross_check():
    rng = make_rng(8)
    t = run_proposed(2, 4, random_secrets(2, 4, rng), announce_r=True, rng=rng)
    assert not t.aborted
    ann = t.announcements["TP1"][(1, 2)]
    assert ann.r is not None


# ---------------------------------------------------------------------------
# Baseline protocol
# ---------------------------------------------------------------------------


def test_zhang_honest_verdict_matches_truth():
    for trial in range(100):
        rng = make_rng(9, trial)
        secrets = random_secrets(2, 6, rng)
        t = run_zhang_baseline(6, secrets, rng=rng)
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
    wrong = 0
    for trial in range(200):
        rng = make_rng(11, trial)
        secrets = random_secrets(2, 4, rng)
        t = run_zhang_baseline(4, secrets, adversary=TpFakeResult(), rng=rng)
        assert not t.aborted
        truth = IDENTICAL if secrets[0] == secrets[1] else DIFFERENT
        info = t.pair_results[(1, 2)]
        assert info["accepted"]
        wrong += info["tp_verdict"] != truth
    assert wrong == 200


class _Recording(AdversaryStrategy):
    """An honest strategy that records the name of every hook called."""

    def __init__(self):
        self.called = set()

    def override_preparation(self, n, count):
        self.called.add("override_preparation")

    def taps(self, link):
        self.called.add("taps")
        return ()

    def tamper_positions(self, true_positions, total, rng):
        self.called.add("tamper_positions")
        return list(true_positions)

    def flip_verdict(self, announcer, pair, verdict):
        self.called.add("flip_verdict")
        return verdict

    def finalize(self, t, rng):
        self.called.add("finalize")


def test_zhang_calls_every_hook_but_the_position_tamper():
    # The check positions ride the participants' authenticated channel, so
    # nothing can tamper with them.
    rng = make_rng(20)
    recording = _Recording()
    t = run_zhang_baseline(4, random_secrets(2, 4, rng), check_rounds=2, adversary=recording, rng=rng)
    assert not t.aborted
    assert recording.called == {"override_preparation", "taps", "flip_verdict", "finalize"}


@pytest.mark.parametrize("strategy", [Tp2FakeResult(), Tp2Intercept(victim=1), ClassicalPositionTamper(count=1)],
                         ids=lambda strategy: strategy.kind)
def test_the_baseline_runner_rejects_the_kinds_it_has_no_party_for(strategy):
    # No TP2 to attack as, and no check positions on a plain broadcast: the
    # runner refuses these kinds as config validation does, not only behind it.
    rng = make_rng(21)
    with pytest.raises(ValueError, match=strategy.kind):
        run_zhang_baseline(4, random_secrets(2, 4, rng), check_rounds=2, adversary=strategy, rng=rng)
    with pytest.raises(harness.ConfigError, match="adversary.kind"):
        Scenario(protocol="zhang_baseline", n=2, m=4, check_rounds=2,
                 adversary=harness.AdversarySpec(strategy.kind, {})).validate()
    run_proposed(2, 4, random_secrets(2, 4, rng), adversary=strategy, rng=rng)


def test_zhang_with_state_check_rounds():
    rng = make_rng(12)
    secrets = random_secrets(2, 5, rng)
    t = run_zhang_baseline(5, secrets, check_rounds=3, rng=rng)
    assert not t.aborted
    assert len(t.checked_positions) == 3
    assert len(t.comparison_positions) == 5
    assert t.r_values["TP"][(1, 2)] == xor_bits(secrets[0], secrets[1])


# ---------------------------------------------------------------------------
# Transcript mechanics and validation
# ---------------------------------------------------------------------------


def test_transcript_round_trips_through_json():
    rng = make_rng(13)
    t = run_proposed(3, 4, random_secrets(3, 4, rng), rng=rng)
    text = t.to_json()
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["protocol"] == "proposed"
    assert doc["result"]["aborted"] is False
    assert len(doc["result"]["claimed_states"]) == 8
    assert json.loads(json.dumps(doc)) == doc
    assert any(e["kind"] == "announcement" for e in doc["events"])


def test_every_transcript_carries_its_full_event_log(tmp_path):
    rng = make_rng(14)
    t = run_proposed(2, 4, random_secrets(2, 4, rng), rng=rng)
    assert [e["kind"] for e in t.events] == (
        ["prepare"] + ["quantum_send", "decoy_check"] * 2 + ["initial_states", "check_positions", "check_bases"]
        + ["check_measurement"] * 4 + ["check_verdict"] + ["key_measurement", "comparison_submitted"] * 2
        + ["announcement"] * 2 + ["cross_check"]
    )
    rng = make_rng(14)
    t = run_proposed(2, 4, random_secrets(2, 4, rng), decoy_count=16, adversary=EveInterceptResend(links=(1,)), rng=rng)
    assert t.abort_step == 2
    assert t.events[-1] == {"step": 2, "actor": "protocol", "kind": "abort", "payload": {"cause": t.abort_cause}}
    # As `_run_block` counts a trial: one strategy and one TrialSeeds for every trial.
    scenario = Scenario(n=2, m=2, decoy_count=2, trials=12, seed=11,
                        adversary=harness.AdversarySpec("eve_intercept_resend", {"links": [1]}))
    config = tmp_path / "eve.json"
    config.write_text(json.dumps(scenario.to_config()))
    strategy, seeds = scenario.strategy(), TrialSeeds(scenario.seed)
    aborted = 0
    for k in range(scenario.trials):
        t = run_trial(scenario, strategy, k, seeds)
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
    secrets = [[0, 1, 1, 0], [1, 1, 0, 0]]
    t1 = run_proposed(2, 4, secrets, rng=make_rng(15))
    t2 = run_proposed(2, 4, secrets, rng=make_rng(15))
    assert t1.to_json() == t2.to_json()


def test_relay_variant_runs_honestly():
    rng = make_rng(16)
    t = run_proposed(3, 4, random_secrets(3, 4, rng), variant=VARIANT_TP2_RELAY, rng=rng)
    assert not t.aborted


def test_validation_errors():
    rng = make_rng(17)
    with pytest.raises(ValueError):
        run_proposed(1, 4, [[0] * 4], rng=rng)
    with pytest.raises(ValueError):
        run_proposed(2, 0, [[], []], rng=rng)
    with pytest.raises(ValueError):
        run_proposed(2, 4, [[0, 1], [1, 1]], rng=rng)  # wrong secret length
    with pytest.raises(ValueError):
        run_proposed(2, 4, [[0] * 4] * 3, rng=rng)  # wrong secret count
    with pytest.raises(ValueError):
        run_proposed(2, 4, [[0] * 4] * 2, check_rounds=5, rng=rng)
    with pytest.raises(ValueError):
        run_proposed(2, 4, [[0] * 4] * 2, variant="bogus", rng=rng)
    with pytest.raises(ValueError):
        run_zhang_baseline(4, [[0] * 4] * 2, check_rounds=-1, rng=rng)


def test_abort_causes_are_machine_readable():
    from qpcsim.adversaries import Tp1FakeInitialState

    found = set()
    for trial in range(80):
        rng = make_rng(18, trial)
        t = run_proposed(
            2, 2, random_secrets(2, 2, rng), decoy_count=8,
            adversary=EveInterceptResend(links=(1,)), rng=rng,
        )
        if t.aborted:
            found.add((t.abort_step, t.abort_cause))
    assert (2, "decoy_mismatch") in found
    rng = make_rng(19)
    detected = None
    for trial in range(50):
        rng = make_rng(19, trial)
        t = run_proposed(
            3, 4, random_secrets(3, 4, rng), check_rounds=4, decoy_count=2,
            adversary=Tp1FakeInitialState(), rng=rng,
        )
        if t.aborted:
            detected = (t.abort_step, t.abort_cause)
            break
    assert detected == (3, CAUSE_STATE_CHECK)


# ---------------------------------------------------------------------------
# The decoy check against measuring every decoy
# ---------------------------------------------------------------------------


class _LinkTaps(AdversaryStrategy):
    def __init__(self, per_link):
        self.per_link = per_link

    def taps(self, link):
        return self.per_link[link]


def _intercept_resend(link, rng):
    link.measure(rng.bits(len(link.slots)), rng, forward=True)


def _flip_decoy_bits(link, rng):
    """Flip some decoys' bits in their own basis: no draw tells them apart."""
    slots = link.state.slots
    for i, flip in zip(link.decoy_ids, rng.bits(len(link.decoy_ids))):
        slots[i] ^= flip


def _measure_every_decoy(run, registers, decoy_count, tolerance, rng):
    """Step 2 as it read before the check compared states and links were
    drawn together: each link draws its own decoys and slots, and every
    decoy is measured in its prepared basis and discussed in public."""
    reports = []
    n = registers.particles
    for k in range(1, n + 1):
        decoys = rng.bits(decoy_count, 2)
        carried = range(k - 1, registers.n, n)
        decoy_ids = registers.add_photons(decoys)
        slots = rng.sample(len(carried) + decoy_count, decoy_count)
        link = Link(registers, carried, decoy_ids, slots)
        QuantumChannel(TP1, f"P{k}", run.taps(k)).transmit(link, rng)
        bases = [d >> 1 for d in decoys]
        reports.append(tuple(public_discussion(bases, registers.measure(decoy_ids, bases, rng), decoys, tolerance)))
    return reports


def test_decoy_check_matches_measuring_every_decoy():
    setup = np.random.default_rng(seed_sequence(70))
    tap_choices = [(), (_intercept_resend,), (_flip_decoy_bits,), (_intercept_resend, _flip_decoy_bits)]
    mismatched = tolerated = 0
    for case in range(300):
        n = int(setup.integers(2, 5))
        specs = [ghz_from_index(int(i), n) for i in setup.integers(1, 2**n + 1, size=int(setup.integers(1, 5)))]
        decoy_count, tolerance = int(setup.integers(0, 7)), int(setup.integers(0, 3))
        run = _LinkTaps({k: tap_choices[int(setup.integers(0, 4))] for k in range(1, n + 1)})
        registers, reference = GhzRegister(specs), GhzRegister(specs)
        rng, reference_rng = make_rng(71, case), make_rng(71, case)
        t = Transcript("proposed", {})
        _distribute(t, _PROPOSED, run, registers, decoy_count, tolerance, rng)
        expected = _measure_every_decoy(run, reference, decoy_count, tolerance, reference_rng)
        assert [(c["passed"], c["mismatches"], c["total"]) for c in t.decoy_checks] == expected
        # Only a tapped link's decoys are put in flight, so the photons' ids
        # differ; the particles' slots, and what a tap forwarded in their
        # place, do not.
        assert registers.slots[: registers.n] == reference.slots[: reference.n]
        for attr in ("branch", "parity", "left"):
            assert getattr(registers, attr) == getattr(reference, attr), attr
        assert rng.bits(3, 32) == reference_rng.bits(3, 32)
        mismatched += sum(report[1] > 0 for report in expected)
        tolerated += sum(report[0] and report[1] > 0 for report in expected)
    # The cases reach both disturbed outcomes, so the comparison is not vacuous.
    assert mismatched > 50 and tolerated > 10


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

    def sample(self, population, size):
        values = super().sample(population, size)
        self.draws[-1] = "sample"  # its run of bounds
        return values


def _counted_trial(scenario):
    """The draws of one trial, its secrets drawn as the harness draws them,
    and the sizes of the raw generator calls that served them."""
    source = _RawCounter(np.random.PCG64(seed_sequence(80, scenario.n, scenario.check_rounds or 0)))
    rng = _CountingStream(source)
    secrets = _draw_secrets(scenario, rng)
    if scenario.protocol == "proposed":
        t = run_proposed(scenario.n, scenario.m, secrets, rng=rng)
    else:
        t = run_zhang_baseline(scenario.m, secrets, check_rounds=scenario.check_rounds, rng=rng)
    assert not t.aborted
    return rng.draws, source.sizes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_honest_trial_draws_seven_times_from_one_raw_call(n):
    # Secrets, preparation, every link, check positions, check bases and
    # the two measurement runs, all from one random_raw call; drawing
    # through Generator.integers and Generator.choice made 7 calls.
    draws, sizes = _counted_trial(Scenario(n=n, m=16))
    assert draws == ["bits", "bits", "run", "sample", "bits", "peek", "peek"]
    assert sizes == [RAW_WORDS]


@pytest.mark.parametrize("check_rounds, count", [(0, 4), (4, 7)])
def test_baseline_trial_generator_calls(check_rounds, count):
    # Secrets, preparation, both links and the key run, plus check
    # positions, bases and outcomes when it checks: one random_raw call.
    draws, sizes = _counted_trial(Scenario(protocol="zhang_baseline", n=2, m=16, check_rounds=check_rounds))
    assert len(draws) == count and sizes == [RAW_WORDS]


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


# Every scenario shape of the acceptance battery, which the benchmark's
# honest_full and attack_mix workloads run, plus a checking baseline, each
# at seed 12 for 25 trials.  Trials 0-199 of honest n=5 at seed 2 reach
# furthest into their stream: 20 of the first 2000 once read ahead past 384
# words in their key measurement (trial 60 first).
_SHAPES = {key: (replace(scenario, seed=12), 25) for key, (_, scenario) in _SCENARIOS.items()}
_SHAPES["baseline_check4"] = (Scenario(protocol="zhang_baseline", n=2, m=16, check_rounds=4, seed=12), 25)
_SHAPES["honest_n5_seed2"] = (replace(_SCENARIOS["honest_n5"][1], seed=2), 200)


@pytest.mark.parametrize("key", sorted(_SHAPES))
def test_every_battery_trial_makes_one_raw_generator_call(monkeypatch, key):
    made = []

    def default_rng(seed):
        made.append(_RecordedGenerator(np.random.default_rng(seed)))
        return made[-1]

    random = SimpleNamespace(SeedSequence=np.random.SeedSequence, default_rng=default_rng)
    monkeypatch.setattr(harness, "np", SimpleNamespace(random=random))
    scenario, trials = _SHAPES[key]
    strategy = scenario.strategy()
    for trial in range(trials):
        run_trial(scenario, strategy, trial)
    assert len(made) == trials
    for rng in made:
        assert rng.calls == [] and rng.bit_generator.sizes == [RAW_WORDS]


def test_tap_splits_the_link_draw_at_the_tapped_link(monkeypatch):
    drawn = []

    def recorded(carriers, decoys, links, rng):
        drawn.append(links)
        return interleave(carriers, decoys, links, rng)

    monkeypatch.setattr(protocol, "interleave", recorded)
    # One interleave call per run of links; a run ends at a tapped link or the last.
    for tapped, runs in [((), [3]), ((1,), [1, 2]), ((2,), [2, 1]), ((3,), [3]), ((1, 2), [1, 1, 1])]:
        drawn.clear()
        adversary = EveInterceptResend(links=tapped) if tapped else None
        run_proposed(3, 4, random_secrets(3, 4, make_rng(82)), decoy_count=8, adversary=adversary, rng=make_rng(81))
        assert drawn == runs, tapped
