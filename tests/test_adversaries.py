"""Attack-strategy tests: detection statistics against closed forms and
honest accounting of what each attacker actually learns."""

from dataclasses import fields
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from qpcsim.adversaries import (
    ALL_KINDS,
    KINDS,
    ClassicalPositionTamper,
    EveInterceptResend,
    GhzSpec,
    NONE,
    ParticipantInfer,
    Tp1FakeInitialState,
    Tp2FakeResult,
    Tp2Intercept,
    TpFakeResult,
    intercept_detection,
    strategy_from_config,
    tamper_detection,
)
from qpcsim.errors import ConfigError
from qpcsim.ghz import ghz_from_index
from qpcsim.protocol import VARIANT_TP2_RELAY, run_proposed, run_zhang_baseline
from qpcsim.stream import Stream

SIGMA3 = lambda p, n: 3 * np.sqrt(p * (1 - p) / n)  # noqa: E731


@pytest.mark.parametrize(
    "l, links, tolerance", [(0, 1, 0), (1, 1, 0), (4, 2, 1), (7, 3, 9), (40, 1, 3), (2000, 1, 1500)]
)
def test_intercept_detection_is_the_exact_binomial_tail(l, links, tolerance):
    passed = sum(Fraction(comb(l, j) * 3 ** (l - j), 4**l) for j in range(min(tolerance, l) + 1))
    assert intercept_detection(l, links, tolerance) == 1 - passed**links


def test_tamper_detection_is_exact():
    assert [tamper_detection(l) for l in (0, 1, 3)] == [0, Fraction(1, 2), Fraction(7, 8)]


def test_the_cached_targets_are_the_functions_they_cache():
    # Each twice: the second call is a cache hit.  (2000, 1, 1500) is CI's
    # tolerant check, summed over 4^2000.
    for args in [*product((0, 1, 2, 5, 20), (1, 2, 3), (0, 1, 4, 20)), (2000, 1, 1500)]:
        for _ in range(2):
            assert intercept_detection(*args) == intercept_detection.__wrapped__(*args), args
    assert intercept_detection(2000, 1, 1500) is intercept_detection(2000, 1, 1500)
    for l in [*range(40), 2000] * 2:
        assert tamper_detection(l) == tamper_detection.__wrapped__(l), l


def make_rng(*key):
    return Stream(np.random.PCG64(np.random.SeedSequence(entropy=987005, spawn_key=key)))


def random_secrets(n, m, rng):
    return [rng.bits(m) for _ in range(n)]


def test_eve_step2_detection_matches_closed_form():
    l = 5
    trials = 3000
    detected = 0
    for trial in range(trials):
        rng = make_rng(1, trial)
        t = run_proposed(2, 2, random_secrets(2, 2, rng), decoy_count=l,
                         adversary=EveInterceptResend(links=(1,)), rng=rng)
        detected += t.abort_step == 2
    target = 1 - 0.75**l
    assert abs(detected / trials - target) <= SIGMA3(target, trials)


def test_eve_also_trips_the_state_check():
    # Carrier disturbance is caught by the cooperative check at 1/4 per
    # checked register, on top of the decoy statistics.
    trials = 3000
    step3 = 0
    survivors = 0
    for trial in range(trials):
        rng = make_rng(2, trial)
        t = run_proposed(2, 2, random_secrets(2, 2, rng), decoy_count=0, check_rounds=2,
                         adversary=EveInterceptResend(links=(1,)), rng=rng)
        survivors += 1  # no decoys, so every run reaches the check
        step3 += t.abort_step == 3
    target = 1 - 0.75**2
    assert abs(step3 / trials - target) <= SIGMA3(target, trials)


def test_eve_learns_nothing_about_untapped_victim():
    hits = bits = 0
    for trial in range(2000):
        rng = make_rng(3, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng), check_rounds=2, decoy_count=2,
                         adversary=EveInterceptResend(links=(1,), victim=2), rng=rng)
        if not t.aborted:
            hits += t.attack.bits_correct
            bits += t.attack.bits_guessed
    assert bits > 3000
    assert abs(hits / bits - 0.5) <= SIGMA3(0.5, bits)


def test_eve_pins_tapped_victims_bits_at_three_quarters():
    # Matching-basis interceptions fix the photon the victim later measures,
    # so in undetected runs half the victim's key bits are known exactly:
    # accuracy 3/4, not 1/2.  Detection, not secrecy, is the protocol's
    # defense against intercept-resend on the carrier basis.
    hits = bits = 0
    for trial in range(2000):
        rng = make_rng(4, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng), check_rounds=2, decoy_count=2,
                         adversary=EveInterceptResend(links=(1,), victim=1), rng=rng)
        if not t.aborted:
            hits += t.attack.bits_correct
            bits += t.attack.bits_guessed
    assert abs(hits / bits - 0.75) <= SIGMA3(0.75, bits)


def test_tp2_intercept_detection_matches_eve():
    l = 4
    trials = 3000
    rates = []
    for salt, build in ((5, lambda: EveInterceptResend(links=(1,))), (6, lambda: Tp2Intercept(links=(1,)))):
        detected = 0
        for trial in range(trials):
            rng = make_rng(salt, trial)
            t = run_proposed(2, 2, random_secrets(2, 2, rng), decoy_count=l,
                             adversary=build(), rng=rng)
            detected += t.abort_step == 2
        rates.append(detected / trials)
    target = 1 - 0.75**l
    for rate in rates:
        assert abs(rate - target) <= SIGMA3(target, trials)


def test_tp2_records_beat_legitimate_view():
    # With the preparation list in hand, any matching-basis intercept
    # reveals the register branch, so the records-assisted accuracy is 3/4
    # for every victim while the legitimate view alone stays at 1/2.
    hits = bits = legit_hits = legit_bits = 0
    for trial in range(2500):
        rng = make_rng(7, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng), check_rounds=2, decoy_count=2,
                         adversary=Tp2Intercept(links=(1,), victim=2), rng=rng)
        if not t.aborted:
            hits += t.attack.bits_correct
            bits += t.attack.bits_guessed
            legit_hits += t.attack.extras["legit_bits_correct"]
            legit_bits += t.attack.extras["legit_bits_guessed"]
    assert abs(hits / bits - 0.75) <= SIGMA3(0.75, bits)
    assert abs(legit_hits / legit_bits - 0.5) <= SIGMA3(0.5, legit_bits)


def test_tp2_no_decoys_is_never_detected():
    for trial in range(100):
        rng = make_rng(8, trial)
        t = run_proposed(2, 2, random_secrets(2, 2, rng), decoy_count=0, check_rounds=0,
                         adversary=Tp2Intercept(links=(1,)), rng=rng)
        assert not t.aborted


# ---------------------------------------------------------------------------
# Fake initial state
# ---------------------------------------------------------------------------


def test_fake_state_x_rounds_detect_half_z_rounds_never():
    x_fail = x_total = z_fail = z_total = 0
    for trial in range(2500):
        rng = make_rng(9, trial)
        t = run_proposed(3, 4, random_secrets(3, 4, rng), check_rounds=4, decoy_count=2,
                         adversary=Tp1FakeInitialState(), rng=rng)
        if t.step3 is None:
            continue
        failed = set(t.step3.failures)
        for r, basis in enumerate(t.step3.bases):
            if basis == 1:
                x_total += 1
                x_fail += r in failed
            else:
                z_total += 1
                z_fail += r in failed
    assert z_fail == 0
    assert abs(x_fail / x_total - 0.5) <= SIGMA3(0.5, x_total)


def test_fake_state_overall_detection_curve():
    for c in (2, 4):
        trials = 3000
        detected = 0
        for trial in range(trials):
            rng = make_rng(10, c, trial)
            t = run_proposed(3, 4, random_secrets(3, 4, rng), check_rounds=c, decoy_count=2,
                             adversary=Tp1FakeInitialState(), rng=rng)
            detected += t.aborted
        target = 1 - 0.75**c
        assert abs(detected / trials - target) <= SIGMA3(target, trials)


def test_fake_state_z_checks_never_detect_when_unchecked_in_x():
    # With a preparation of |000> claimed as the all-0-vector state, a pure
    # Z-round check can never fail, so c = 0 runs always complete and the
    # preparer reads every secret straight off the masked strings.
    for trial in range(50):
        rng = make_rng(11, trial)
        t = run_proposed(3, 4, random_secrets(3, 4, rng), check_rounds=0, decoy_count=2,
                         adversary=Tp1FakeInitialState(), rng=rng)
        assert not t.aborted
        assert t.attack.bits_guessed == 3 * 4
        assert t.attack.bits_correct == t.attack.bits_guessed


def test_fake_state_with_wrong_entangled_preparation():
    # True state (|000>-|111>)/sqrt(2) against a claimed (|000>+|111>)/sqrt(2):
    # X rounds always fail (wrong parity), Z rounds never, so detection is
    # 1-(1/2)^c; and the branch stays hidden, so guessing stays at chance.
    trials = 2500
    detected = 0
    hits = bits = 0
    for trial in range(trials):
        rng = make_rng(12, trial)
        t = run_proposed(
            3, 4, random_secrets(3, 4, rng), check_rounds=2, decoy_count=2,
            adversary=Tp1FakeInitialState(true_state=GhzSpec((0, 0, 0), 1), claimed=GhzSpec((0, 0, 0), 0)),
            rng=rng
        )
        detected += t.aborted
        if not t.aborted:
            hits += t.attack.bits_correct
            bits += t.attack.bits_guessed
    target = 1 - 0.5**2
    assert abs(detected / trials - target) <= SIGMA3(target, trials)
    assert abs(hits / bits - 0.5) <= SIGMA3(0.5, bits)


@pytest.mark.parametrize("true_state", ["zeros", GhzSpec((0, 1), 1)], ids=["zeros", "entangled"])
def test_baseline_preparer_reads_the_xor_it_receives(true_state):
    # The baseline's TP receives only c1 ^ c2.  Knowing k1 ^ k2 of whatever
    # it prepared, product or entangled, it reads s1 ^ s2 exactly: one bit
    # per comparison position, which is what r reveals.
    for trial in range(40):
        rng = make_rng(31, trial)
        secrets = random_secrets(2, 6, rng)
        t = run_zhang_baseline(6, secrets, check_rounds=0,
                               adversary=Tp1FakeInitialState(true_state=true_state), rng=rng)
        assert not t.aborted
        assert t.attack.bits_correct == t.attack.bits_guessed == 6


# ---------------------------------------------------------------------------
# Fake results
# ---------------------------------------------------------------------------


def test_fake_result_always_conflicts():
    for cls, announcer in ((TpFakeResult, "TP1"), (Tp2FakeResult, "TP2")):
        for trial in range(100):
            rng = make_rng(13, trial)
            t = run_proposed(3, 4, random_secrets(3, 4, rng),
                             adversary=cls(), rng=rng)
            assert t.aborted and t.abort_step == 7
            assert t.arbiter == announcer


def test_fake_result_pair_subset():
    rng = make_rng(14)
    t = run_proposed(3, 4, random_secrets(3, 4, rng),
                     adversary=TpFakeResult(pairs=[(1, 2)]), rng=rng)
    assert not t.pair_results[(1, 2)]["accepted"]
    assert t.pair_results[(1, 3)]["accepted"]
    assert t.pair_results[(2, 3)]["accepted"]


def test_no_adversary_keeps_announcements_honest():
    for trial in range(100):
        rng = make_rng(15, trial)
        t = run_proposed(2, 4, random_secrets(2, 4, rng), adversary=NONE, rng=rng)
        assert not t.aborted


def test_none_strategy_adds_no_perturbation():
    # The hook framework must not touch the random stream when inactive:
    # a run with the null strategy is bit-for-bit the run without one.
    from qpcsim.adversaries import AdversaryStrategy

    secrets = [[0, 1, 1, 0], [1, 0, 0, 1]]
    plain = run_proposed(2, 4, secrets, rng=make_rng(30))
    none = run_proposed(2, 4, secrets, adversary=NONE, rng=make_rng(30))
    fresh = run_proposed(2, 4, secrets, adversary=AdversaryStrategy(), rng=make_rng(30))
    assert plain.to_json() == none.to_json() == fresh.to_json()


# ---------------------------------------------------------------------------
# Participant inference
# ---------------------------------------------------------------------------


def test_participant_infer_accuracies():
    hits = bits = 0
    for trial in range(1500):
        rng = make_rng(16, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng),
                         adversary=ParticipantInfer(attacker=1, victim=2), rng=rng)
        hits += t.attack.bits_correct
        bits += t.attack.bits_guessed
    assert abs(hits / bits - 0.5) <= SIGMA3(0.5, bits)

    for trial in range(100):
        rng = make_rng(17, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng),
                         adversary=ParticipantInfer(attacker=1, victim=2, counterfactual=True),
                         rng=rng)
        assert t.attack.bits_correct == t.attack.bits_guessed == 8

    rng = make_rng(18)
    t = run_proposed(3, 8, random_secrets(3, 8, rng),
                     adversary=ParticipantInfer(attacker=2, victim=2), rng=rng)
    assert t.attack.bits_correct == t.attack.bits_guessed


# ---------------------------------------------------------------------------
# Classical position tampering
# ---------------------------------------------------------------------------


def test_tamper_paired_detection_half_per_check():
    trials = 4000
    detected = 0
    for trial in range(trials):
        rng = make_rng(19, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng), check_rounds=4, decoy_count=2,
                         adversary=ClassicalPositionTamper(count=1), rng=rng)
        assert t.attack.extras["tampered"] == 1
        assert t.attack.extras["tampered_distinct"] == 1
        detected += t.aborted
    assert abs(detected / trials - 0.5) <= SIGMA3(0.5, trials)


def test_tamper_relay_variant_is_immune():
    for trial in range(200):
        rng = make_rng(20, trial)
        secrets = random_secrets(3, 8, rng)
        t = run_proposed(3, 8, secrets, check_rounds=4, decoy_count=2,
                         variant=VARIANT_TP2_RELAY,
                         adversary=ClassicalPositionTamper(count=4), rng=rng)
        assert not t.aborted
        assert t.attack.extras["tampered"] == 0
        for (i, j), info in t.pair_results.items():
            truth = "identical" if secrets[i - 1] == secrets[j - 1] else "different"
            assert info["tp1_verdict"] == truth


def test_tamper_random_policy_reports_distinct_pairs():
    distinct = tampered = 0
    for trial in range(500):
        rng = make_rng(21, trial)
        t = run_proposed(3, 8, random_secrets(3, 8, rng), check_rounds=4, decoy_count=2,
                         adversary=ClassicalPositionTamper(count=2, policy="random"), rng=rng)
        tampered += t.attack.extras["tampered"]
        distinct += t.attack.extras["tampered_distinct"]
    assert tampered == 1000
    # Random preparations collide 1/8 of the time for three particles.
    assert 0 < distinct < tampered


def test_tamper_undetected_runs_can_complete_with_wrong_verdicts():
    wrong = completed = 0
    for trial in range(800):
        rng = make_rng(22, trial)
        secrets = [[0] * 8] * 3  # equal secrets: honest verdicts all identical
        t = run_proposed(3, 8, secrets, check_rounds=4, decoy_count=2,
                         adversary=ClassicalPositionTamper(count=4), rng=rng)
        if not t.aborted:
            completed += 1
            wrong += any(info["tp1_verdict"] != "identical" for info in t.pair_results.values())
    assert completed > 0
    assert wrong > 0  # key misalignment corrupts results: the denial-of-service damage


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------


def test_strategy_from_config_valid():
    assert strategy_from_config("none", None, 3).kind == "none"
    eve = strategy_from_config("eve_intercept_resend", {"links": [2], "victim": 1}, 3)
    assert eve.links == (2,) and eve.victim == 1
    tamper = strategy_from_config(
        "classical_position_tamper",
        {"count": 3, "policy": "paired_specs", "pair": [{"q": "000", "delta": 0}, {"q": "011", "delta": 0}]},
        3,
    )
    assert tamper.pair[1] == ghz_from_index(7, 3)
    fake = strategy_from_config("tp1_fake_initial_state", {"claimed": {"q": "000", "delta": 0}}, 3)
    assert fake.claimed == GhzSpec((0, 0, 0), 0)
    # A state's bits may also be given as a list of integers.
    fake = strategy_from_config("tp1_fake_initial_state", {"true_state": {"q": [0, 1, 1], "delta": 1}}, 3)
    assert fake.true_state == GhzSpec((0, 1, 1), 1)
    infer = strategy_from_config("participant_infer", {"attacker": 2, "victim": 3, "counterfactual": True}, 3)
    assert infer.counterfactual
    # Pairs are unordered: [2, 1] names the announced pair (1, 2).
    assert strategy_from_config("tp2_fake_result", {"pairs": [[2, 1], [1, 3]]}, 3).pairs == {(1, 2), (1, 3)}


def test_strategy_from_config_errors():
    with pytest.raises(ConfigError, match="unknown adversary kind"):
        strategy_from_config("quantum_hacker", None, 3)
    with pytest.raises(ConfigError, match="unknown adversary kind"):
        strategy_from_config(["none"], None, 3)
    with pytest.raises(ConfigError, match="unknown adversary param"):
        strategy_from_config("eve_intercept_resend", {"strength": 2}, 3)
    with pytest.raises(ConfigError, match="links"):
        strategy_from_config("eve_intercept_resend", {"links": []}, 3)
    with pytest.raises(ConfigError, match="policy"):
        strategy_from_config("classical_position_tamper", {"policy": "sneaky"}, 3)
    with pytest.raises(ConfigError, match="pair"):
        strategy_from_config("classical_position_tamper", {"pair": [{"q": "000", "delta": 0}]}, 3)
    with pytest.raises(ConfigError, match="true_state"):
        strategy_from_config("tp1_fake_initial_state", {"true_state": 7}, 3)
    # The default victim is 2.
    with pytest.raises(ConfigError, match="must differ, both are 2"):
        strategy_from_config("participant_infer", {"attacker": 2}, 3)


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("eve_intercept_resend", {"links": [4]}, "links"),
        ("tp1_fake_result", {"pairs": [[1, 4]]}, "pairs"),
        ("participant_infer", {"victim": 0}, "victim"),
        ("tp1_fake_initial_state", {"claimed": {"q": "00", "delta": 0}}, "claimed"),
    ],
)
def test_strategy_from_config_checks_params_against_n(kind, params, name):
    with pytest.raises(ConfigError, match=f"`{name}`"):
        strategy_from_config(kind, params, 3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_strategy_from_config_defaults_are_the_class_defaults(kind):
    strategy = strategy_from_config(kind, {}, 3)
    assert type(strategy) is KINDS[kind] and strategy.kind == kind
    assert strategy == KINDS[kind]()


_ZEROS, _PARTNER = GhzSpec((0, 0, 0), 0), GhzSpec((0, 1, 1), 0)


@pytest.mark.parametrize(
    "kind, params, expected",
    [pytest.param(kind, {}, None, id=kind)
     for kind in ALL_KINDS if kind not in ("tp1_fake_initial_state", "classical_position_tamper")]
    + [
        pytest.param("tp1_fake_initial_state", {}, (((0, 0, 0),) * 4, (_ZEROS,) * 4), id="fake_zeros"),
        pytest.param("tp1_fake_initial_state",
                     {"true_state": {"q": "011", "delta": 1}, "claimed": {"q": "011", "delta": 0}},
                     ((GhzSpec((0, 1, 1), 1),) * 4, (_PARTNER,) * 4), id="fake_entangled"),
        pytest.param("classical_position_tamper", {}, ((_ZEROS, _PARTNER) * 2,) * 2, id="tamper_paired"),
        pytest.param("classical_position_tamper", {"policy": "random"}, None, id="tamper_random"),
    ],
)
def test_a_fixed_preparation_is_a_pair_of_state_tuples_built_once(kind, params, expected):
    states = strategy_from_config(kind, params, 3).override_preparation(3, 4)
    assert states == expected
    if expected is not None:
        # A fresh strategy of the same params gets the very same tuples,
        # which the block engine's register lookup matches by identity.
        again = strategy_from_config(kind, params, 3).override_preparation(3, 4)
        assert again[0] is states[0] and again[1] is states[1]


def test_all_kinds_order():
    # The unknown-kind error message lists the kinds in this order.
    assert ALL_KINDS == (
        "none",
        "eve_intercept_resend",
        "tp1_fake_initial_state",
        "tp1_fake_result",
        "tp2_fake_result",
        "tp2_intercept",
        "participant_infer",
        "classical_position_tamper",
    )


def test_fuzzed_params_are_init_fields():
    from test_config_fuzz import _PARAMS

    assert set(_PARAMS) == set(ALL_KINDS)
    for kind, params in _PARAMS.items():
        # Every init field is a param, and each has a parser.
        assert set(params) == {f.name for f in fields(KINDS[kind]) if f.init}, kind
        strategy_from_config(kind, params, 3)


def test_null_params_only_where_the_default_is_none():
    assert strategy_from_config("eve_intercept_resend", {"victim": None}, 3).victim is None
    assert strategy_from_config("tp1_fake_initial_state", {"claimed": None}, 3).claimed is None
    assert strategy_from_config("classical_position_tamper", {"pair": None}, 3).pair is None
    for kind, name in (("participant_infer", "victim"), ("eve_intercept_resend", "links")):
        with pytest.raises(ConfigError, match=f"`{name}`"):
            strategy_from_config(kind, {name: None}, 3)
