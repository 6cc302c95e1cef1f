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
    GhzSpec,
    ParticipantInfer,
    intercept_detection,
    strategy_from_config,
    tamper_detection,
)
from qpcsim.errors import ConfigError
from qpcsim.ghz import ghz_from_index
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, _run_block, run_scenario, run_trial
from qpcsim.protocol import VARIANT_TP2_RELAY, run_proposed
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


def counters(adversary, **fields):
    """The counters of a run of ``fields`` under ``adversary``."""
    return run_scenario(Scenario(adversary=adversary, **fields)).counters


def eve(**params):
    return AdversarySpec("eve_intercept_resend", {"links": [1], **params})


def rate(c, hits, count):
    return c.get(hits, 0) / c[count]


def test_eve_step2_detection_matches_closed_form():
    c = counters(eve(), n=2, m=2, decoy_count=5, trials=3000, seed=1)
    target = 1 - 0.75**5
    assert abs(rate(c, "abort_step2", "trials") - target) <= SIGMA3(target, 3000)


def test_eve_also_trips_the_state_check():
    # Carrier disturbance is caught by the cooperative check at 1/4 per
    # checked register, on top of the decoy statistics; with no decoys
    # every run reaches the check.
    c = counters(eve(), n=2, m=2, decoy_count=0, check_rounds=2, trials=3000, seed=2)
    target = 1 - 0.75**2
    assert abs(rate(c, "abort_step3", "trials") - target) <= SIGMA3(target, 3000)


def test_eve_learns_nothing_about_untapped_victim():
    c = counters(eve(victim=2), n=3, m=8, check_rounds=2, decoy_count=2, trials=2000, seed=3)
    bits = c["attack_bits_guessed"]
    assert bits > 3000
    assert abs(rate(c, "attack_bits_correct", "attack_bits_guessed") - 0.5) <= SIGMA3(0.5, bits)


def test_eve_pins_tapped_victims_bits_at_three_quarters():
    # Matching-basis interceptions fix the photon the victim later measures,
    # so in undetected runs half the victim's key bits are known exactly:
    # accuracy 3/4, not 1/2.  Detection, not secrecy, is the protocol's
    # defense against intercept-resend on the carrier basis.
    c = counters(eve(victim=1), n=3, m=8, check_rounds=2, decoy_count=2, trials=2000, seed=4)
    assert abs(rate(c, "attack_bits_correct", "attack_bits_guessed") - 0.75) <= SIGMA3(0.75, c["attack_bits_guessed"])


def test_tp2_intercept_detection_matches_eve():
    target = 1 - 0.75**4
    for seed, kind in ((5, "eve_intercept_resend"), (6, "tp2_intercept")):
        c = counters(AdversarySpec(kind, {"links": [1]}), n=2, m=2, decoy_count=4, trials=3000, seed=seed)
        assert abs(rate(c, "abort_step2", "trials") - target) <= SIGMA3(target, 3000)


def test_tp2_records_beat_legitimate_view():
    # With the preparation list in hand, any matching-basis intercept
    # reveals the register branch, so the records-assisted accuracy is 3/4
    # for every victim while the legitimate view alone stays at 1/2.
    c = counters(AdversarySpec("tp2_intercept", {"links": [1], "victim": 2}), n=3, m=8, check_rounds=2,
                 decoy_count=2, trials=2500, seed=7)
    assert abs(rate(c, "attack_bits_correct", "attack_bits_guessed") - 0.75) <= SIGMA3(0.75, c["attack_bits_guessed"])
    legit = c["attack_legit_bits_guessed"]
    assert abs(rate(c, "attack_legit_bits_correct", "attack_legit_bits_guessed") - 0.5) <= SIGMA3(0.5, legit)


def test_tp2_no_decoys_is_never_detected():
    c = counters(AdversarySpec("tp2_intercept", {"links": [1]}), n=2, m=2, decoy_count=0, check_rounds=0, trials=100,
                 seed=8)
    assert c["completed"] == 100 and "aborted" not in c


# ---------------------------------------------------------------------------
# Fake initial state
# ---------------------------------------------------------------------------


FAKE = AdversarySpec("tp1_fake_initial_state")


def test_fake_state_x_rounds_detect_half_z_rounds_never():
    c = counters(FAKE, n=3, m=4, check_rounds=4, decoy_count=2, trials=2500, seed=9)
    assert c["z_check_rounds"] > 0 and "z_check_failures" not in c
    assert abs(rate(c, "x_check_failures", "x_check_rounds") - 0.5) <= SIGMA3(0.5, c["x_check_rounds"])


def test_fake_state_overall_detection_curve():
    for check_rounds in (2, 4):
        c = counters(FAKE, n=3, m=4, check_rounds=check_rounds, decoy_count=2, trials=3000, seed=10 + check_rounds)
        target = 1 - 0.75**check_rounds
        assert abs(rate(c, "aborted", "trials") - target) <= SIGMA3(target, 3000)


def test_fake_state_z_checks_never_detect_when_unchecked_in_x():
    # With a preparation of |000> claimed as the all-0-vector state, a pure
    # Z-round check can never fail, so c = 0 runs always complete and the
    # preparer reads every secret straight off the masked strings.
    c = counters(FAKE, n=3, m=4, check_rounds=0, decoy_count=2, trials=50, seed=11)
    assert "aborted" not in c
    assert c["attack_bits_correct"] == c["attack_bits_guessed"] == 50 * 3 * 4


def test_fake_state_with_wrong_entangled_preparation():
    # True state (|000>-|111>)/sqrt(2) against a claimed (|000>+|111>)/sqrt(2):
    # X rounds always fail (wrong parity), Z rounds never, so detection is
    # 1-(1/2)^c; and the branch stays hidden, so guessing stays at chance.
    wrong = AdversarySpec("tp1_fake_initial_state",
                          {"true_state": {"q": "000", "delta": 1}, "claimed": {"q": "000", "delta": 0}})
    c = counters(wrong, n=3, m=4, check_rounds=2, decoy_count=2, trials=2500, seed=12)
    target = 1 - 0.5**2
    assert abs(rate(c, "aborted", "trials") - target) <= SIGMA3(target, 2500)
    assert abs(rate(c, "attack_bits_correct", "attack_bits_guessed") - 0.5) <= SIGMA3(0.5, c["attack_bits_guessed"])


@pytest.mark.parametrize("true_state", ["zeros", {"q": "01", "delta": 1}], ids=["zeros", "entangled"])
def test_baseline_preparer_reads_the_xor_it_receives(true_state):
    # The baseline's TP receives only c1 ^ c2.  Knowing k1 ^ k2 of whatever
    # it prepared, product or entangled, it reads s1 ^ s2 exactly: one bit
    # per comparison position, which is what r reveals.
    c = counters(AdversarySpec("tp1_fake_initial_state", {"true_state": true_state}), protocol="zhang_baseline", n=2,
                 m=6, check_rounds=0, trials=40, seed=31)
    assert "aborted" not in c
    assert c["attack_bits_correct"] == c["attack_bits_guessed"] == 40 * 6


# ---------------------------------------------------------------------------
# Fake results
# ---------------------------------------------------------------------------


def test_fake_result_always_conflicts():
    for kind, arbiter in (("tp1_fake_result", "arbiter_tp1"), ("tp2_fake_result", "arbiter_tp2")):
        c = counters(AdversarySpec(kind), n=3, m=4, trials=100, seed=13)
        assert c["abort_step7"] == c["abort_announcement_conflict"] == c[arbiter] == 100


def test_fake_result_pair_subset():
    scenario = Scenario(n=3, m=4, seed=14, adversary=AdversarySpec("tp1_fake_result", {"pairs": [[1, 2]]}))
    t = run_trial(scenario, 0)
    assert not t.pair_results[(1, 2)]["accepted"]
    assert t.pair_results[(1, 3)]["accepted"]
    assert t.pair_results[(2, 3)]["accepted"]


def test_no_adversary_keeps_announcements_honest():
    for trial in range(100):
        rng = Stream(np.random.PCG64(np.random.SeedSequence(entropy=987005, spawn_key=(15, trial))))
        t = run_proposed(2, 4, [rng.bits(4) for _ in range(2)], rng=rng)
        assert not t.aborted


# ---------------------------------------------------------------------------
# Participant inference
# ---------------------------------------------------------------------------


def test_participant_infer_accuracies():
    c = counters(AdversarySpec("participant_infer", {"attacker": 1, "victim": 2}), n=3, m=8, trials=1500, seed=16)
    assert abs(rate(c, "attack_bits_correct", "attack_bits_guessed") - 0.5) <= SIGMA3(0.5, c["attack_bits_guessed"])

    c = counters(AdversarySpec("participant_infer", {"attacker": 1, "victim": 2, "counterfactual": True}), n=3, m=8,
                 trials=100, seed=17)
    assert c["attack_bits_correct"] == c["attack_bits_guessed"] == 100 * 8

    # A config cannot name the attacker its own victim; the strategy can.
    c = _run_block(Scenario(n=3, m=8, seed=18), ParticipantInfer(attacker=2, victim=2), 0, 1)
    assert c["attack_bits_correct"] == c["attack_bits_guessed"] == 8


# ---------------------------------------------------------------------------
# Classical position tampering
# ---------------------------------------------------------------------------


def tamper(**params):
    return AdversarySpec("classical_position_tamper", params)


def test_tamper_paired_detection_half_per_check():
    c = counters(tamper(count=1), n=3, m=8, check_rounds=4, decoy_count=2, trials=4000, seed=19)
    assert c["attack_tampered"] == c["attack_tampered_distinct"] == 4000
    assert abs(rate(c, "aborted", "trials") - 0.5) <= SIGMA3(0.5, 4000)


def test_tamper_relay_variant_is_immune():
    c = counters(tamper(count=4), n=3, m=8, check_rounds=4, decoy_count=2, variant=VARIANT_TP2_RELAY, trials=200,
                 seed=20)
    assert "aborted" not in c and c["attack_tampered"] == 0
    assert c["pairs_verdict_correct"] == c["pairs_total"] == 200 * 3


def test_tamper_random_policy_reports_distinct_pairs():
    c = counters(tamper(count=2, policy="random"), n=3, m=8, check_rounds=4, decoy_count=2, trials=500, seed=21)
    assert c["attack_tampered"] == 1000
    # Random preparations collide 1/8 of the time for three particles.
    assert 0 < c["attack_tampered_distinct"] < c["attack_tampered"]


def test_tamper_undetected_runs_can_complete_with_wrong_verdicts():
    # Equal secrets: honest verdicts are all "identical".  A completed run
    # accepts every verdict, so a verdict counted wrong is a wrong one accepted.
    c = counters(tamper(count=4), n=3, m=8, check_rounds=4, decoy_count=2, trials=800, seed=22,
                 secrets=SecretsSpec("explicit", [[0] * 8] * 3))
    assert c["completed"] > 0
    assert c.get("pairs_verdict_correct", 0) < c["pairs_total"]  # key misalignment corrupts results: the damage


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
        # A fresh strategy of the same params gets the very same tuples, so
        # the block engine's value-keyed register cache matches them at once.
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
