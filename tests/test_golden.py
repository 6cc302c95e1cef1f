"""Golden outputs: stats JSON and trial-0 transcripts, byte for byte.

Each case pins the exact counters of a small scenario (n=3, m=4, about 30
trials) or the full transcript ``qpcsim transcript`` writes for it, so any
change to the order of random draws, the protocol steps or the counter
extraction shows up here first.  A sha256 per battery shape also pins the
transcripts of its first 40 trials.  Regenerate the files under
``tests/data/golden/`` only for a deliberate draw-order change::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from qpcsim.adversaries import (ALL_KINDS, KIND_EVE, KIND_POSITION_TAMPER, KIND_TP1_FAKE_RESULT, KIND_TP1_FAKE_STATE,
                                KIND_TP2_FAKE_RESULT)
from qpcsim.cli import EXIT_OK, main
from qpcsim.harness import AdversarySpec, Scenario, SecretsSpec, run_scenario, run_trial, scenario_from_config
from qpcsim.suites import _SCENARIOS

DATA = Path(__file__).parent / "data" / "golden"

# Intercepting kinds get a victim so their guessing is scored, and only two
# decoys so that some runs get past the decoy check.
_KIND_PARAMS = {
    "eve_intercept_resend": ({"links": [1], "victim": 1}, 2),
    "tp2_intercept": ({"links": [1], "victim": 1}, 2),
}


def _doc(**fields) -> dict:
    doc = {"schema_version": 1, "protocol": "proposed", "n": 3, "m": 4, "trials": 30, "seed": 4242}
    doc.update(fields)
    return doc


def _adversary(kind: str, params=None) -> dict:
    return {"kind": kind, "params": params or {}}


def _stats_cases() -> dict:
    cases = {}
    for kind in ALL_KINDS:
        params, decoys = _KIND_PARAMS.get(kind, ({}, None))
        cases[f"proposed_{kind}"] = _doc(adversary=_adversary(kind, params), decoy_count=decoys)
    cases["proposed_tamper_relay"] = _doc(
        variant="tp2_relay", adversary=_adversary(KIND_POSITION_TAMPER, {"count": 2})
    )
    cases["proposed_tamper_random"] = _doc(
        adversary=_adversary(KIND_POSITION_TAMPER, {"count": 2, "policy": "random"})
    )
    cases["proposed_participant_infer_counterfactual"] = _doc(
        adversary=_adversary("participant_infer", {"attacker": 1, "victim": 2, "counterfactual": True})
    )
    # A wrong phase passes every Z round, so with one check round about
    # half the runs survive and the preparer guesses bits.
    cases["proposed_tp1_fake_initial_state_entangled"] = _doc(
        check_rounds=1,
        adversary=_adversary(
            "tp1_fake_initial_state", {"true_state": {"q": "000", "delta": 1}, "claimed": {"q": "000", "delta": 0}}
        ),
    )
    cases["proposed_tp2_fake_result_pairs"] = _doc(adversary=_adversary("tp2_fake_result", {"pairs": [[1, 3]]}))
    # Several tapped links: later taps hit registers whose branch or parity
    # an earlier intercept already fixed.
    cases["proposed_eve_three_links"] = _doc(
        decoy_count=2, adversary=_adversary("eve_intercept_resend", {"links": [1, 2, 3], "victim": 1})
    )
    cases["proposed_tp2_intercept_two_links"] = _doc(
        decoy_count=2, adversary=_adversary("tp2_intercept", {"links": [1, 2], "victim": 2})
    )
    # A tolerated mismatch lets runs with disturbed decoys reach steps 3-7.
    cases["proposed_eve_tolerance"] = _doc(
        decoy_count=2, decoy_tolerance=1, adversary=_adversary("eve_intercept_resend", {"links": [1], "victim": 1})
    )
    # Secrets drawn until they differ keep a run on the per-trial path: a
    # tolerated tap, whose disturbed decoys are measured, and a fake preparation.
    unequal = {"policy": "forced_unequal"}
    cases["proposed_eve_tolerance_unequal"] = _doc(
        decoy_count=2, decoy_tolerance=1, secrets=unequal,
        adversary=_adversary("eve_intercept_resend", {"links": [1], "victim": 1}),
    )
    cases["proposed_tp1_fake_initial_state_unequal"] = _doc(secrets=unequal, adversary=_adversary(KIND_TP1_FAKE_STATE))
    baseline = dict(protocol="zhang_baseline", n=2)
    cases["zhang_none"] = _doc(**baseline)
    cases["zhang_tp1_fake_result"] = _doc(**baseline, adversary=_adversary("tp1_fake_result"))
    cases["zhang_eve"] = _doc(
        **baseline, decoy_count=1, adversary=_adversary("eve_intercept_resend", {"links": [1], "victim": 1})
    )
    cases["zhang_check2"] = _doc(**baseline, check_rounds=2)
    cases["zhang_eve_check2"] = _doc(
        **baseline, check_rounds=2, decoy_count=1, adversary=_adversary("eve_intercept_resend", {"links": [2]})
    )
    return cases


def _transcript_cases() -> dict:
    return {
        "transcript_proposed": _doc(trials=1),
        "transcript_proposed_tamper": _doc(trials=1, adversary=_adversary(KIND_POSITION_TAMPER, {"count": 2})),
        "transcript_zhang": _doc(protocol="zhang_baseline", n=2, trials=1, check_rounds=2),
        # Trial 0 of each of these takes the path its name gives (asserted below).
        "transcript_eve_decoy_abort": _doc(trials=1, adversary=_adversary("eve_intercept_resend", {"links": [1]})),
        "transcript_eve_tolerated": _doc(
            trials=1, decoy_count=2, decoy_tolerance=1, adversary=_adversary("eve_intercept_resend", {"links": [1]})
        ),
        "transcript_fake_state": _doc(trials=1, adversary=_adversary("tp1_fake_initial_state")),
        "transcript_tp1_flip": _doc(trials=1, adversary=_adversary(KIND_TP1_FAKE_RESULT)),
    }


def _battery_shapes() -> dict:
    """Every suite scenario, plus shapes the suite does not run."""
    shapes = {key: template for key, (_, template) in _SCENARIOS.items()}
    shapes.update(
        baseline_check0=Scenario(protocol="zhang_baseline", n=2, m=4, check_rounds=0),
        proposed_check0=Scenario(n=3, m=4, check_rounds=0),
        tamper_random=Scenario(
            n=3, m=8, check_rounds=4, decoy_count=2,
            adversary=AdversarySpec(KIND_POSITION_TAMPER, {"count": 2, "policy": "random"}),
        ),
        eve_two_links_tolerated=Scenario(
            n=3, m=4, decoy_count=3, decoy_tolerance=2, adversary=AdversarySpec(KIND_EVE, {"links": [1, 2], "victim": 1})
        ),
        tp2_flip_pairs=Scenario(n=3, m=4, adversary=AdversarySpec(KIND_TP2_FAKE_RESULT, {"pairs": [[1, 3]]})),
        forced_equal=Scenario(n=3, m=4, secrets=SecretsSpec(policy="forced_equal")),
        r_vectors_tp1_flip=Scenario(n=3, m=4, announce_r_vectors=True, adversary=AdversarySpec(KIND_TP1_FAKE_RESULT)),
        # Link 2's decoys are checked, and listed, in trials whose link 1 failed.
        eve_links_1_2=Scenario(n=3, m=4, decoy_count=3, adversary=AdversarySpec(KIND_EVE, {"links": [1, 2]})),
        fake_state_unequal=Scenario(n=3, m=4, secrets=SecretsSpec(policy="forced_unequal"),
                                    adversary=AdversarySpec(KIND_TP1_FAKE_STATE)),
    )
    return shapes


def _transcript_digests() -> dict:
    """The sha256 of the transcripts of trials 0-39 at seed 3, per shape."""
    digests = {}
    for key, template in _battery_shapes().items():
        scenario = replace(template, seed=3)
        digest = hashlib.sha256()
        for trial in range(40):
            digest.update(run_trial(scenario, trial).to_json().encode())
        digests[key] = digest.hexdigest()
    return digests


def _stats_json(doc: dict) -> str:
    return run_scenario(scenario_from_config(doc)).to_json()


def _transcript_json(doc: dict, workdir: Path) -> str:
    cfg = workdir / "golden_config.json"
    out = workdir / "golden_transcript.json"
    cfg.write_text(json.dumps(doc))
    assert main(["transcript", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out.read_text()


@pytest.mark.parametrize("name", sorted(_stats_cases()))
def test_stats_match_golden(name):
    assert _stats_json(_stats_cases()[name]) == (DATA / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(_transcript_cases()))
def test_transcript_matches_golden(name, tmp_path):
    assert _transcript_json(_transcript_cases()[name], tmp_path) == (DATA / f"{name}.json").read_text()


def test_transcripts_of_every_battery_shape_match_their_digests():
    expected = json.loads((DATA / "transcript_digests.json").read_text())
    got = _transcript_digests()
    assert got.keys() == expected.keys()
    assert [key for key in got if got[key] != expected[key]] == []


def _golden_result(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())["result"]


def test_eve_transcript_aborts_on_a_disturbed_decoy():
    result = _golden_result("transcript_eve_decoy_abort")
    assert (result["abort_step"], result["abort_cause"]) == (2, "decoy_mismatch")
    link1, *others = result["decoy_checks"]
    assert not link1["passed"] and link1["mismatches"] > 0
    assert all(check["passed"] and check["mismatches"] == 0 for check in others)


def test_eve_transcript_passes_step2_with_a_tolerated_mismatch():
    result = _golden_result("transcript_eve_tolerated")
    assert result["abort_step"] != 2
    assert [(c["passed"], c["mismatches"]) for c in result["decoy_checks"]] == [(True, 1), (True, 0), (True, 0)]


def test_fake_state_transcript_hands_out_product_states():
    result = _golden_result("transcript_fake_state")
    assert result["true_states"] == [{"kind": "product", "bits": "000"}] * 8
    assert result["claimed_states"] == [{"q": "000", "delta": 0}] * 8


def test_tp1_flip_transcript_aborts_on_conflicting_announcements():
    doc = json.loads((DATA / "transcript_tp1_flip.json").read_text())
    result = doc["result"]
    assert (result["abort_step"], result["abort_cause"], result["arbiter"]) == (7, "announcement_conflict", "TP1")
    assert all(not info["accepted"] for info in result["pairs"].values())
    *_, abort, liar = doc["events"]
    assert abort == {"step": 7, "actor": "protocol", "kind": "abort", "payload": {"cause": "announcement_conflict"}}
    assert liar == {"step": 7, "actor": "Arbiter", "kind": "liar_identified", "payload": {"liar": "TP1"}}


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    for case, doc in _stats_cases().items():
        (DATA / f"{case}.json").write_text(_stats_json(doc))
    with tempfile.TemporaryDirectory() as tmp:
        for case, doc in _transcript_cases().items():
            (DATA / f"{case}.json").write_text(_transcript_json(doc, Path(tmp)))
    (DATA / "transcript_digests.json").write_text(json.dumps(_transcript_digests(), indent=2) + "\n")
