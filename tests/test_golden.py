"""Golden outputs: stats JSON and trial-0 transcripts, byte for byte.

Each case pins the exact counters of a small scenario (n=3, m=4, about 30
trials) or the full transcript ``qpcsim transcript`` writes for it, so any
change to the order of random draws, the protocol steps or the counter
extraction shows up here first.  Regenerate the files under
``tests/data/golden/`` only for a deliberate draw-order change::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from qpcsim.adversaries import ALL_KINDS, KIND_POSITION_TAMPER
from qpcsim.cli import EXIT_OK, main
from qpcsim.harness import run_scenario, scenario_from_config

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
    }


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


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    for case, doc in _stats_cases().items():
        (DATA / f"{case}.json").write_text(_stats_json(doc))
    with tempfile.TemporaryDirectory() as tmp:
        for case, doc in _transcript_cases().items():
            (DATA / f"{case}.json").write_text(_transcript_json(doc, Path(tmp)))
