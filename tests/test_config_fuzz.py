"""Config fuzzing: a document one field away from a valid one either
validates or is rejected with a ``ConfigError``, never another exception
(which the CLI would report as a runtime error, exit 2)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim.adversaries import ALL_KINDS
from qpcsim.errors import ConfigError
from qpcsim.harness import scenario_from_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

# Every param of every adversary kind, set to a valid value for n = 3.
_PARAMS = {
    "none": {},
    "eve_intercept_resend": {"links": [1, 2], "victim": 1},
    "tp2_intercept": {"links": [3], "victim": 2},
    "tp1_fake_initial_state": {"true_state": {"q": "000", "delta": 1}, "claimed": {"q": "011", "delta": 0}},
    "tp1_fake_result": {"pairs": [[1, 2], [3, 2]]},
    "tp2_fake_result": {"pairs": "all"},
    "participant_infer": {"attacker": 1, "victim": 3, "counterfactual": True},
    "classical_position_tamper": {
        "count": 2,
        "policy": "random",
        "pair": [{"q": "000", "delta": 0}, {"q": "011", "delta": 0}],
    },
}
# The same for the baseline's n = 2, for every kind the baseline accepts.
_BASELINE_PARAMS = {
    "none": {},
    "eve_intercept_resend": {"links": [2, 1], "victim": 2},
    "tp1_fake_initial_state": {"true_state": {"q": "00", "delta": 1}, "claimed": {"q": "01", "delta": 0}},
    "tp1_fake_result": {"pairs": [[2, 1]]},
    "participant_infer": {"attacker": 2, "victim": 1, "counterfactual": True},
}
# Each protocol's params and explicit secrets (a row per participant).
_PROTOCOLS = {
    "proposed": (_PARAMS, [[0, 1, 0, 1], [1, 1, 0, 0], [0, 1, 0, 1]]),
    "zhang_baseline": (_BASELINE_PARAMS, [[0, 1, 0, 1], [1, 1, 0, 0]]),
}
# The starting documents: (protocol, kind).
_STARTS = [(protocol, kind) for protocol, (params, _) in _PROTOCOLS.items() for kind in params]

_TOP = (
    "schema_version", "protocol", "n", "m", "check_rounds", "decoy_count", "variant", "adversary",
    "secrets", "trials", "seed", "announce_r_vectors", "decoy_tolerance", "output",
)
_NESTED = (
    ("adversary", "kind"), ("adversary", "params"), ("secrets", "policy"), ("secrets", "values"),
    ("output", "path"), ("output", "format"),
)

# Arbitrary JSON, biased towards the words and small numbers the schema uses.
_WORDS = (
    "all", "zeros", "json", "csv", "explicit", "random", "none", "q", "delta", "proposed", "zhang_baseline",
    "tp2_relay",
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(_WORDS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(_WORDS), children, max_size=3),
    max_leaves=10,
)


def _valid(kind: str, protocol: str = "proposed") -> dict:
    params, values = _PROTOCOLS[protocol]
    return {
        "schema_version": 1,
        "protocol": protocol,
        "n": len(values),
        "m": 4,
        "check_rounds": 2,
        "decoy_count": 4,
        "variant": "classical_broadcast",
        "adversary": {"kind": kind, "params": json.loads(json.dumps(params[kind]))},
        "secrets": {"policy": "explicit", "values": json.loads(json.dumps(values))},
        "trials": 10,
        "seed": 1,
        "announce_r_vectors": False,
        "decoy_tolerance": 0,
        "output": {"path": "out.json", "format": "csv"},
    }


def _fields(kind: str, protocol: str) -> list:
    params = _PROTOCOLS[protocol][0][kind]
    return [(key,) for key in _TOP] + list(_NESTED) + [("adversary", "params", p) for p in params]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fuzz_starting_documents_validate(kind):
    scenario_from_config(_valid(kind))


@pytest.mark.parametrize("kind", _BASELINE_PARAMS)
def test_baseline_starting_documents_validate(kind):
    scenario_from_config(_valid(kind, "zhang_baseline"))


# So the baseline's starting documents hold every kind it accepts.
@pytest.mark.parametrize("kind", [kind for kind in ALL_KINDS if kind not in _BASELINE_PARAMS])
def test_baseline_rejects_every_other_kind(kind):
    doc = _valid("none", "zhang_baseline")
    doc["adversary"] = {"kind": kind}
    with pytest.raises(ConfigError, match="`adversary.kind`"):
        scenario_from_config(doc)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    scenario_from_config(json.loads(path.read_text()))


@settings(max_examples=400, deadline=None)
@given(start=st.sampled_from(_STARTS), data=st.data(), value=_JSON)
def test_one_field_off_validates_or_raises_config_error(start, data, value):
    protocol, kind = start
    doc = _valid(kind, protocol)
    *parents, last = data.draw(st.sampled_from(_fields(kind, protocol)))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        scenario_from_config(doc)
    except ConfigError:
        pass
