"""Every closed-form target an adversary kind states, held against runs.

Each kind states its exact targets as ``Fraction``s through its
``targets(scenario)``, and a run prints each as a float.  For each (kind,
policy, variant) that states targets, a few thousand trials at two or three
shapes must meet each target: exactly where it is 0 or 1, otherwise within
4 sigma.  A second test fails when a shape gets targets that no guarded
shape covers, so a new target cannot skip the guard, and holds every stated
target to a ``Fraction`` in [0, 1] that its run prints as its float.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

from qpcsim.adversaries import (
    ALL_KINDS,
    KIND_EVE,
    KIND_POSITION_TAMPER,
    KIND_TP1_FAKE_STATE,
    KIND_TP2_INTERCEPT,
    POLICY_PAIRED,
    POLICY_RANDOM,
)
from qpcsim.errors import ConfigError
from qpcsim.harness import PROTOCOLS, run_scenario, scenario_from_config
from qpcsim.protocol import VARIANT_BROADCAST, VARIANT_TP2_RELAY, VARIANTS

TRIALS = 1200


def _doc(n, m, kind, params=None, variant=VARIANT_BROADCAST, **fields):
    doc = {"schema_version": 1, "n": n, "m": m, "variant": variant, "trials": TRIALS, "seed": 5150}
    doc["adversary"] = {"kind": kind, "params": params or {}}
    doc.update(fields)
    return doc


def _targets(scenario):
    return scenario.validate().targets(scenario)


def _key(scenario):
    """What a target rests on besides the sizes: the adversary kind, its
    tamper policy or whether it fakes the default all-|0> preparation, and
    the variant."""
    params = scenario.adversary.params
    form = None
    if scenario.adversary.kind == KIND_POSITION_TAMPER:
        form = params.get("policy", POLICY_PAIRED)
    elif scenario.adversary.kind == KIND_TP1_FAKE_STATE:
        form = "zeros" if params.get("true_state", "zeros") == "zeros" and params.get("claimed") is None else "named"
    return scenario.adversary.kind, form, scenario.variant


def _intercept_shapes(kind, variant):
    return [
        _doc(2, 1, kind, {"links": [1]}, variant, decoy_count=3),
        _doc(3, 1, kind, {"links": [3, 1, 3]}, variant, decoy_count=2, decoy_tolerance=1),
    ]


_GUARDED = {
    **{(kind, None, variant): _intercept_shapes(kind, variant) for kind in (KIND_EVE, KIND_TP2_INTERCEPT)
       for variant in VARIANTS},
    **{
        (KIND_TP1_FAKE_STATE, "zeros", variant): [
            _doc(3, 4, KIND_TP1_FAKE_STATE, variant=variant, check_rounds=4, decoy_count=1),
            _doc(2, 3, KIND_TP1_FAKE_STATE, variant=variant, check_rounds=2, decoy_count=0),
        ]
        for variant in VARIANTS
    },
    # Each tampered round finds an unchecked register of the other parity:
    # m - c >= count of them are left.
    (KIND_POSITION_TAMPER, POLICY_PAIRED, VARIANT_BROADCAST): [
        _doc(3, 8, KIND_POSITION_TAMPER, {"count": 1}, check_rounds=4, decoy_count=1),
        _doc(2, 10, KIND_POSITION_TAMPER, {"count": 3}, check_rounds=5, decoy_count=0),
        _doc(4, 6, KIND_POSITION_TAMPER, {"count": 2}, check_rounds=3, decoy_count=0),
    ],
}
# The baseline's links carry m decoys unless decoy_count says otherwise.
_GUARDED[KIND_EVE, None, VARIANT_BROADCAST].append(
    _doc(2, 2, KIND_EVE, {"links": [2]}, protocol="zhang_baseline", check_rounds=1)
)
_GUARDED[KIND_TP1_FAKE_STATE, "zeros", VARIANT_BROADCAST].append(
    _doc(2, 3, KIND_TP1_FAKE_STATE, protocol="zhang_baseline", check_rounds=3)
)


@pytest.mark.parametrize(
    "key, index", [(key, i) for key, docs in _GUARDED.items() for i in range(len(docs))], ids=str
)
def test_targeted_metrics_meet_their_targets(key, index):
    scenario = scenario_from_config(_GUARDED[key][index])
    assert _key(scenario) == key
    rows = [row for row in run_scenario(scenario).rows if row.target is not None]
    assert {row.name for row in rows} == set(_targets(scenario))
    for row in rows:
        if row.target in (0.0, 1.0):
            assert row.estimate == row.target, row
        else:
            sigma = math.sqrt(row.target * (1 - row.target) / row.count)
            assert abs(row.estimate - row.target) <= 4 * sigma, row


def _every_shape():
    """A small scenario of every protocol, kind, parameter form and variant
    that validates."""
    forms = {
        KIND_EVE: [{"links": [1]}, {"links": [1, 2], "victim": 2}],
        KIND_TP2_INTERCEPT: [{"links": [2], "victim": 1}],
        KIND_TP1_FAKE_STATE: [{}, {"true_state": {"q": "00", "delta": 1}}, {"claimed": {"q": "01", "delta": 0}}],
        KIND_POSITION_TAMPER: [{"policy": POLICY_PAIRED}, {"policy": POLICY_RANDOM}, {"count": 0}],
    }
    for protocol in PROTOCOLS:
        for kind in ALL_KINDS:
            for params in forms.get(kind, [{}]):
                for variant in VARIANTS:
                    try:
                        yield scenario_from_config(_doc(2, 4, kind, params, variant, protocol=protocol))
                    except ConfigError:
                        pass


def test_every_shape_with_targets_is_guarded():
    shapes = list(_every_shape())
    assert len(shapes) > 30
    unguarded = [(s.protocol, _key(s)) for s in shapes if _targets(s) and _key(s) not in _GUARDED]
    assert unguarded == []
    for shape in shapes:
        targets = _targets(shape)
        assert all(isinstance(t, Fraction) and 0 <= t <= 1 for t in targets.values()), targets
        printed = {row.name: row.target for row in run_scenario(dataclasses.replace(shape, trials=40)).rows}
        assert printed == {name: float(targets[name]) if name in targets else None for name in printed}
    # The relayed tamper and the random policy get no target.
    assert not _targets(scenario_from_config(_doc(2, 4, KIND_POSITION_TAMPER, {}, VARIANT_TP2_RELAY)))
    assert not _targets(scenario_from_config(_doc(2, 4, KIND_POSITION_TAMPER, {"policy": POLICY_RANDOM})))
