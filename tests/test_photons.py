"""Decoy photon, channel, and public-discussion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim.ghz import Basis, GhzRegister, ghz_from_index, pair_xor
from qpcsim.photons import (
    CheckReport,
    DecoyState,
    Link,
    QuantumChannel,
    generate_decoys,
    interleave,
    public_discussion,
    replay_choice,
)


def make_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=987002, spawn_key=key))


def photons(states):
    """Photons in flight by themselves: their state and ids."""
    reg = GhzRegister([])
    return reg, reg.add_photons(states)


def test_generate_decoys_frequencies():
    count = 400_000
    draws = generate_decoys(count, make_rng(1))
    sigma = np.sqrt(0.25 * 0.75 / count)
    for state in DecoyState:
        freq = sum(1 for d in draws if d == state) / count
        assert abs(freq - 0.25) <= 3 * sigma
    assert generate_decoys(0, make_rng(2)) == []
    with pytest.raises(ValueError):
        generate_decoys(-1, make_rng(3))


def test_matching_basis_is_deterministic():
    rng = make_rng(4)
    for state in DecoyState:
        for _ in range(20):
            reg, ids = photons([state])
            assert reg.measure(ids, [Basis(state >> 1)], rng) == [state & 1]
            assert reg.slots[ids[0]] == state


def test_decoy_slot_rejects_non_states():
    for bad in (-1, 4, 2.5, "Z0", None):
        with pytest.raises(ValueError):
            photons([bad])


def test_wrong_basis_is_uniform_and_reprepares():
    rng = make_rng(5)
    trials = 4000
    ones = 0
    for _ in range(trials):
        reg, ids = photons([DecoyState.Z0])
        (bit,) = reg.measure(ids, [Basis.X], rng)
        ones += bit
        assert reg.slots[ids[0]] == (Basis.X << 1) | bit
    assert abs(ones / trials - 0.5) <= 3 * 0.5 / np.sqrt(trials)


def test_disturbance_chain_minus_through_z():
    # |-> measured in Z then re-measured in X by the receiver disagrees with
    # the original preparation half the time.
    rng = make_rng(6)
    trials = 4000
    mismatches = 0
    for _ in range(trials):
        reg, ids = photons([DecoyState.X_MINUS])
        reg.measure(ids, [Basis.Z], rng)
        mismatches += reg.measure(ids, [Basis.X], rng)[0] != DecoyState.X_MINUS & 1
    assert abs(mismatches / trials - 0.5) <= 3 * 0.5 / np.sqrt(trials)


def test_interleave_trivial_and_lengths():
    (_, draws), = interleave(0, 1, 1, make_rng(7))
    link = Link(None, [], [DecoyState.Z1], replay_choice(1, 1, draws))
    assert link.decoy_slots == [0]
    assert link.slots == [DecoyState.Z1]
    carriers = ["c0", "c1", "c2", "c3"]
    (decoys, draws), = interleave(len(carriers), 4, 1, make_rng(9))
    link = Link(None, carriers, decoys, replay_choice(len(carriers) + len(decoys), len(decoys), draws))
    assert len(link.slots) == 8 and len(link.decoy_slots) == 4


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12), st.integers())
@settings(max_examples=60, deadline=None)
def test_interleave_preserves_carrier_order(num_carriers, num_decoys, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=987003, spawn_key=(abs(seed_key) % 2**32,)))
    carriers = [f"carrier-{i}" for i in range(num_carriers)]
    (decoys, draws), = interleave(num_carriers, num_decoys, 1, rng)
    link = Link(None, carriers, decoys, replay_choice(num_carriers + num_decoys, num_decoys, draws))
    merged, positions = link.slots, link.decoy_slots
    assert len(merged) == num_carriers + num_decoys
    assert positions == sorted(positions) and len(set(positions)) == len(positions)
    survivors = [slot for slot in merged if isinstance(slot, str)]
    assert survivors == carriers == [s for p, s in enumerate(merged) if p not in positions]
    assert [merged[p] for p in positions] == [s for s in merged if not isinstance(s, str)] == decoys


def _draw_links_one_by_one(carriers, decoys, links, rng):
    """What ``interleave`` replaces: per link, its decoy states and its
    sorted decoy slots, each drawn by its own generator call."""
    drawn = []
    for _ in range(links):
        states = rng.integers(0, 4, size=decoys).tolist()
        drawn.append((states, sorted(rng.choice(carriers + decoys, size=decoys, replace=False).tolist())))
    return drawn


def _assert_one_call_equals_per_link_calls(population, decoys, links, key):
    rng, reference = make_rng(*key), make_rng(*key)
    carriers = population - decoys
    drawn = interleave(carriers, decoys, links, rng)
    merged = [(states, replay_choice(population, decoys, draws)) for states, draws in drawn]
    assert merged == _draw_links_one_by_one(carriers, decoys, links, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "population, decoys",
    # Generator.choice shuffles the tail of range(population) when
    # population > 10000 and decoys > population // 50, and samples by
    # Floyd's algorithm otherwise: both sides of both conditions.
    [(N, l) for N in (10000, 10001) for l in (0, 1, N // 50, N // 50 + 1, N)] + [(10001, 10000), (12000, 241)],
)
def test_one_call_draws_what_per_link_calls_draw_at_the_sampler_cutoffs(population, decoys):
    for links in range(1, 5):
        for seed in range(3):
            _assert_one_call_equals_per_link_calls(population, decoys, links, (30, population, decoys, links, seed))


def test_one_call_draws_what_per_link_calls_draw():
    setup = make_rng(31)
    for case in range(600):
        population = int(setup.integers(1, 70))
        decoys = int(setup.integers(0, population + 1))
        _assert_one_call_equals_per_link_calls(population, decoys, int(setup.integers(1, 5)), (32, case))


def test_public_discussion_honest_and_errors():
    rng = make_rng(10)
    for l in (0, 1, 5, 20):
        decoys = generate_decoys(l, rng)
        reg, ids = photons(decoys)
        bases = [Basis(d >> 1) for d in decoys]
        results = reg.measure(ids, bases, rng)
        report = public_discussion(bases, results, decoys)
        assert report == CheckReport(True, 0, l)
    with pytest.raises(ValueError):
        public_discussion([Basis.Z], [0, 1], [DecoyState.Z0])
    with pytest.raises(ValueError):
        public_discussion([Basis.X], [0], [DecoyState.Z0])
    assert public_discussion([Basis.Z], [1], [DecoyState.Z0], tolerance=1).passed


def test_intercept_resend_per_decoy_detection_quarter():
    rng = make_rng(11)
    trials = 40_000
    detected = 0
    for _ in range(trials):
        prep = generate_decoys(1, rng)[0]
        reg, ids = photons([prep])
        reg.measure(ids, [Basis(int(rng.integers(0, 2)))], rng, forward=True)
        detected += reg.measure(ids, [Basis(prep >> 1)], rng)[0] != prep & 1
    assert abs(detected / trials - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / trials)


def test_intercept_resend_sequence_detection_curve():
    rng = make_rng(12)
    trials = 4000
    for l in (1, 5, 10):
        target = 1 - 0.75**l
        detected = 0
        for _ in range(trials):
            decoys = generate_decoys(l, rng)
            reg, ids = photons(decoys)
            reg.measure(ids, rng.integers(0, 2, size=l).tolist(), rng, forward=True)
            results = reg.measure(ids, [Basis(d >> 1) for d in decoys], rng)
            detected += not public_discussion([Basis(d >> 1) for d in decoys], results, decoys).passed
        assert abs(detected / trials - target) <= 3 * np.sqrt(target * (1 - target) / trials)


def test_untapped_channel_preserves_register_correlations():
    rng = make_rng(13)
    spec = ghz_from_index(7, 4)
    for _ in range(200):
        register = GhzRegister([spec])
        link = Link(register, range(4), [], [])
        channel = QuantumChannel("TP1", "everyone")
        delivered = channel.transmit(link, rng)
        outcome = dict(zip(range(1, 5), delivered.measure([Basis.Z] * 4, rng)))
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert outcome[i] ^ outcome[j] == pair_xor(spec, i, j)


def test_taps_execute_in_registration_order():
    rng = make_rng(14)
    seen = []
    channel = QuantumChannel(
        "a", "b", taps=[lambda s, r: seen.append("first"), lambda s, r: seen.append("second")]
    )
    channel.transmit([], rng)
    assert seen == ["first", "second"]


def test_carrier_intercept_replaces_photon():
    rng = make_rng(15)
    spec = ghz_from_index(1, 2)
    register = GhzRegister([spec])
    link = Link(register, [0], [], [])
    (bit,) = link.measure([Basis.Z], rng, forward=True)
    # The forwarded photon is a decoy-state photon in the measured Z eigenstate.
    assert register.slots[0] in DecoyState.__members__.values()
    assert register.slots[0] == (Basis.Z << 1) | bit
    # The receiver now measures the forwarded photon, reproducibly.
    assert link.measure([Basis.Z], rng) == [bit]
    # The register branch matches what the interceptor saw.
    assert register.measure([1], [Basis.Z], rng) == [bit ^ pair_xor(spec, 1, 2)]
