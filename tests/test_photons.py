"""Decoy photon, channel, and public-discussion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim.ghz import Basis, GhzRegister, ghz_from_index, pair_xor
from qpcsim.photons import (
    CarrierSlot,
    CheckReport,
    DecoySlot,
    DecoyState,
    QuantumChannel,
    generate_decoys,
    interleave,
    public_discussion,
)


def make_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=987002, spawn_key=key))


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
            photon = DecoySlot(state)
            assert photon.measure(Basis(state >> 1), rng) == state & 1
            assert photon.state == state


def test_decoy_slot_rejects_non_states():
    for bad in (-1, 4, 2.5, "Z0", None):
        with pytest.raises(ValueError):
            DecoySlot(bad)


def test_wrong_basis_is_uniform_and_reprepares():
    rng = make_rng(5)
    trials = 4000
    ones = 0
    for _ in range(trials):
        photon = DecoySlot(DecoyState.Z0)
        bit = photon.measure(Basis.X, rng)
        ones += bit
        assert photon.state == (Basis.X << 1) | bit
    assert abs(ones / trials - 0.5) <= 3 * 0.5 / np.sqrt(trials)


def test_disturbance_chain_minus_through_z():
    # |-> measured in Z then re-measured in X by the receiver disagrees with
    # the original preparation half the time.
    rng = make_rng(6)
    trials = 4000
    mismatches = 0
    for _ in range(trials):
        photon = DecoySlot(DecoyState.X_MINUS)
        photon.measure(Basis.Z, rng)
        mismatches += photon.measure(Basis.X, rng) != DecoyState.X_MINUS & 1
    assert abs(mismatches / trials - 0.5) <= 3 * 0.5 / np.sqrt(trials)


def test_interleave_trivial_and_lengths():
    merged, positions = interleave([], [DecoyState.Z1], make_rng(7))
    assert positions == [1]
    assert len(merged) == 1 and merged[0].is_decoy
    carriers = ["c0", "c1", "c2", "c3"]
    merged, positions = interleave(carriers, generate_decoys(4, make_rng(8)), make_rng(9))
    assert len(merged) == 8 and len(positions) == 4


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12), st.integers())
@settings(max_examples=60, deadline=None)
def test_interleave_preserves_carrier_order(num_carriers, num_decoys, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=987003, spawn_key=(abs(seed_key) % 2**32,)))
    carriers = [f"carrier-{i}" for i in range(num_carriers)]
    decoys = generate_decoys(num_decoys, rng)
    merged, positions = interleave(carriers, decoys, rng)
    assert len(merged) == num_carriers + num_decoys
    assert positions == sorted(positions) and len(set(positions)) == len(positions)
    survivors = [slot for slot in merged if not isinstance(slot, DecoySlot)]
    assert survivors == carriers
    assert [merged[p - 1] for p in positions] == [s for s in merged if isinstance(s, DecoySlot)]


def test_public_discussion_honest_and_errors():
    rng = make_rng(10)
    for l in (0, 1, 5, 20):
        decoys = generate_decoys(l, rng)
        photons = [DecoySlot(d) for d in decoys]
        bases = [Basis(d >> 1) for d in decoys]
        results = [p.measure(b, rng) for p, b in zip(photons, bases)]
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
        slot = DecoySlot(prep)
        slot.intercept(Basis(int(rng.integers(0, 2))), rng)
        detected += slot.measure(Basis(prep >> 1), rng) != prep & 1
    assert abs(detected / trials - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / trials)


def test_intercept_resend_sequence_detection_curve():
    rng = make_rng(12)
    trials = 4000
    for l in (1, 5, 10):
        target = 1 - 0.75**l
        detected = 0
        for _ in range(trials):
            decoys = generate_decoys(l, rng)
            slots = [DecoySlot(d) for d in decoys]
            for slot, eve_basis in zip(slots, rng.integers(0, 2, size=l)):
                slot.intercept(Basis(int(eve_basis)), rng)
            results = [slot.measure(Basis(d >> 1), rng) for slot, d in zip(slots, decoys)]
            detected += not public_discussion([Basis(d >> 1) for d in decoys], results, decoys).passed
        assert abs(detected / trials - target) <= 3 * np.sqrt(target * (1 - target) / trials)


def test_untapped_channel_preserves_register_correlations():
    rng = make_rng(13)
    spec = ghz_from_index(7, 4)
    for _ in range(200):
        register = GhzRegister(spec)
        slots = [CarrierSlot(register, 0, k) for k in range(1, 5)]
        channel = QuantumChannel("TP1", "everyone")
        delivered = channel.transmit(slots, rng)
        outcome = {slot.particle: slot.measure(Basis.Z, rng) for slot in delivered}
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
    register = GhzRegister(spec)
    slot = CarrierSlot(register, 0, 1)
    bit = slot.intercept(Basis.Z, rng)
    # The forwarded photon is a decoy-state photon in the measured Z eigenstate.
    assert isinstance(slot.replacement, DecoySlot)
    assert slot.replacement.state == (Basis.Z << 1) | bit
    # The receiver now measures the forwarded photon, reproducibly.
    assert slot.measure(Basis.Z, rng) == bit
    # The register branch matches what the interceptor saw.
    assert register.measure([2], Basis.Z, rng)[2] == bit ^ pair_xor(spec, 1, 2)
