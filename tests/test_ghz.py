"""Algebra and sampling tests for the shared-state family.

Expected values come from three independent sources: the published
three-particle examples (frozen below), hand expansions of tiny cases, and
the brute-force statevector oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from qpcsim.ghz import (
    Basis,
    ConsumedParticleError,
    GhzRegister,
    GhzSpec,
    OracleCapacityError,
    OracleRegister,
    ProductRegister,
    all_specs,
    ghz_from_index,
    oracle_outcome_counts,
    pair_xor,
    sample_measurement,
    sample_outcome_counts,
    x_expansion,
)


def make_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=987001, spawn_key=key))


# ---------------------------------------------------------------------------
# Index bijection
# ---------------------------------------------------------------------------


def test_index_examples():
    assert ghz_from_index(1, 3) == GhzSpec((0, 0, 0), 0)  # (|000>+|111>)/sqrt(2)
    assert ghz_from_index(5, 3) == GhzSpec((0, 1, 0), 0)  # (|010>+|101>)/sqrt(2)
    assert ghz_from_index(7, 4) == GhzSpec((0, 0, 1, 1), 0)  # (|0011>+|1100>)/sqrt(2)
    assert ghz_from_index(2, 2) == GhzSpec((0, 0), 1)  # (|00>-|11>)/sqrt(2)


def test_index_3_is_canonical_not_reflected():
    # The canonical mapping puts (|001>+|110>)/sqrt(2) at index 3; the state
    # (|011>+|100>)/sqrt(2) lives at index 7 once rewritten with a leading 0.
    assert ghz_from_index(3, 3) == GhzSpec((0, 0, 1), 0)
    assert GhzSpec((0, 1, 1), 0).index == 7


def test_index_round_trip_exhaustive():
    for n in range(2, 9):
        for i in range(1, 2**n + 1):
            assert ghz_from_index(i, n).index == i


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_index_round_trip_random(n, data):
    i = data.draw(st.integers(min_value=1, max_value=2**n))
    spec = ghz_from_index(i, n)
    assert spec.n == n
    assert spec.index == i


def test_index_range_errors():
    with pytest.raises(ValueError):
        ghz_from_index(0, 3)
    with pytest.raises(ValueError):
        ghz_from_index(9, 3)
    with pytest.raises(ValueError):
        ghz_from_index(1, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        GhzSpec((1, 0), 0)  # leading bit must be 0
    with pytest.raises(ValueError):
        GhzSpec((0, 2), 0)
    with pytest.raises(ValueError):
        GhzSpec((0, 0), 2)
    with pytest.raises(ValueError):
        GhzSpec((0,), 0)
    with pytest.raises(ValueError):
        GhzSpec(tuple([0] * 21), 0)


# ---------------------------------------------------------------------------
# X expansion
# ---------------------------------------------------------------------------


def test_x_expansion_published_examples():
    # (|010>+|101>)/sqrt(2) = (1/2)(|+++> - |+--> + |-+-> - |--+>)
    got = [(t.bits, t.sign) for t in x_expansion(GhzSpec((0, 1, 0), 0))]
    assert got == [((0, 0, 0), 1), ((0, 1, 1), -1), ((1, 0, 1), 1), ((1, 1, 0), -1)]
    # (|000>+|111>)/sqrt(2) = (1/2)(|+++> + |+--> + |-+-> + |--+>)
    got = [(t.bits, t.sign) for t in x_expansion(GhzSpec((0, 0, 0), 0))]
    assert got == [((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)]


def test_x_expansion_two_particles():
    # (|00>+|11>)/sqrt(2) = (|++> + |-->)/sqrt(2), by hand
    got = [(t.bits, t.sign) for t in x_expansion(GhzSpec((0, 0), 0))]
    assert got == [((0, 0), 1), ((1, 1), 1)]


def test_x_expansion_invariants_and_oracle_signs():
    for n in range(2, 7):
        for spec in all_specs(n):
            terms = x_expansion(spec)
            assert len(terms) == 2 ** (n - 1)
            assert all(sum(t.bits) % 2 == spec.delta for t in terms)
            if n > 5:
                continue
            reg = OracleRegister(spec)
            for p in range(1, n + 1):
                reg._hadamard(p)
            got = sorted(reg._signs.items())
            want = sorted(
                (sum(b << (n - 1 - k) for k, b in enumerate(t.bits)), t.sign) for t in terms
            )
            assert got == want


def test_x_expansion_recovers_z_terms():
    # Rotating the X terms back must leave exactly |q> and (-1)^delta |q~>.
    for spec in all_specs(3):
        reg = OracleRegister(spec)
        work = reg.clone()
        for p in range(1, 4):
            work._hadamard(p)
        for p in range(1, 4):
            work._hadamard(p)
        assert work._signs == reg._signs


# ---------------------------------------------------------------------------
# Pairwise XOR law
# ---------------------------------------------------------------------------


def test_pair_xor_examples():
    spec = ghz_from_index(7, 4)
    assert pair_xor(spec, 1, 2) == 0
    assert pair_xor(spec, 2, 4) == 1
    assert pair_xor(spec, 3, 3) == 0
    with pytest.raises(IndexError):
        pair_xor(spec, 0, 1)
    with pytest.raises(IndexError):
        pair_xor(spec, 1, 5)


def test_pair_xor_matches_sampled_outcomes():
    rng = make_rng(1)
    for spec in (ghz_from_index(1, 3), ghz_from_index(5, 3), ghz_from_index(7, 4)):
        for _ in range(500):
            outcome = sample_measurement(spec, range(1, spec.n + 1), Basis.Z, rng)
            for i in range(1, spec.n + 1):
                for j in range(i + 1, spec.n + 1):
                    assert outcome[i] ^ outcome[j] == pair_xor(spec, i, j)


# ---------------------------------------------------------------------------
# Register semantics
# ---------------------------------------------------------------------------


def test_z_measurements_share_one_branch():
    spec = ghz_from_index(5, 3)
    rng = make_rng(2)
    seen = set()
    for _ in range(200):
        reg = GhzRegister(spec)
        first = reg.measure([2], Basis.Z, rng)
        rest = reg.measure([1, 3], Basis.Z, rng)
        joint = (rest[1], first[2], rest[3])
        assert joint in (spec.q, spec.complement())
        seen.add(joint)
    assert seen == {spec.q, spec.complement()}


def test_register_consumption_errors():
    spec = ghz_from_index(1, 3)
    rng = make_rng(3)
    reg = GhzRegister(spec)
    reg.measure([1], Basis.Z, rng)
    with pytest.raises(ConsumedParticleError):
        reg.measure([1], Basis.X, rng)
    with pytest.raises(ValueError):
        GhzRegister(spec).measure([2, 2], Basis.Z, rng)
    with pytest.raises(ValueError):
        GhzRegister(spec).measure([], Basis.Z, rng)
    with pytest.raises(IndexError):
        GhzRegister(spec).measure([4], Basis.Z, rng)


@pytest.mark.parametrize(
    "make", [lambda: GhzRegister(ghz_from_index(5, 3)), lambda: ProductRegister((0, 1, 0))], ids=["ghz", "product"]
)
@pytest.mark.parametrize(
    "wrap", [lambda p: (p,), lambda p: [p], lambda p: (np.int64(p),)], ids=["tuple", "list", "numpy_int"]
)
def test_single_particle_measure_checks(make, wrap):
    rng = make_rng(15)
    for basis in (Basis.Z, Basis.X):
        for bad in (0, 4):
            with pytest.raises(IndexError):
                make().measure(wrap(bad), basis, rng)
        reg = make()
        out = reg.measure(wrap(2), basis, rng)
        assert list(out) == [2] and type(next(iter(out))) is int
        for again in (Basis.Z, Basis.X):
            with pytest.raises(ConsumedParticleError):
                reg.measure(wrap(2), again, rng)
        assert reg.consumed == {2}


@pytest.mark.parametrize("high", [2, 4])
def test_scalar_draws_match_one_sized_draw(high):
    # Registers and photons draw one bit (or decoy) at a time, and the
    # harness all secrets at once, where other draw shapes would give the
    # same values; the golden outputs rely on it.
    for k in (1, 2, 7, 64):
        one_at_a_time, sized = make_rng(16, high, k), make_rng(16, high, k)
        scalars = [int(one_at_a_time.integers(0, high)) for _ in range(k)]
        assert scalars == sized.integers(0, high, size=k).tolist(), (
            f"numpy {np.__version__}: {k} scalar integers(0, {high}) draws differ from one size={k} draw"
        )
        assert one_at_a_time.bit_generator.state == sized.bit_generator.state, (
            f"numpy {np.__version__}: {k} scalar integers(0, {high}) draws leave another generator state"
            f" than one size={k} draw"
        )
    # The harness draws n secrets of m bits as one (n, m) draw.
    for n, m in ((2, 1), (3, 16), (5, 7)):
        by_row, shaped = make_rng(17, high, n, m), make_rng(17, high, n, m)
        rows = [by_row.integers(0, high, size=m).tolist() for _ in range(n)]
        assert rows == shaped.integers(0, high, size=(n, m)).tolist(), (
            f"numpy {np.__version__}: {n} size={m} integers(0, {high}) draws differ from one size=({n}, {m}) draw"
        )
        assert by_row.bit_generator.state == shaped.bit_generator.state, (
            f"numpy {np.__version__}: {n} size={m} integers(0, {high}) draws leave another generator state"
            f" than one size=({n}, {m}) draw"
        )


def test_full_x_parity_always_matches():
    rng = make_rng(4)
    for spec in all_specs(3):
        for _ in range(300):
            outcome = sample_measurement(spec, [1, 2, 3], Basis.X, rng)
            assert sum(outcome.values()) % 2 == spec.delta


def test_sequential_x_measurements_compose_to_full_parity():
    spec = ghz_from_index(1, 4)
    rng = make_rng(5)
    for _ in range(300):
        reg = GhzRegister(spec)
        first = reg.measure([2], Basis.X, rng)
        second = reg.measure([1, 3], Basis.X, rng)
        third = reg.measure([4], Basis.X, rng)
        total = sum(first.values()) + sum(second.values()) + sum(third.values())
        assert total % 2 == spec.delta


def test_z_collapse_makes_later_x_uniform():
    spec = ghz_from_index(1, 3)
    rng = make_rng(6)
    ones = 0
    trials = 4000
    for _ in range(trials):
        reg = GhzRegister(spec)
        reg.measure([1], Basis.Z, rng)
        ones += reg.measure([2], Basis.X, rng)[2]
    assert abs(ones / trials - 0.5) < 3 * 0.5 / np.sqrt(trials)


def test_x_subset_then_z_keeps_branch_structure():
    spec = ghz_from_index(5, 3)
    rng = make_rng(7)
    for _ in range(300):
        reg = GhzRegister(spec)
        reg.measure([2], Basis.X, rng)
        rest = reg.measure([1, 3], Basis.Z, rng)
        assert (rest[1] ^ spec.q[0], rest[3] ^ spec.q[2]) in {(0, 0), (1, 1)}


# ---------------------------------------------------------------------------
# Analytic sampler vs statevector oracle
# ---------------------------------------------------------------------------


def _tvd(a, b, shots):
    return 0.5 * np.abs(a - b).sum() / shots


def test_batched_counts_match_single_shot_sampler():
    shots = 20_000
    combos = [
        (ghz_from_index(1, 3), (1, 2, 3), Basis.Z),
        (ghz_from_index(1, 3), (2, 3), Basis.X),
        (ghz_from_index(5, 3), (1, 2, 3), Basis.X),
        (ghz_from_index(2, 2), (1,), Basis.Z),
    ]
    for spec, positions, basis in combos:
        rng = make_rng(8, spec.index, len(positions), int(basis))
        batched = sample_outcome_counts(spec, positions, basis, rng, shots)
        loop = np.zeros_like(batched)
        for _ in range(shots):
            outcome = sample_measurement(spec, positions, basis, rng)
            pattern = 0
            for p in sorted(positions):
                pattern = (pattern << 1) | outcome[p]
            loop[pattern] += 1
        assert _tvd(batched, loop, shots) < 0.03


def test_sampler_oracle_equivalence_smoke():
    # Full-scale (n <= 4, 10^5 shots) equivalence runs in the acceptance
    # battery; this keeps a fast guard on every n = 2, 3 combination.
    shots = 20_000
    worst = 0.0
    for n in (2, 3):
        for spec in all_specs(n):
            for basis in (Basis.Z, Basis.X):
                for mask in range(1, 2**n):
                    positions = [p + 1 for p in range(n) if mask & (1 << p)]
                    rng_a = make_rng(9, n, spec.index, int(basis), mask, 0)
                    rng_b = make_rng(9, n, spec.index, int(basis), mask, 1)
                    a = sample_outcome_counts(spec, positions, basis, rng_a, shots)
                    b = oracle_outcome_counts(spec, positions, basis, rng_b, shots)
                    worst = max(worst, _tvd(a, b, shots))
    assert worst < 0.035


def test_proper_subset_x_is_uniform_chisquare():
    spec = ghz_from_index(1, 3)
    rng = make_rng(10)
    counts = sample_outcome_counts(spec, (2, 3), Basis.X, rng, 100_000)
    assert scipy_stats.chisquare(counts).pvalue > 0.001
    oracle_counts = oracle_outcome_counts(spec, (2, 3), Basis.X, rng, 100_000)
    assert scipy_stats.chisquare(oracle_counts).pvalue > 0.001


def test_oracle_exact_distributions():
    spec = ghz_from_index(1, 3)
    reg = OracleRegister(spec)
    z = reg.distribution([1, 2, 3], Basis.Z)
    assert z[0b000] == 0.5 and z[0b111] == 0.5 and z.sum() == 1.0
    x = reg.distribution([1, 2, 3], Basis.X)
    assert {i for i, p in enumerate(x) if p > 0} == {0b000, 0b011, 0b101, 0b110}
    assert np.all(x[x > 0] == 0.25)
    product = OracleRegister.from_product((0, 0, 0))
    px = product.distribution([1, 2, 3], Basis.X)
    assert np.all(px == 0.125)


def test_oracle_capacity_limit():
    with pytest.raises(OracleCapacityError):
        OracleRegister(GhzSpec(tuple([0] * 13), 0))
    rng = make_rng(11)
    outcome = OracleRegister(GhzSpec(tuple([0] * 12), 0)).measure([1, 12], Basis.Z, rng)
    assert outcome[1] == outcome[12]


def test_oracle_sequential_consistency_with_analytic_rules():
    # Measure one particle in X, then the rest in Z: the Z block must stay
    # perfectly correlated and both branches must occur.
    spec = ghz_from_index(1, 3)
    rng = make_rng(12)
    branches = set()
    for _ in range(200):
        reg = OracleRegister(spec)
        reg.measure([2], Basis.X, rng)
        rest = reg.measure([1, 3], Basis.Z, rng)
        assert rest[1] == rest[3]
        branches.add(rest[1])
    assert branches == {0, 1}


def test_oracle_mixed_basis_measurement():
    spec = ghz_from_index(1, 3)
    rng = make_rng(13)
    for _ in range(200):
        reg = OracleRegister(spec)
        out = reg.measure_mixed({1: Basis.Z, 2: Basis.X}, rng)
        third = reg.measure([3], Basis.Z, rng)
        assert third[3] == out[1]


def test_product_register_semantics():
    rng = make_rng(14)
    reg = ProductRegister((0, 1, 0))
    assert reg.measure([1, 2, 3], Basis.Z, rng) == {1: 0, 2: 1, 3: 0}
    ones = 0
    trials = 4000
    for _ in range(trials):
        ones += ProductRegister((0, 0)).measure([1], Basis.X, rng)[1]
    assert abs(ones / trials - 0.5) < 3 * 0.5 / np.sqrt(trials)
