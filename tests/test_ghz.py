"""Algebra and sampling tests for the shared-state family.

Expected values come from three independent sources: the published
three-particle examples (frozen below), hand expansions of tiny cases, and
the brute-force statevector oracle.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcsim.ghz import (
    Basis,
    HELD,
    MEASURED,
    ConsumedParticleError,
    GhzRegister,
    GhzSpec,
    OracleCapacityError,
    OracleRegister,
    ProductRegister,
    all_specs,
    ghz_from_index,
    pair_xor,
    x_expansion,
)
from qpcsim.stream import Stream
from qpcsim.suites import _FairBits


def seed_sequence(*key):
    return np.random.SeedSequence(entropy=987001, spawn_key=key)


def make_rng(*key):
    return Stream(np.random.PCG64(seed_sequence(*key)))


def measure(reg, particles, basis, rng, register=0):
    """Measure some 1-based particles of one register in one basis; the
    outcomes by particle."""
    particles = [int(p) for p in particles]
    ids = [register * reg.particles + p - 1 for p in particles]
    return dict(zip(particles, reg.measure(ids, [basis] * len(ids), rng)))


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
            outcome = measure(GhzRegister([spec]), range(1, spec.n + 1), Basis.Z, rng)
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
        reg = GhzRegister([spec])
        first = measure(reg, [2], Basis.Z, rng)
        rest = measure(reg, [1, 3], Basis.Z, rng)
        joint = (rest[1], first[2], rest[3])
        assert joint in (spec.q, spec.complement())
        seen.add(joint)
    assert seen == {spec.q, spec.complement()}


def test_register_consumption_errors():
    spec = ghz_from_index(1, 3)
    rng = make_rng(3)
    reg = GhzRegister([spec])
    measure(reg, [1], Basis.Z, rng)
    with pytest.raises(ConsumedParticleError):
        measure(reg, [1], Basis.X, rng)
    with pytest.raises(ValueError):
        measure(GhzRegister([spec]), [2, 2], Basis.Z, rng)
    with pytest.raises(ValueError):
        OracleRegister(spec).measure([], Basis.Z, rng)
    with pytest.raises(IndexError):
        measure(GhzRegister([spec]), [4], Basis.Z, rng)


@pytest.mark.parametrize(
    "make", [lambda: GhzRegister([ghz_from_index(5, 3)]), lambda: ProductRegister([(0, 1, 0)])], ids=["ghz", "product"]
)
@pytest.mark.parametrize(
    "wrap", [lambda p: (p,), lambda p: [p], lambda p: (np.int64(p),)], ids=["tuple", "list", "numpy_int"]
)
def test_single_particle_measure_checks(make, wrap):
    rng = make_rng(15)
    for basis in (Basis.Z, Basis.X):
        for bad in (0, 4):
            with pytest.raises(IndexError):
                measure(make(), wrap(bad), basis, rng)
        # Ids count from 0 over the three particles, with no wrap-around.
        for bad in (-1, 3):
            reg = make()
            with pytest.raises(IndexError):
                reg.measure(wrap(bad), [basis], rng)
            assert reg.slots == [HELD] * 3
        reg = make()
        out = measure(reg, wrap(2), basis, rng)
        assert list(out) == [2] and type(out[2]) is int
        for again in (Basis.Z, Basis.X):
            with pytest.raises(ConsumedParticleError):
                measure(reg, wrap(2), again, rng)
        assert [i + 1 for i, state in enumerate(reg.slots) if state == MEASURED] == [2]


@pytest.mark.parametrize("high", [2, 4])
def test_scalar_draws_match_one_sized_draw(high):
    # Registers and photons draw one bit (or decoy) at a time, and the
    # harness all secrets at once, where other draw shapes would give the
    # same values; the golden outputs rely on it.
    for k in (1, 2, 7, 64):
        one_at_a_time, sized = (np.random.default_rng(seed_sequence(16, high, k)) for _ in range(2))
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
        by_row, shaped = (np.random.default_rng(seed_sequence(17, high, n, m)) for _ in range(2))
        rows = [by_row.integers(0, high, size=m).tolist() for _ in range(n)]
        assert rows == shaped.integers(0, high, size=(n, m)).tolist(), (
            f"numpy {np.__version__}: {n} size={m} integers(0, {high}) draws differ from one size=({n}, {m}) draw"
        )
        assert by_row.bit_generator.state == shaped.bit_generator.state, (
            f"numpy {np.__version__}: {n} size={m} integers(0, {high}) draws leave another generator state"
            f" than one size=({n}, {m}) draw"
        )
    # The trial core counts each run of bit draws and makes it one sized
    # draw, between draws of other ranges and shapes that stay as they are:
    # decoys, preparation indices, check positions and the tamperer's pick.
    for seq in range(100):
        plan = np.random.default_rng([18, high, seq])
        ops = []
        for _ in range(int(plan.integers(1, 12))):
            kind = int(plan.integers(0, 5))
            if kind == 0:
                ops.append(("run", int(plan.integers(1, 65))))
            elif kind == 1:
                ops.append(("decoys", int(plan.integers(1, 40))))
            elif kind == 2:
                ops.append(("prepare", int(plan.integers(2, 21)), int(plan.integers(1, 40))))
            elif kind == 3:
                total = int(plan.integers(1, 80))
                ops.append(("choice", total, int(plan.integers(1, total + 1))))
            else:
                ops.append(("pick", int(plan.integers(1, 50))))
        by_scalar, batched = (np.random.default_rng(seed_sequence(18, high, seq)) for _ in range(2))
        got, want = [], []
        for op in ops:
            for rng, out in ((by_scalar, got), (batched, want)):
                if op[0] == "run":
                    if rng is by_scalar:
                        out.append([int(rng.integers(0, high)) for _ in range(op[1])])
                    else:
                        out.append(rng.integers(0, high, size=op[1]).tolist())
                elif op[0] == "decoys":
                    out.append(rng.integers(0, 4, size=op[1]).tolist())
                elif op[0] == "prepare":
                    out.append(rng.integers(1, 2 ** op[1] + 1, size=op[2]).tolist())
                elif op[0] == "choice":
                    out.append(rng.choice(op[1], size=op[2], replace=False).tolist())
                else:
                    out.append(int(rng.integers(0, op[1])))
        assert got == want, f"numpy {np.__version__}: scalar runs of integers(0, {high}) in {ops} differ from sized draws"
        assert by_scalar.bit_generator.state == batched.bit_generator.state, (
            f"numpy {np.__version__}: scalar runs of integers(0, {high}) in {ops} leave another generator state"
            " than sized draws"
        )


def test_one_batch_measures_as_one_call_per_measurement():
    # A run measures whole steps at once: GHZ and product registers, decoys
    # and forwarded photons, in mixed bases.  Bits drawn in one sized draw
    # must give what one call per measurement gives, which is what the
    # particle-by-particle scalar draws gave.
    for seq in range(200):
        plan = np.random.default_rng([19, seq])
        n = int(plan.integers(2, 6))
        count = int(plan.integers(1, 5))
        if plan.integers(0, 4):
            rows = [ghz_from_index(int(i), n) for i in plan.integers(1, 2**n + 1, size=count)]
            make = lambda: GhzRegister(rows)  # noqa: E731
        else:
            rows = plan.integers(0, 2, size=(count, n)).tolist()
            make = lambda: ProductRegister(rows)  # noqa: E731
        decoys = plan.integers(0, 4, size=int(plan.integers(0, 6))).tolist()
        steps = []
        for forward in (True, False, False):
            ids = plan.permutation(count * n + len(decoys))[: int(plan.integers(1, count * n + 1))].tolist()
            steps.append((ids, plan.integers(0, 2, size=len(ids)).tolist(), forward))
        runs = []
        for batched in (True, False):
            reg, rng = make(), make_rng(19, seq)
            reg.add_photons(decoys)
            outcomes = []
            for ids, bases, forward in steps:
                ids = [i for i in ids if reg.slots[i] != MEASURED]
                bases = bases[: len(ids)]
                if batched:
                    outcomes.append(reg.measure(ids, bases, rng, forward))
                else:
                    outcomes.append([reg.measure([i], [b], rng, forward)[0] for i, b in zip(ids, bases)])
            runs.append((outcomes, reg.slots, reg.branch, reg.parity, rng.bits(3, 32)))
        assert runs[0] == runs[1], f"numpy {np.__version__}: sequence {seq} measures differently in one batch"


def test_full_x_parity_always_matches():
    rng = make_rng(4)
    for spec in all_specs(3):
        for _ in range(300):
            outcome = measure(GhzRegister([spec]), [1, 2, 3], Basis.X, rng)
            assert sum(outcome.values()) % 2 == spec.delta


def test_sequential_x_measurements_compose_to_full_parity():
    spec = ghz_from_index(1, 4)
    rng = make_rng(5)
    for _ in range(300):
        reg = GhzRegister([spec])
        first = measure(reg, [2], Basis.X, rng)
        second = measure(reg, [1, 3], Basis.X, rng)
        third = measure(reg, [4], Basis.X, rng)
        total = sum(first.values()) + sum(second.values()) + sum(third.values())
        assert total % 2 == spec.delta


def test_z_collapse_makes_later_x_uniform():
    spec = ghz_from_index(1, 3)
    rng = make_rng(6)
    ones = 0
    trials = 4000
    for _ in range(trials):
        reg = GhzRegister([spec])
        measure(reg, [1], Basis.Z, rng)
        ones += measure(reg, [2], Basis.X, rng)[2]
    assert abs(ones / trials - 0.5) < 3 * 0.5 / np.sqrt(trials)


def test_x_subset_then_z_keeps_branch_structure():
    spec = ghz_from_index(5, 3)
    rng = make_rng(7)
    for _ in range(300):
        reg = GhzRegister([spec])
        measure(reg, [2], Basis.X, rng)
        rest = measure(reg, [1, 3], Basis.Z, rng)
        assert (rest[1] ^ spec.q[0], rest[3] ^ spec.q[2]) in {(0, 0), (1, 1)}


# ---------------------------------------------------------------------------
# Trial register vs statevector oracle
# ---------------------------------------------------------------------------


class _Pick:
    """Stands in for the stream of one oracle measurement: draws ``value``
    whatever the bound, and records the bound."""

    def __init__(self, value):
        self.value, self.bound = value, None

    def below(self, bound):
        self.bound = bound
        return self.value


def _oracle_schedule(reg, schedule, weight=Fraction(1)):
    """The exact joint distribution of a schedule's outcomes on the oracle:
    each step picks one pattern of a power-of-two support, uniformly."""
    if not schedule:
        return Counter({(): weight})
    (particle, basis), rest = schedule[0], schedule[1:]
    probe = _Pick(0)
    reg.clone().measure([particle], basis, probe)
    assert probe.bound & (probe.bound - 1) == 0, probe.bound
    joint = Counter()
    for value in range(probe.bound):
        branch = reg.clone()
        bit = branch.measure([particle], basis, _Pick(value))[particle]
        for outcomes, p in _oracle_schedule(branch, rest, weight / probe.bound).items():
            joint[(bit,) + outcomes] += p
    return joint


def _register_schedule(spec, schedule):
    """The exact joint distribution of a schedule's outcomes on the trial
    register: one run per pattern of the fair bits its steps read (one
    each), all equally likely."""
    joint = Counter()
    for bits in product((0, 1), repeat=len(schedule)):
        reg, rng = GhzRegister([spec]), Stream(_FairBits(bits))
        outcomes = tuple(reg.measure([particle - 1], [basis], rng)[0] for particle, basis in schedule)
        joint[outcomes] += Fraction(1, 2 ** len(schedule))
    return joint


@pytest.mark.parametrize("n, count", [(2, 32), (3, 384)])
def test_sequential_schedules_match_the_oracle_exactly(n, count):
    # Every particle order and basis per step, one particle per step, so
    # each step sees what earlier measurements left: 416 schedules at n <= 3.
    schedules = 0
    for spec in all_specs(n):
        for order in permutations(range(1, n + 1)):
            for bases in product((Basis.Z, Basis.X), repeat=n):
                schedule = list(zip(order, bases))
                want = _oracle_schedule(OracleRegister(spec), schedule)
                assert _register_schedule(spec, schedule) == want, (spec, schedule)
                schedules += 1
    assert schedules == count


class _Integers:
    """Draws as the oracle drew from a ``Generator``: ``integers(0, bound)``."""

    def __init__(self, generator):
        self.generator = generator

    def below(self, bound):
        return int(self.generator.integers(0, bound))


def test_oracle_picks_what_integers_picks():
    # The oracle picks a support pattern with one draw below the support's
    # size, which must be the value ``integers(0, size)`` gives.
    for n in (2, 3, 4):
        for spec in all_specs(n):
            rng, reference = make_rng(33, n, spec.index), np.random.default_rng(seed_sequence(33, n, spec.index))
            for _ in range(20):
                runs = []
                for source in (rng, _Integers(reference)):
                    reg = OracleRegister(spec)
                    first = reg.measure_mixed({n: Basis.X}, source)
                    runs.append((first, reg.measure_mixed({p: Basis(p % 2) for p in range(1, n)}, source)))
                assert runs[0] == runs[1], spec
            assert rng.bits(3, 32) == reference.integers(0, 2**32, size=3).tolist()


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
    reg = ProductRegister([(0, 1, 0)])
    assert measure(reg, [1, 2, 3], Basis.Z, rng) == {1: 0, 2: 1, 3: 0}
    ones = 0
    trials = 4000
    for _ in range(trials):
        ones += measure(ProductRegister([(0, 0)]), [1], Basis.X, rng)[1]
    assert abs(ones / trials - 0.5) < 3 * 0.5 / np.sqrt(trials)


@pytest.mark.parametrize(
    "rows",
    [[(0, 0.5)], [(True, 0)], [(0, 1.0)], [(0, 2)], [(0,)], [(1, 0), (True, 0)], [(0, 1), [0, False]]],
    ids=["half", "bool", "float_one", "two", "one_particle", "bool_after_equal_row", "bool_in_list"],
)
def test_product_register_rejects_non_bits(rows):
    with pytest.raises(ValueError, match="bits"):
        ProductRegister(rows)
