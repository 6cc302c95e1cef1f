"""GHZ-family state algebra, analytic measurement sampling, and an exact
statevector oracle for cross-validation.

The family is the set of n-qubit states (|q> + (-1)^delta |q~>)/sqrt(2),
where q is a bit vector with q[0] = 0 and q~ its bitwise complement.
Everything the comparison protocol needs from these states reduces to three
facts:

* a full Z-basis measurement yields q or q~, each with probability 1/2;
* a full X-basis measurement yields exactly the sign patterns whose count
  of |-> results has the parity of delta, uniformly;
* the XOR of any two particles' Z outcomes is fixed at q[i] ^ q[j].

``GhzRegister`` implements those rules analytically for all the registers
of a run at once, held flat, including the collapse bookkeeping needed when
particles are measured a few at a time, and the single photons that travel
beside them.
``OracleRegister`` implements the same physics by brute force on the full
amplitude vector, so the two paths can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .stream import Stream

MAX_PARTICLES = 20
ORACLE_MAX_PARTICLES = 12


class Basis(IntEnum):
    """Measurement basis: Z = {|0>,|1>}, X = {|+>,|->}."""

    Z = 0
    X = 1


class ConsumedParticleError(RuntimeError):
    """A register particle was asked to be measured a second time."""


class OracleCapacityError(ValueError):
    """The statevector oracle was asked for more qubits than it can hold."""


@dataclass(frozen=True)
class GhzSpec:
    """Identifies one family member by its bit vector and phase bit.

    ``q`` always starts with 0 (the family's canonical form); ``delta``
    selects the relative sign of the complemented branch.
    """

    q: Tuple[int, ...]
    delta: int

    def __post_init__(self) -> None:
        n = len(self.q)
        if not 2 <= n <= MAX_PARTICLES:
            raise ValueError(f"particle count must be in 2..{MAX_PARTICLES}, got {n}")
        if any(b not in (0, 1) for b in self.q) or self.delta not in (0, 1):
            raise ValueError("q entries and delta must be bits")
        if self.q[0] != 0:
            raise ValueError("q must start with 0")
        # Kept: the state check compares every Z round with it.
        object.__setattr__(self, "_complement", tuple(1 - b for b in self.q))
        # Kept: the block engine finds a fixed preparation by its states' values.
        object.__setattr__(self, "_hash", hash((self.q, self.delta)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def index(self) -> int:
        """Position of this state in the canonical 1..2^n enumeration."""
        tail = 0
        for b in self.q[1:]:
            tail = (tail << 1) | b
        return 2 * tail + self.delta + 1

    def complement(self) -> Tuple[int, ...]:
        return self._complement

    def bits_int(self) -> int:
        value = 0
        for b in self.q:
            value = (value << 1) | b
        return value

    def to_dict(self) -> dict:
        return {"q": "".join(str(b) for b in self.q), "delta": self.delta}

    @classmethod
    def from_dict(cls, data: dict) -> "GhzSpec":
        """Parse ``to_dict`` output.  ``q`` is a string of 0/1 characters or
        a list of integer bits and ``delta`` an integer; booleans, floats and
        anything else are rejected rather than coerced."""
        q, delta = data["q"], data["delta"]
        if isinstance(q, str) and set(q) <= {"0", "1"}:
            bits = tuple(int(ch) for ch in q)
        elif isinstance(q, (list, tuple)) and all(type(b) is int for b in q):
            bits = tuple(q)
        else:
            raise ValueError(f"q must be a string of 0/1 characters or a list of integer bits, got {q!r}")
        if type(delta) is not int:
            raise ValueError(f"delta must be the integer 0 or 1, got {delta!r}")
        return cls(bits, delta)


# Specs are immutable, so a run's registers can share them.  Bounded because
# there are 2^n of them and n reaches 20.
@lru_cache(maxsize=4096)
def ghz_from_index(index: int, n: int) -> GhzSpec:
    """Canonical bijection from a 1-based family index to a state.

    With c = index - 1: delta = c mod 2 and the tail bits q[1:] are the
    big-endian binary digits of c // 2.  Inverse of ``GhzSpec.index``.
    """
    if not 2 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count must be in 2..{MAX_PARTICLES}, got {n}")
    if not 1 <= index <= 2**n:
        raise ValueError(f"index must be in 1..2^{n} = {2 ** n}, got {index}")
    c = index - 1
    delta = c & 1
    tail = c >> 1
    q = (0,) + tuple((tail >> (n - 2 - i)) & 1 for i in range(n - 1))
    return GhzSpec(q, delta)


class XTerm(NamedTuple):
    """One X-basis expansion term: bit 0 = |+>, bit 1 = |->."""

    bits: Tuple[int, ...]
    sign: int


def x_expansion(spec: GhzSpec) -> List[XTerm]:
    """All 2^(n-1) X-basis terms of the state, ascending by bit pattern.

    A pattern appears iff its |-> count has the parity of delta.  Its sign
    is (-1) to the XOR of q over the |-> positions (an empty XOR is 0, so
    an all-|+> term is always positive).  The common magnitude
    1/sqrt(2^(n-1)) is implicit.
    """
    n = spec.n
    terms: List[XTerm] = []
    for pattern in range(2**n):
        bits = tuple((pattern >> (n - 1 - i)) & 1 for i in range(n))
        if sum(bits) % 2 != spec.delta:
            continue
        d = 0
        for b, qb in zip(bits, spec.q):
            if b:
                d ^= qb
        terms.append(XTerm(bits, -1 if d else 1))
    return terms


def pair_xor(spec: GhzSpec, i: int, j: int) -> int:
    """Fixed XOR of the Z outcomes of particles i and j (1-based).

    Both branches of the state give the same value q[i] ^ q[j], which is
    what lets a party that knows the preparation link two other parties'
    key bits without seeing them.
    """
    q = spec.q
    n = len(q)
    if not (0 < i <= n and 0 < j <= n):
        p = j if 0 < i <= n else i
        raise IndexError(f"particle index {p} out of range 1..{n}")
    return q[i - 1] ^ q[j - 1]


def _checked_positions(positions: Iterable[int], n: int, consumed: set) -> Tuple[int, ...]:
    pos = tuple(map(int, positions))
    if not pos:
        raise ValueError("positions must be nonempty")
    for p in pos:
        if not 1 <= p <= n:
            raise IndexError(f"particle index {p} out of range 1..{n}")
    if len(pos) > 1 and len(set(pos)) != len(pos):
        raise ValueError(f"duplicate particle index in {list(pos)}")
    if not consumed.isdisjoint(pos):
        raise ConsumedParticleError(f"particles already measured: {sorted(consumed.intersection(pos))}")
    return pos


HELD, MEASURED = -1, -2  # slot values of a particle in, or measured out of, its register


class GhzRegister:
    """The shared registers of one run, and the photons beside them, held flat.

    Particle k of register r has the id ``r * particles + k - 1``; photons
    from ``add_photons`` follow.  ``slots[id]`` is HELD, MEASURED, or a
    photon state 0..3 (basis ``state >> 1``, bit ``state & 1``): a decoy,
    or what an interceptor forwarded in place of a particle.  Per register
    the state keeps its Z branch (None until a Z measurement fixes it), its
    X parity and the particles X measurements have left.
    """

    __slots__ = ("q", "branch", "parity", "left", "slots", "particles", "n")

    def __init__(self, specs: Sequence[GhzSpec]) -> None:
        self._hold([s.q for s in specs], [None] * len(specs), [s.delta for s in specs])

    def _hold(self, rows: List[Tuple[int, ...]], branch: list, parity: List[int]) -> None:
        particles = len(rows[0]) if rows else 0
        if len(set(map(len, rows))) > 1:
            raise ValueError("every register of a run must have the same particle count")
        self.q = [b for row in rows for b in row]
        self.branch, self.parity = branch, parity
        self.left = [particles] * len(rows)
        self.slots = [HELD] * (particles * len(rows))
        self.particles, self.n = particles, particles * len(rows)

    def add_photons(self, states: Sequence[int]) -> List[int]:
        """Put photons in the given states in flight; returns their ids."""
        if not set(states) <= {0, 1, 2, 3}:
            raise ValueError(f"photon states must be in 0..3, got {list(states)!r}")
        self.slots.extend(states)
        return list(range(len(self.slots) - len(states), len(self.slots)))

    def measure(self, ids: Sequence[int], bases: Sequence[int], rng: Stream, forward: bool = False) -> List[int]:
        """Measure each id in its basis, in order; returns the outcomes.

        The measurements that draw take fair bits in order, the values that
        scalar draws, or one ``integers(0, 2, size=k)`` draw, would give
        (tests/test_ghz.py pins this).  At most one bit per id is drawn, so
        the next ``len(ids)`` bits are read ahead and only those used are
        drawn.  The draw rule:

        * a photon draws only in the other basis, and is re-prepared in the
          measured eigenstate;
        * a particle's Z measurement draws only while the branch is unset;
        * a particle's X measurement draws, unless it is the last particle
          of a register no Z measurement has touched, which carries the
          parity; a product register's branch is set from the start.

        With ``forward`` each measured particle is replaced by a photon in
        the measured eigenstate, as an intercept-resend does.
        """
        slots, branch, left = self.slots, self.branch, self.left
        if ids and min(ids) < 0:  # an id past the end fails the indexing below
            raise IndexError(f"ids must lie in 0..{len(slots) - 1}, got {list(ids)}")
        states = list(map(slots.__getitem__, ids))
        if MEASURED in states:
            raise ConsumedParticleError(f"already measured: {[i for i, s in zip(ids, states) if s == MEASURED]}")
        if len(set(ids)) != len(ids) or len(bases) != len(ids):
            raise ValueError(f"ids must be distinct and match their bases, got {list(ids)} and {list(bases)}")
        n, q, parity = self.particles, self.q, self.parity
        fair = rng.peek(len(ids))
        drawn = 0
        out = []
        for i, state, basis in zip(ids, states, bases):
            if state >= 0:  # a photon
                if state >> 1 == basis:
                    bit = state & 1
                else:
                    bit = fair[drawn]
                    drawn += 1
                    slots[i] = (basis << 1) | bit
            else:
                r = i // n
                if basis:  # X
                    left[r] -= 1
                    if branch[r] is None and not left[r]:
                        bit = parity[r]
                    else:
                        bit = fair[drawn]
                        drawn += 1
                        parity[r] ^= bit
                else:
                    if branch[r] is None:
                        branch[r] = fair[drawn]
                        drawn += 1
                    bit = q[i] ^ branch[r]
                slots[i] = (basis << 1) | bit if forward else MEASURED
            out.append(bit)
        rng.skip(drawn)
        return out


class ProductRegister(GhzRegister):
    """Registers that are secretly computational-basis product states, as a
    dishonest preparer hands out while claiming something entangled."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        # A row repeated by reference, as ``[bits] * count`` builds them, is
        # checked once.  Bits must be the ints 0 and 1: a bool or a float is
        # rejected, not coerced.
        for row in {id(row): row for row in rows}.values():
            if not 2 <= len(row) <= MAX_PARTICLES or any(type(b) is not int or b not in (0, 1) for b in row):
                raise ValueError(f"bits must be 2..{MAX_PARTICLES} integers 0 or 1, got {list(row)!r}")
        self._hold([tuple(row) for row in rows], [0] * len(rows), [0] * len(rows))

    # Its own entry: perfbench/tracing.py wraps each register class's measure.
    measure = GhzRegister.measure


class OracleRegister:
    """Brute-force statevector register with exact dyadic amplitudes.

    Every state reachable here (family states, computational products, and
    anything Hadamard rotations plus projective measurements make of them)
    has amplitudes of uniform magnitude 1/sqrt(|support|) with signs +-1,
    so the state is stored as a sign per support pattern and never touches
    floating point.  Capped at 12 qubits.
    """

    __slots__ = ("n", "_signs", "_consumed")

    def __init__(self, spec: GhzSpec) -> None:
        if spec.n > ORACLE_MAX_PARTICLES:
            raise OracleCapacityError(
                f"oracle supports at most {ORACLE_MAX_PARTICLES} particles, got {spec.n}"
            )
        self.n = spec.n
        base = spec.bits_int()
        comp = base ^ (2**spec.n - 1)
        self._signs: Dict[int, int] = {base: 1, comp: -1 if spec.delta else 1}
        self._consumed: set = set()

    @classmethod
    def from_product(cls, bits: Sequence[int]) -> "OracleRegister":
        bits = tuple(int(b) for b in bits)
        if len(bits) > ORACLE_MAX_PARTICLES:
            raise OracleCapacityError(
                f"oracle supports at most {ORACLE_MAX_PARTICLES} particles, got {len(bits)}"
            )
        reg = object.__new__(cls)
        reg.n = len(bits)
        value = 0
        for b in bits:
            value = (value << 1) | (b & 1)
        reg._signs = {value: 1}
        reg._consumed = set()
        return reg

    def clone(self) -> "OracleRegister":
        reg = object.__new__(OracleRegister)
        reg.n = self.n
        reg._signs = dict(self._signs)
        reg._consumed = set(self._consumed)
        return reg

    def _hadamard(self, particle: int) -> None:
        bit = 1 << (self.n - particle)
        merged: Dict[int, int] = {}
        for z, s in self._signs.items():
            lo = z & ~bit
            hi = lo | bit
            merged[lo] = merged.get(lo, 0) + s
            merged[hi] = merged.get(hi, 0) + (-s if z & bit else s)
        cleaned = {z: v for z, v in merged.items() if v}
        magnitudes = {abs(v) for v in cleaned.values()}
        # States in this family stay uniform-magnitude under H; anything else
        # would mean the register was driven outside its design envelope.
        assert magnitudes in ({1}, {2}), magnitudes
        self._signs = {z: (1 if v > 0 else -1) for z, v in cleaned.items()}
        assert len(self._signs) & (len(self._signs) - 1) == 0

    def _project(self, pos: Tuple[int, ...], outcome: Dict[int, int]) -> None:
        def matches(z: int) -> bool:
            return all(((z >> (self.n - p)) & 1) == outcome[p] for p in pos)

        self._signs = {z: s for z, s in self._signs.items() if matches(z)}
        assert self._signs and len(self._signs) & (len(self._signs) - 1) == 0

    def measure(self, positions: Iterable[int], basis: Basis, rng: Stream) -> Dict[int, int]:
        # Checked here as well, because a duplicate would vanish into the dict.
        pos = _checked_positions(positions, self.n, self._consumed)
        return self.measure_mixed(dict.fromkeys(pos, basis), rng)

    def measure_mixed(self, bases: Dict[int, Basis], rng: Stream) -> Dict[int, int]:
        """Joint measurement with a per-particle basis choice."""
        pos = _checked_positions(bases.keys(), self.n, self._consumed)
        x_positions = [p for p in pos if bases[p] == Basis.X]
        for p in x_positions:
            self._hadamard(p)
        keys = sorted(self._signs)
        pick = keys[rng.below(len(keys))]
        out = {p: (pick >> (self.n - p)) & 1 for p in pos}
        self._project(pos, out)
        for p in x_positions:
            self._hadamard(p)
        self._consumed.update(pos)
        return out

    def distribution(self, positions: Iterable[int], basis: Basis) -> np.ndarray:
        """Exact Born probabilities over outcome patterns of ``positions``.

        An outcome's index packs the bits of the positions in ascending
        order, the first most significant.  Probabilities are ratios of
        powers of two, hence exact as binary floats.
        """
        pos = sorted(_checked_positions(positions, self.n, set()))
        work = self.clone()
        if basis == Basis.X:
            for p in pos:
                work._hadamard(p)
        size = 2 ** len(pos)
        counts = np.zeros(size, dtype=np.int64)
        for z in work._signs:
            pattern = 0
            for p in pos:
                pattern = (pattern << 1) | ((z >> (self.n - p)) & 1)
            counts[pattern] += 1
        return counts / len(work._signs)


def all_specs(n: int) -> List[GhzSpec]:
    """Every family member for a given particle count, in index order."""
    return [ghz_from_index(i, n) for i in range(1, 2**n + 1)]
