"""Single-photon decoy states, tappable quantum channels, and the public
decoy-check discussion used to expose channel eavesdropping."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .ghz import Basis


class DecoyState(IntEnum):
    """Names of the four single-qubit decoy preparations.  A photon holds
    one as a plain int: basis ``state >> 1``, bit ``state & 1``."""

    Z0 = 0  # |0>
    Z1 = 1  # |1>
    X_PLUS = 2  # |+>
    X_MINUS = 3  # |->


_STATES = frozenset(DecoyState)


def generate_decoys(count: int, rng: np.random.Generator) -> List[int]:
    """``count`` independent uniform draws from the four decoy states."""
    if count < 0:
        raise ValueError("decoy count must be nonnegative")
    if count == 0:
        return []
    return rng.integers(0, 4, size=count).tolist()


class DecoySlot:
    """A transmissible slot holding one photon in a decoy state 0..3.

    Measuring in the preparation basis returns the prepared bit and leaves
    the photon alone; measuring in the other basis returns a fair coin and
    re-prepares the photon in the measured eigenstate.  An interceptor
    measures it like anyone else.
    """

    __slots__ = ("state",)
    is_decoy = True

    def __init__(self, state: int) -> None:
        if state not in _STATES:
            raise ValueError(f"decoy state must be in 0..3, got {state!r}")
        self.state = state

    def measure(self, basis: Basis, rng: np.random.Generator) -> int:
        state = self.state
        if state >> 1 == basis:
            return state & 1
        bit = int(rng.integers(0, 2))
        self.state = (basis << 1) | bit
        return bit

    intercept = measure


class CarrierSlot:
    """A transmissible slot holding one particle of a shared register.

    ``position`` is the register's index within the batch, ``particle`` the
    1-based particle this link carries.  An interceptor's measurement
    consumes the register particle and forwards a fresh photon in the
    measured eigenstate; the legitimate receiver then measures whatever
    actually arrives.
    """

    __slots__ = ("register", "position", "particle", "replacement")
    is_decoy = False

    def __init__(self, register, position: int, particle: int) -> None:
        self.register = register
        self.position = position
        self.particle = particle
        self.replacement: Optional[DecoySlot] = None

    def measure(self, basis: Basis, rng: np.random.Generator) -> int:
        if self.replacement is not None:
            return self.replacement.measure(basis, rng)
        return self.register.measure((self.particle,), basis, rng)[self.particle]

    def intercept(self, basis: Basis, rng: np.random.Generator) -> int:
        bit = self.measure(basis, rng)
        self.replacement = DecoySlot((basis << 1) | bit)
        return bit


Tap = Callable[[List[object], np.random.Generator], None]


class QuantumChannel:
    """Point-to-point quantum link.

    Registered taps run in registration order over each transmitted
    sequence and may mutate the slots in place; with no taps the sequence
    is delivered untouched.
    """

    def __init__(self, sender: str, receiver: str, taps: Sequence[Tap] = ()) -> None:
        self.sender = sender
        self.receiver = receiver
        self.taps = list(taps)

    def transmit(self, slots: List[object], rng: np.random.Generator) -> List[object]:
        for tap in self.taps:
            tap(slots, rng)
        return slots


def interleave(
    carriers: Sequence[object], decoys: Sequence[int], rng: np.random.Generator
) -> Tuple[List[object], List[int]]:
    """Insert fresh decoy photons at uniformly random positions.

    Carriers keep their relative order.  Returns the merged slot sequence
    and the decoys' 1-based positions in ascending order (decoy k of the
    input list sits at the k-th returned position).
    """
    total = len(carriers) + len(decoys)
    if not decoys:
        return list(carriers), []
    chosen = sorted(rng.choice(total, size=len(decoys), replace=False).tolist())
    merged = list(carriers)
    # In ascending order, every slot before a spot is already in place.
    for idx, decoy in zip(chosen, decoys):
        merged.insert(idx, DecoySlot(decoy))
    return merged, [i + 1 for i in chosen]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one public decoy discussion."""

    passed: bool
    mismatches: int
    total: int


def public_discussion(
    bases: Sequence[Basis],
    results: Sequence[int],
    prepared: Sequence[int],
    tolerance: int = 0,
) -> CheckReport:
    """Compare the receiver's decoy results against the preparations.

    ``bases`` is the announced measurement basis per decoy (which for an
    honest announcement is the preparation basis), ``results`` the
    receiver's reported bits.  Passes iff the mismatch count is within
    ``tolerance`` (0 by default: any disturbance aborts).
    """
    if not len(bases) == len(results) == len(prepared):
        raise ValueError("decoy announcement, results, and preparations must align")
    mismatches = 0
    for basis, got, prep in zip(bases, results, prepared):
        if basis != prep >> 1:
            raise ValueError("announced basis does not match the preparation basis")
        if got != prep & 1:
            mismatches += 1
    return CheckReport(mismatches <= tolerance, mismatches, len(prepared))
