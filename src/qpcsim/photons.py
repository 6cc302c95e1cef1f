"""Single-photon decoy states, tappable quantum channels, and the public
decoy-check discussion used to expose channel eavesdropping."""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .ghz import Basis


class DecoyState(IntEnum):
    """Names of the four single-qubit decoy preparations.  A photon holds
    one as a plain int: basis ``state >> 1``, bit ``state & 1``."""

    Z0 = 0  # |0>
    Z1 = 1  # |1>
    X_PLUS = 2  # |+>
    X_MINUS = 3  # |->


def generate_decoys(count: int, rng: np.random.Generator) -> List[int]:
    """``count`` independent uniform draws from the four decoy states: one
    link's decoys by themselves (a run draws them with ``interleave``)."""
    if count < 0:
        raise ValueError("decoy count must be nonnegative")
    if count == 0:
        return []
    return rng.integers(0, 4, size=count).tolist()


class Link:
    """What one participant receives in one run.

    The register particles (``carried``, their ids in the run's
    ``GhzRegister``, in register order) travel with decoy photons
    (``decoy_ids``) at the slots ``decoy_slots``, ascending; an interceptor
    may replace a particle by a photon under the same id.  Only taps read
    a link, so a run builds one only for a tapped link, and the slot order
    only when asked for.
    """

    __slots__ = ("state", "carried", "decoy_ids", "decoy_slots")

    def __init__(self, state, carried: Sequence[int], decoy_ids: Sequence[int], decoy_slots: Sequence[int]) -> None:
        self.state = state
        self.carried = carried
        self.decoy_ids = decoy_ids
        self.decoy_slots = decoy_slots

    @property
    def slots(self) -> List[int]:
        """The id of what each slot carries, in transmission order."""
        merged = list(self.carried)
        # In ascending order, every slot before a spot is already in place.
        for slot, i in zip(self.decoy_slots, self.decoy_ids):
            merged.insert(slot, i)
        return merged

    def measure(self, bases: Sequence[int], rng: np.random.Generator, forward: bool = False) -> List[int]:
        """Measure every slot, in transmission order, in one step; see
        ``GhzRegister.measure``."""
        return self.state.measure(self.slots, bases, rng, forward)


# The slot kinds of earlier versions, both now slots of a ``Link``.
# perfbench/tracing.py wraps ``measure`` under each name, so a traced link
# measurement shows as two nested ``photons.slot_measure`` spans.
CarrierSlot = DecoySlot = Link

Tap = Callable[[Link, np.random.Generator], None]


class QuantumChannel:
    """Point-to-point quantum link.

    Registered taps run in registration order over each transmitted link
    and may measure or replace what its slots carry; with no taps the link
    is delivered untouched.
    """

    def __init__(self, sender: str, receiver: str, taps: Sequence[Tap] = ()) -> None:
        self.sender = sender
        self.receiver = receiver
        self.taps = list(taps)

    def transmit(self, link: Link, rng: np.random.Generator) -> Link:
        for tap in self.taps:
            tap(link, rng)
        return link


# Generator.choice(population, size, replace=False) samples by a tail
# Fisher-Yates shuffle when both hold, and by Floyd's algorithm otherwise.
def _tail_shuffle(population: int, size: int) -> bool:
    return population > 10000 and size > population // 50


def choice_bounds(population: int, size: int) -> List[int]:
    """The exclusive upper bound of each draw that
    ``Generator.choice(population, size, replace=False)`` makes, in order.

    Floyd's algorithm (Bentley and Floyd, CACM 30(9), 1987) draws on [0, j]
    for j = population - size .. population - 1, then shuffles the sample
    with draws on [0, i] for i = size - 1 .. 1.  The tail shuffle draws on
    [0, i] for i = population - 1 down to max(population - size, 1).
    """
    if _tail_shuffle(population, size):
        return list(range(population, max(population - size, 1), -1))
    return list(range(population - size + 1, population + 1)) + list(range(size, 1, -1))


def replay_choice(population: int, size: int, draws: Sequence[int]) -> List[int]:
    """The sample, ascending, that ``choice(population, size, replace=False)``
    makes from ``draws``, the values drawn under ``choice_bounds``."""
    if _tail_shuffle(population, size):
        moved = {}  # the shuffled positions of range(population) that moved
        for i, j in zip(range(population - 1, max(population - size, 1) - 1, -1), draws):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return sorted(moved.get(i, i) for i in range(population - size, population))
    chosen = set()
    # The shuffle draws that follow only reorder the sample.
    for j, value in zip(range(population - size, population), draws):
        chosen.add(j if value in chosen else value)
    return sorted(chosen)


@lru_cache(maxsize=64)
def _run_bounds(carriers: int, decoys: int, links: int) -> np.ndarray:
    bounds = np.array(([4] * decoys + choice_bounds(carriers + decoys, decoys)) * links, dtype=np.int64)
    bounds.flags.writeable = False
    return bounds


def interleave(
    carriers: int, decoys: int, links: int, rng: np.random.Generator
) -> List[Tuple[List[int], List[int]]]:
    """Draw ``links`` consecutive links in one generator call.

    Each link gets ``decoys`` uniform decoy states and the draws that choose
    their slots among its ``carriers`` carriers: per link, the values of
    ``integers(0, 4, size=decoys)`` and of the draws of
    ``choice(carriers + decoys, decoys, replace=False)``, one link after the
    other.  A single ``integers(0, bounds)`` call with the bound of every
    one of those draws yields the same values and leaves the generator in
    the same state.  ``replay_choice`` turns a link's placement draws into
    its decoy slots.
    """
    if not decoys:
        return [([], [])] * links
    drawn = rng.integers(0, _run_bounds(carriers, decoys, links)).tolist()
    step = len(drawn) // links
    return [(drawn[s : s + decoys], drawn[s + decoys : s + step]) for s in range(0, len(drawn), step)]


class CheckReport(NamedTuple):
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
