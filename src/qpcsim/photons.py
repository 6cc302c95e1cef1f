"""Single-photon decoy states, tappable quantum channels, and the public
decoy-check discussion used to expose channel eavesdropping."""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .ghz import Basis
from .stream import Bounds, Stream, choice_bounds


class DecoyState(IntEnum):
    """Names of the four single-qubit decoy preparations.  A photon holds
    one as a plain int: basis ``state >> 1``, bit ``state & 1``."""

    Z0 = 0  # |0>
    Z1 = 1  # |1>
    X_PLUS = 2  # |+>
    X_MINUS = 3  # |->


def generate_decoys(count: int, rng: Stream) -> List[int]:
    """``count`` independent uniform draws from the four decoy states: one
    link's decoys by themselves (a run draws them with ``interleave``)."""
    if count < 0:
        raise ValueError("decoy count must be nonnegative")
    return rng.bits(count, 2)


class Link:
    """What one participant receives in one run.

    The register particles (``carried``, their ids in the run's
    ``GhzRegister``, in register order) travel with decoy photons
    (``decoy_ids``) at the slots ``decoy_slots``, ascending; an interceptor
    may replace a particle by a photon under the same id.  No run builds
    one: the block engine taps a link as arrays.  It is kept, with
    ``QuantumChannel``, for the methods the benchmark's tracer wraps.
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

    def measure(self, bases: Sequence[int], rng: Stream, forward: bool = False) -> List[int]:
        """Measure every slot, in transmission order, in one step; see
        ``GhzRegister.measure``."""
        return self.state.measure(self.slots, bases, rng, forward)


# The slot kinds of earlier versions, both now slots of a ``Link``.
# perfbench/tracing.py wraps ``measure`` under each name, so a traced link
# measurement shows as two nested ``photons.slot_measure`` spans.
CarrierSlot = DecoySlot = Link

Tap = Callable[[Link, Stream], None]


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

    def transmit(self, link: Link, rng: Stream) -> Link:
        for tap in self.taps:
            tap(link, rng)
        return link


@lru_cache(maxsize=64)
def _run_bounds(carriers: int, decoys: int, links: int) -> Bounds:
    return Bounds(([4] * decoys + choice_bounds(carriers + decoys, decoys)) * links)


def interleave(carriers: int, decoys: int, links: int, rng: Stream,
               read: Optional[int] = None) -> List[Tuple[List[int], List[int]]]:
    """Draw ``links`` consecutive links in one run of draws, and return the
    last ``read`` of them, all by default.

    Each link gets ``decoys`` uniform decoy states and the draws that choose
    their slots among its ``carriers`` carriers: per link, the values of
    ``integers(0, 4, size=decoys)`` and of the draws of
    ``choice(carriers + decoys, decoys, replace=False)``, one link after the
    other, drawn as one ``Stream.run``.  ``replay_choice`` turns a link's
    placement draws into its decoy slots.  The links before the last
    ``read`` are only drawn past (``Stream.consume``): the stream moves as
    one run of all of them moves it, but no value of theirs is made.
    """
    read = links if read is None else read
    if decoys and read < links:
        rng.consume(_run_bounds(carriers, decoys, links - read))
    if not decoys or not read:
        return [([], [])] * read
    drawn = rng.run(_run_bounds(carriers, decoys, read))
    step = len(drawn) // read
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
