"""A ``Stream`` against the ``Generator`` calls it stands for.

Random sequences of draws are made from a stream and from a ``Generator``
with the same seed; every value, and the draw after them, must agree.  This
pins the stream's replay of numpy's bounded-integer rule for the installed
numpy.
"""

import numpy as np
import pytest

from qpcsim.stream import RAW_WORDS, Bounds, Stream, _tail_shuffle

# Lemire's rule redraws about half the time for a bound just above 2^31.
_REJECTING = (2**31 + 1, 2**31 + 3, 3 * 2**30 + 1)


def make_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=7716, spawn_key=key))


def _random_calls(plan):
    """1..12 draws of every kind the stream serves."""
    calls = []
    for _ in range(int(plan.integers(1, 13))):
        kind = int(plan.integers(0, 6))
        if kind == 0:
            calls.append(("bits", int(plan.integers(0, 70)), int(plan.integers(1, 33))))
        elif kind == 1:
            pool = [1, 2, 3, 4, 5, 7, 33, 64, 1000, 2**32, *_REJECTING]
            calls.append(("run", [pool[i] for i in plan.integers(0, len(pool), size=int(plan.integers(0, 40)))]))
        elif kind == 2:
            calls.append(("below", int(plan.choice([1, 2, 3, 6, 1000, 2**32, *_REJECTING]))))
        elif kind == 3:
            population = int(plan.integers(1, 80))
            calls.append(("sample", population, int(plan.integers(0, population + 1))))
        elif kind == 4:
            # Past 10000 with size above population // 50: the tail shuffle.
            population = int(plan.integers(10001, 10100))
            calls.append(("sample", population, int(plan.integers(population // 50 + 1, population // 50 + 20))))
        else:
            calls.append(("run", [4] * int(plan.integers(0, 9)) + [9, 10, 11, 8, 7, 6]))
    return calls


def _from_stream(stream, call):
    kind, *args = call
    if kind == "bits":
        return stream.bits(*args)
    if kind == "run":
        return stream.run(Bounds(args[0]))
    if kind == "below":
        return stream.below(args[0])
    return stream.sample(*args)


def _from_generator(rng, call):
    kind, *args = call
    if kind == "bits":
        count, width = args
        return rng.integers(0, 2**width, size=count).tolist()
    if kind == "run":
        return rng.integers(0, np.array(args[0], dtype=np.int64)).tolist() if args[0] else []
    if kind == "below":
        return int(rng.integers(0, args[0]))
    population, size = args
    return sorted(rng.choice(population, size=size, replace=False).tolist())


def _next_draws(rng):
    return rng.integers(0, 2**32, size=3).tolist()


def test_stream_draws_what_generator_calls_draw():
    plan = make_rng(1)
    rejecting = tail = 0
    for case in range(300):
        calls = _random_calls(plan)
        stream, reference = Stream(make_rng(2, case).bit_generator), make_rng(2, case)
        for call in calls:
            assert _from_stream(stream, call) == _from_generator(reference, call), (case, call)
        assert stream.bits(3, 32) == _next_draws(reference), case
        rejecting += any(kind in ("run", "below") and set(_REJECTING) & set(np.ravel(args[0])) for kind, *args in calls)
        tail += any(kind == "sample" and _tail_shuffle(*args) for kind, *args in calls)
    # Both rare branches are reached: bounds that redraw, and the tail shuffle.
    assert rejecting > 40 and tail > 20


def test_a_trial_stream_refills_where_it_left_off():
    stream, reference = Stream(make_rng(3).bit_generator), make_rng(3)
    for width in (1, 7, 32):
        assert stream.bits(RAW_WORDS + 5, width) == reference.integers(0, 2**width, size=RAW_WORDS + 5).tolist()
    assert stream.bits(3, 32) == _next_draws(reference)


def test_bounds_outside_32_bits_are_rejected():
    for bad in ([0], [2**32 + 1], [3, -1]):
        with pytest.raises(ValueError):
            Bounds(bad)
