"""``TrialSeeds`` against numpy's ``SeedSequence``, the oracle it stands for.

A trial's generator is seeded as by ``SeedSequence(entropy=seed,
spawn_key=(trial,))``; its state words and its first raw outputs must be
those the SeedSequence gives, for seeds of every length the hash treats
apart: one word, words padded to the pool of four, and words past it.
"""

import numpy as np
import pytest

from qpcsim.harness import MAX_TRIALS
from qpcsim.stream import TrialSeeds

# 0 and 2^32 - 1 are one word, 2^32 two and 2^64 three, padded to four;
# 2^128 is five words and 2^200 + 7 seven, past the pool.
_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128, 2**200 + 7]
# Seeds are made for blocks of trials at once: these cross a block's edge
# and come back to an earlier block.
_TRIALS = [0, 1, 255, 256, MAX_TRIALS - 1, 1]


def _random_seeds():
    plan = np.random.default_rng(np.random.SeedSequence(entropy=9110))
    return [int(s) for s in plan.integers(0, 2**48, size=8)]


@pytest.mark.parametrize("seed", _SEEDS + _random_seeds())
def test_trial_seed_is_numpys_spawned_seed_sequence(seed):
    seeds = TrialSeeds(seed)
    for trial in _TRIALS:
        oracle = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        state = seeds(trial).generate_state(4, np.uint64)
        assert state.dtype == np.uint64
        assert state.tolist() == oracle.generate_state(4, np.uint64).tolist(), trial
        raw = np.random.default_rng(seeds(trial)).bit_generator.random_raw(4)
        assert raw.tolist() == np.random.default_rng(oracle).bit_generator.random_raw(4).tolist(), trial


def test_trials_must_fit_one_word():
    seeds = TrialSeeds(5)
    assert seeds(2**32 - 1).generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence(entropy=5, spawn_key=(2**32 - 1,)).generate_state(4, np.uint64).tolist()
    )
    for bad in (-1, 2**32):
        with pytest.raises(ValueError, match="32-bit word"):
            seeds(bad)
    with pytest.raises(ValueError, match="nonnegative"):
        TrialSeeds(-1)


def test_a_trial_seed_holds_pcg64s_state_words_only():
    seed = TrialSeeds(5)(0)
    for n_words, dtype in ((5, np.uint64), (4, np.uint32), (4, np.int64)):
        with pytest.raises(ValueError, match="holds the 4 uint64 words"):
            seed.generate_state(n_words, dtype)
