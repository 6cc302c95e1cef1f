"""``TrialSeeds`` against numpy's ``SeedSequence``, the oracle it stands for.

A trial's generator is seeded as by ``SeedSequence(entropy=seed,
spawn_key=(trial,))``; its state words and its first raw outputs must be
those the SeedSequence gives, for seeds of every length the hash treats
apart: one word, words padded to the pool of four, and words past it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpcsim
from qpcsim import stream
from qpcsim.harness import MAX_TRIALS
from qpcsim.stream import TrialSeed, TrialSeeds

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
    for n_words, dtype in ((5, np.uint64), (4, np.uint32), (4, np.int64), (4, "u4")):
        with pytest.raises(ValueError, match="holds the 4 uint64 words"):
            seed.generate_state(n_words, dtype)


def test_a_trial_seed_hands_pcg64_its_words_as_the_general_path_does():
    seed = TrialSeeds(2**64)(300)
    oracle = np.random.SeedSequence(entropy=2**64, spawn_key=(300,)).generate_state(4, np.uint64).tolist()
    # (4, np.uint64) is PCG64's request; "u8" and a shorter request take
    # the checked path, as every request that raises does.
    assert seed.generate_state(4, np.uint64).tolist() == seed.generate_state(4, "u8").tolist() == oracle
    assert seed.generate_state(4, np.uint64).dtype == np.uint64
    assert seed.generate_state(2, np.uint64).tolist() == oracle[:2]


def test_a_trial_seed_is_an_iseedsequence_once_registered_twice():
    from numpy.random.bit_generator import ISeedSequence

    seeds = TrialSeeds(77)
    assert isinstance(seeds(3), ISeedSequence)
    for _ in range(2):
        stream._register_trial_seed.__wrapped__()
    assert isinstance(seeds(3), ISeedSequence) and issubclass(TrialSeed, ISeedSequence)
    oracle = np.random.SeedSequence(entropy=77, spawn_key=(3,))
    raw = np.random.default_rng(seeds(3)).bit_generator.random_raw(4)
    assert raw.tolist() == np.random.default_rng(oracle).bit_generator.random_raw(4).tolist()


def test_importing_qpcsim_leaves_numpy_random_unloaded():
    # numpy.random is imported at a run's first TrialSeeds, not with qpcsim.
    code = ("import sys; import qpcsim.cli, qpcsim.harness, qpcsim.block, qpcsim.stream; "
            "print('numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(qpcsim.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
