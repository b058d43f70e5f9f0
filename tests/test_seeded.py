"""The in-package normal stream against numpy.random, its oracle, bit for bit."""

import os

import numpy as np
import pytest

from chemofluid.seeded import NormalStream

ZIGGURAT_R = 3.6541528853610088  # past it, a draw comes from the tail branch
# one to four 32-bit words, and seven: the words past the pool of four mix in last
SEEDS = [*range(200), 2**32 + 5, 2**64, 2**70 + 3, 123456789012345678901234567890123456789, 2**200 + 17]


def draws(stream, k):
    return np.array([stream.standard_normal() for _ in range(k)])


@pytest.mark.parametrize("seed", SEEDS)
def test_equals_numpy_default_rng(seed):
    new = draws(NormalStream(seed), 300)
    old = np.random.default_rng(seed).standard_normal(300)
    assert new.tobytes() == old.tobytes()


def test_long_stream_runs_the_tail_branch():
    new = draws(NormalStream(2024), 200_000)
    assert np.abs(new).max() > ZIGGURAT_R
    assert new.tobytes() == np.random.default_rng(2024).standard_normal(200_000).tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_raises_value_error(seed):
    with pytest.raises(ValueError, match="non-negative"):
        NormalStream(seed)
    with pytest.raises(ValueError):
        np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [1.5, "7", None, [1, 2]])
def test_non_integer_seed_raises_type_error(seed):
    with pytest.raises(TypeError, match="integer"):
        NormalStream(seed)


def test_numpy_integer_seed():
    assert NormalStream(np.int64(9)).standard_normal() == NormalStream(9).standard_normal()


def test_table_file_holds_numpy_anchors():
    import chemofluid.seeded as seeded

    path = os.path.join(os.path.dirname(seeded.__file__), "ziggurat.bin")
    assert os.path.getsize(path) == 3 * 256 * 8
    ki, wi, fi = seeded._ziggurat_tables()
    assert (ki[0], ki[1]) == (0x000EF33D8025EF6A, 0)
    assert (wi[0], fi[0], fi[255]) == (8.683627060801306e-16, 1.0, 0.001260285930498598)
