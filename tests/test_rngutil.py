import numpy as np
import pytest

from ustatboot.rngutil import substream


def test_substream_deterministic():
    a = substream(42, 1, 2, 3).standard_normal(5)
    b = substream(42, 1, 2, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_substream_distinct_keys():
    a = substream(42, 0).standard_normal(5)
    b = substream(42, 1).standard_normal(5)
    assert not np.array_equal(a, b)


def _two_step(seed, *key):
    """The substream's SeedSequence built in two steps, by way of the master
    SeedSequence of ``seed`` (reference)."""
    base = np.random.SeedSequence(int(seed))
    if not key:
        return base
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=base.spawn_key + tuple(map(int, key))
    )


def test_seed_sequence_equals_two_step_construction():
    for seed in [0, 7, 2**40 + 3, np.int64(11)]:
        for key in [(), (0,), (4, 2), (np.int64(4), 2), (1, 0, 3)]:
            want = np.random.default_rng(_two_step(seed, *key))
            np.testing.assert_array_equal(
                substream(seed, *key).standard_normal(8), want.standard_normal(8)
            )


# neither floats, strings, None nor bools are integer seeds or key entries
@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3", None, True], ids=repr)
def test_substream_rejects_a_non_integer_seed(seed):
    with pytest.raises(TypeError):
        substream(seed, 1)


@pytest.mark.parametrize("entry", ["2", True], ids=repr)
def test_substream_rejects_a_non_integer_key_entry(entry):
    with pytest.raises(TypeError):
        substream(1, 0, entry)
