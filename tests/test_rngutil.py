import numpy as np
import pytest

from ustatboot.rngutil import seed_sequence, substream, substream_normals


def test_substream_deterministic():
    a = substream(42, 1, 2, 3).standard_normal(5)
    b = substream(42, 1, 2, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_substream_distinct_keys():
    a = substream(42, 0).standard_normal(5)
    b = substream(42, 1).standard_normal(5)
    assert not np.array_equal(a, b)


def test_substream_key_extension_matches_nested_spawn_key():
    base = seed_sequence(7, 1)
    direct = seed_sequence(7, 1, 2)
    nested = seed_sequence(base, 2)
    assert direct.entropy == nested.entropy
    assert direct.spawn_key == nested.spawn_key


def test_seed_sequence_passthrough():
    ss = np.random.SeedSequence(99)
    assert seed_sequence(ss) is ss


@pytest.mark.parametrize(
    "seed", [0, 42, np.random.SeedSequence(99), np.random.SeedSequence(5, spawn_key=(3,))]
)
@pytest.mark.parametrize("key", [(), (1,), (2, 0, 7)])
@pytest.mark.parametrize("rows", [1, 6])
def test_substream_normals_rows_equal_per_row_substreams(seed, key, rows):
    got = substream_normals(seed, *key, rows=rows, cols=9)
    assert got.shape == (rows, 9)
    for d in range(rows):
        np.testing.assert_array_equal(got[d], substream(seed, *key, d).standard_normal(9))


def test_substream_normals_does_not_spawn_from_caller_sequence():
    ss = np.random.SeedSequence(99)
    substream_normals(ss, 4, rows=3, cols=2)
    assert ss.n_children_spawned == 0
