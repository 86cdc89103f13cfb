import numpy as np

from ustatboot.rngutil import seed_sequence, substream


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
