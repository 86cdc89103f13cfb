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


def _two_step(seed, *key):
    """The substream's SeedSequence built in two steps, by way of the master
    SeedSequence of ``seed`` (reference)."""
    if isinstance(seed, np.random.SeedSequence):
        base = seed
    else:
        base = np.random.SeedSequence(int(seed))
    if not key:
        return base
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=base.spawn_key + tuple(key)
    )


def test_seed_sequence_equals_two_step_construction():
    seeds = [
        0,
        7,
        2**40 + 3,
        np.int64(11),
        np.random.SeedSequence(99),
        np.random.SeedSequence(5, spawn_key=(3, 1)),
    ]
    for seed in seeds:
        for key in [(), (0,), (4, 2), (1, 0, 3)]:
            got, want = seed_sequence(seed, *key), _two_step(seed, *key)
            assert (got.entropy, got.spawn_key) == (want.entropy, want.spawn_key)
            np.testing.assert_array_equal(
                got.generate_state(8), want.generate_state(8)
            )
