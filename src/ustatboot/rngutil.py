"""Deterministic random-number substreams.

Every stochastic routine in this package is keyed by an integer master seed
plus a tuple of non-negative integers identifying the unit of work (bootstrap
draw, replication, sampled row block, ...).  Substreams derived from the same
(seed, key) are identical regardless of execution order or worker count, so
parallel runs are exactly reproducible.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.SeedSequence


def seed_sequence(seed: SeedLike, *key: int) -> np.random.SeedSequence:
    """Return the SeedSequence for the substream identified by ``key``."""
    if isinstance(seed, np.random.SeedSequence):
        base = seed
    else:
        base = np.random.SeedSequence(int(seed))
    if not key:
        return base
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=base.spawn_key + tuple(key)
    )


def substream(seed: SeedLike, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``."""
    return np.random.default_rng(seed_sequence(seed, *key))


def substream_normals(seed: SeedLike, *key: int, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) standard normals whose row d is, bit for bit,
    ``substream(seed, *key, d).standard_normal(cols)``.

    The base SeedSequence is built once and each row is filled in place.
    A caller's SeedSequence is only read, never spawned from.
    """
    base = seed_sequence(seed)
    prefix = base.spawn_key + tuple(key)
    out = np.empty((rows, cols))
    for d in range(rows):
        ss = np.random.SeedSequence(base.entropy, spawn_key=prefix + (d,))
        np.random.Generator(np.random.PCG64(ss)).standard_normal(out=out[d])
    return out
