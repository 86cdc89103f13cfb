"""Deterministic random-number substreams.

Every stochastic routine in this package is keyed by an integer master seed
plus a tuple of non-negative integers identifying the unit of work
(replication, sample, split, bootstrap, ...).  A unit of work draws all of
its random numbers from its one substream; a bootstrap, for instance, takes
its B multiplier vectors as the rows of one matrix.  Substreams derived from
the same (seed, key) are identical regardless of execution order or worker
count, so parallel runs are exactly reproducible.
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
    """(rows, cols) standard normals from the one substream ``(seed, *key)``,
    filled in row order, so row d depends only on (seed, key, cols, d)."""
    return substream(seed, *key).standard_normal((rows, cols))
