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
    if not isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(int(seed), spawn_key=key)
    if not key:
        return seed
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + key)


def substream(seed: SeedLike, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``."""
    return np.random.default_rng(seed_sequence(seed, *key))
