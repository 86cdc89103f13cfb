"""Deterministic random-number substreams.

Every stochastic routine in this package is keyed by an integer master seed
plus a tuple of non-negative integers identifying the unit of work
(replication, sample, split, bootstrap, ...).  A unit of work draws all of
its random numbers from its one substream; a bootstrap, for instance, takes
its B multiplier vectors as the rows of one matrix.  Substreams derived from
the same (seed, key) are identical regardless of execution order or worker
count, so parallel runs are exactly reproducible.  The seed and key entries
are integers (``operator.index``, so ``np.int64(7)`` is 7); a float, string,
None or bool raises TypeError.
"""

from __future__ import annotations

import operator

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``."""
    if any(isinstance(v, bool) for v in (seed, *key)):
        raise TypeError("seed and key entries must be integers, not bool")
    seed, *key = map(operator.index, (seed, *key))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
