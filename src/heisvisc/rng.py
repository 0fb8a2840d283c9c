"""Deterministic random streams for randomized checks.

Every randomized check in this package draws from a counter-based Philox
generator keyed by a user-supplied seed plus a fixed per-check stream index.
Reports are therefore reproducible from the seed alone, independent of call
order, and no global RNG state is ever touched.
"""

import numpy as np


def stream(seed, stream_id=0):
    """Return an independent ``numpy.random.Generator`` for (seed, stream_id).

    The same pair always yields the same draw sequence; distinct stream ids
    under one seed are statistically independent.
    """
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(ss))


def check_seed(seed):
    """``seed`` as an int, refused with a ValueError naming it if negative."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed
