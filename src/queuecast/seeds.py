"""Deterministic seed derivation.

A single master seed is split into per-day, per-purpose streams through
numpy's SeedSequence (PCG64 generators), so any pipeline stage can be rerun
in isolation and reproduce its randomness exactly. The purpose codes below
are frozen; changing them would silently re-key every stream.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

SIMULATE = 1
SAMPLING = 2
SUBSAMPLE = 3
SPLIT = 4
CV = 5


def rng_for(master_seed: int, purpose: int, day: int = 0) -> Generator:
    """PCG64 generator keyed by (master seed, purpose, day)."""
    ss = SeedSequence([int(master_seed), int(purpose), int(day)])
    return Generator(PCG64(ss))


def seed_for(master_seed: int, purpose: int, day: int = 0) -> int:
    """A derived 64-bit integer seed for components that take plain ints."""
    ss = SeedSequence([int(master_seed), int(purpose), int(day)])
    lo, hi = ss.generate_state(2, dtype=np.uint32)
    return int(hi) << 32 | int(lo)
