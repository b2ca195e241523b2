"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (noise synthesis, randomized voxel
ordering, random SuperVoxel selection, phantom ensembles) accepts a ``seed``
argument that may be ``None``, an integer, or a ``numpy.random.Generator``.
Centralising the resolution logic keeps runs reproducible and keeps the
seeding convention identical across modules.
"""

from __future__ import annotations

import numpy as np

__all__ = ["resolve_rng", "spawn_rngs"]


def resolve_rng(
    seed: int | np.random.Generator | np.random.SeedSequence | None,
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for a fresh nondeterministic generator, an ``int`` or a
        :class:`numpy.random.SeedSequence` for a deterministic one, or an
        existing ``Generator`` which is returned unchanged (so callers can
        thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``seed``.

    The child streams are independent yet reproducible regardless of the
    order they are consumed in.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    root = resolve_rng(seed)
    # Drawing child seeds from the root keeps the child streams reproducible
    # for a fixed root seed while remaining independent of one another.
    child_seeds = root.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in child_seeds]
