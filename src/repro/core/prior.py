"""Markov-random-field priors and their ICD surrogate coefficients.

MBIR computes the MAP estimate

    x* = argmin_x  (1/2) (y - Ax)^T W (y - Ax)  +  sum_{{i,j} in N} b_ij rho(x_i - x_j)

over an 8-connected in-plane neighborhood ``N``.  The per-voxel update
(Alg. 1's inexpensive ``func``) minimises a local surrogate: the data term is
exactly quadratic in the voxel (theta1/theta2), and each prior term
``rho(u - x_k)`` is replaced by the symmetric-bound majoriser
``btilde_k (u - x_k)^2`` with

    btilde_k = b_k * rho'(delta_k) / (2 * delta_k),   delta_k = v - x_k ,

which touches ``rho`` at the current value and lies above it whenever the
influence ratio ``rho'(d)/d`` is non-increasing in ``|d|`` (true for the
q-GGMRF with 1 <= q <= 2 and for the quadratic).  Minimising the surrogate
then gives the closed-form update used by every driver in this library:

    u = v + (-theta1 + 2 sum_k btilde_k (x_k - v)) / (theta2 + 2 sum_k btilde_k)

This majorise-minimise structure is what guarantees the monotone cost
descent that the ICD literature (and our property tests) rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.utils import check_positive

__all__ = ["Prior", "QuadraticPrior", "QGGMRFPrior", "Neighborhood", "shared_neighborhood"]


class Prior:
    """Interface for pairwise MRF potentials used by the ICD update."""

    def potential(self, delta: np.ndarray) -> np.ndarray:
        """Evaluate ``rho(delta)`` elementwise (used by the cost function)."""
        raise NotImplementedError

    def influence_ratio(self, delta: np.ndarray) -> np.ndarray:
        """Evaluate ``rho'(delta) / (2 * delta)`` elementwise, stably at 0.

        This is the surrogate coefficient before multiplication by the
        neighbor weight ``b_k``.
        """
        raise NotImplementedError

    def influence_ratio_scalar(self, delta: float) -> float:
        """Scalar influence ratio with *canonical* (libm) arithmetic.

        The kernel layer (:mod:`repro.core.kernels`) requires that both
        kernels — the interpreted oracle and compiled C — produce
        bit-identical iterates.  NumPy's vectorized transcendentals are not
        bit-identical to the scalar libm calls the C kernel emits, so the canonical
        definition of the update math evaluates the influence ratio one
        scalar at a time.  Subclasses whose ratio involves transcendentals
        must override this with an explicit ``math``-module formula (see
        :class:`QGGMRFPrior`); the default falls back to the array
        implementation, which the oracle calls for custom priors (the C
        kernel runs only the q-GGMRF and quadratic priors).
        """
        return float(self.influence_ratio(np.float64(delta)))


@dataclass(frozen=True)
class QuadraticPrior(Prior):
    """Gaussian MRF: ``rho(d) = d^2 / (2 sigma^2)``.

    The surrogate is exact, so ICD with this prior is plain coordinate
    descent on a quadratic cost — handy for tests because the fixed point is
    a linear-algebra solution we can verify independently.
    """

    sigma: float

    def __post_init__(self) -> None:
        check_positive("sigma", self.sigma)

    def potential(self, delta: np.ndarray) -> np.ndarray:
        d = np.asarray(delta, dtype=np.float64)
        return d * d / (2.0 * self.sigma**2)

    def influence_ratio(self, delta: np.ndarray) -> np.ndarray:
        d = np.asarray(delta, dtype=np.float64)
        return np.full_like(d, 1.0 / (2.0 * self.sigma**2))

    def influence_ratio_scalar(self, delta: float) -> float:
        return 1.0 / (2.0 * self.sigma * self.sigma)


@dataclass(frozen=True)
class QGGMRFPrior(Prior):
    """q-generalised Gaussian MRF (Thibault et al.), the standard MBIR prior.

    With ``p = 2`` fixed (as in the released MBIR-CT software):

        rho(d) = (d^2 / (2 sigma^2)) / (1 + |d / (T sigma)|^(2 - q))

    ``q`` in (1, 2] controls edge preservation (q = 2 degenerates to the
    quadratic); ``T`` sets the transition scale between the quadratic core
    and the ~|d|^q tail.

    The influence ratio has the closed form (r = |d| / (T sigma)):

        rho'(d) / (2 d) = (1 + (q/2) r^(2-q)) / (2 sigma^2 (1 + r^(2-q))^2)

    which is finite and equal to ``1 / (2 sigma^2)`` at ``d = 0``.
    """

    sigma: float
    q: float = 1.2
    T: float = 1.0

    def __post_init__(self) -> None:
        check_positive("sigma", self.sigma)
        check_positive("T", self.T)
        if not 1.0 <= self.q <= 2.0:
            raise ValueError(f"q must be in [1, 2] for a valid surrogate, got {self.q}")

    def potential(self, delta: np.ndarray) -> np.ndarray:
        d = np.asarray(delta, dtype=np.float64)
        r = np.abs(d) / (self.T * self.sigma)
        return (d * d / (2.0 * self.sigma**2)) / (1.0 + r ** (2.0 - self.q))

    def influence_ratio(self, delta: np.ndarray) -> np.ndarray:
        d = np.asarray(delta, dtype=np.float64)
        r = np.abs(d) / (self.T * self.sigma)
        rq = r ** (2.0 - self.q)
        return (1.0 + 0.5 * self.q * rq) / (2.0 * self.sigma**2 * (1.0 + rq) ** 2)

    def surrogate_coeffs(self) -> tuple[float, float, float, float]:
        """Hoisted constants ``(tsig, c0, hq, p)`` of the canonical scalar form.

        The canonical scalar ratio is::

            r  = abs(d) / tsig          tsig = T * sigma
            rq = pow(r, p)              p    = 2 - q
            (1 + hq * rq) / (c0 * ((1 + rq) * (1 + rq)))
                                        hq   = q / 2,  c0 = 2 * sigma^2

        Every kernel must evaluate exactly these expressions in exactly
        this association order — hoisting ``2 * sigma^2`` differently (for
        example as ``(2 * sigma) * sigma``) changes the last ulp and breaks
        cross-kernel bit-equality.
        """
        return (
            self.T * self.sigma,
            2.0 * (self.sigma * self.sigma),
            0.5 * self.q,
            2.0 - self.q,
        )

    def influence_ratio_scalar(self, delta: float) -> float:
        tsig, c0, hq, p = self.surrogate_coeffs()
        r = abs(delta) / tsig
        rq = math.pow(r, p)
        t = 1.0 + rq
        return (1.0 + hq * rq) / (c0 * (t * t))


# Offsets (drow, dcol) and the conventional 8-neighborhood weights: side
# neighbors weighted 1, diagonal neighbors 1/sqrt(2), normalised to sum 1.
_OFFSETS = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]


@dataclass
class Neighborhood:
    """Precomputed 8-neighborhood indexing for an ``(n, n)`` raster.

    Attributes
    ----------
    n:
        Image side length.
    indices:
        ``(n_voxels, 8)`` int64 array of flat neighbor indices, ``-1`` where
        the neighbor falls outside the image (free boundary condition).
    weights:
        ``(8,)`` float64 neighbor weights ``b_k`` summing to 1.
    """

    n: int
    indices: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("n", self.n)
        n = self.n
        rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        rows = rows.ravel()
        cols = cols.ravel()
        idx = np.empty((n * n, 8), dtype=np.int64)
        for k, (dr, dc) in enumerate(_OFFSETS):
            r = rows + dr
            c = cols + dc
            valid = (r >= 0) & (r < n) & (c >= 0) & (c < n)
            idx[:, k] = np.where(valid, r * n + c, -1)
        self.indices = idx
        w = np.array([1.0] * 4 + [1.0 / np.sqrt(2.0)] * 4)
        self.weights = w / w.sum()

    def neighbor_values(self, x_flat: np.ndarray, voxel: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and weights of ``voxel``'s in-bounds neighbors."""
        idx = self.indices[voxel]
        valid = idx >= 0
        return x_flat[idx[valid]], self.weights[valid]

    def pair_differences(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All unordered neighbor differences and their weights (for the cost).

        Each pair is counted once, using the 4 forward offsets
        (down, right, down-right, down-left).
        """
        img = np.asarray(image, dtype=np.float64).reshape(self.n, self.n)
        diffs = []
        weights = []
        w_side = self.weights[0]
        w_diag = self.weights[4]
        for (dr, dc), w in [((1, 0), w_side), ((0, 1), w_side), ((1, 1), w_diag), ((1, -1), w_diag)]:
            if (dr, dc) == (1, 0):
                d = img[1:, :] - img[:-1, :]
            elif (dr, dc) == (0, 1):
                d = img[:, 1:] - img[:, :-1]
            elif (dr, dc) == (1, 1):
                d = img[1:, 1:] - img[:-1, :-1]
            else:  # (1, -1)
                d = img[1:, :-1] - img[:-1, 1:]
            diffs.append(d.ravel())
            weights.append(np.full(d.size, w))
        return np.concatenate(diffs), np.concatenate(weights)


@lru_cache(maxsize=8)
def shared_neighborhood(n: int) -> Neighborhood:
    """Process-wide cached :class:`Neighborhood` for an ``(n, n)`` raster.

    The table is a pure function of ``n`` (``(n^2, 8)`` int64 plus the
    weights) and every driver needs one, so the reconstruction entry points
    share a single instance instead of rebuilding it per call.  Callers must
    treat the cached instance as **read-only**; anything that needs to mutate
    the tables should construct its own ``Neighborhood(n)``.
    """
    return Neighborhood(n)
