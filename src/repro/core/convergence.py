"""Convergence accounting: equits, RMSE in Hounsfield units, run histories.

The paper measures convergence in *equits* — "an update of N voxels, where N
is the total number of voxels in the image, is one equit" — and reports the
time at which the root-mean-square error versus a fully converged "golden"
image drops below 10 HU, the level at which no visible artifacts remain
(§5.2).  These helpers implement exactly that accounting and are shared by
all three drivers so their histories are directly comparable.

A production job has no golden image, so it cannot use that criterion to
stop.  :class:`StopRule` adds one that reads only the run's own history:
the mean ``|x_after - x_before|`` per voxel update, in HU, over the
trailing iterations that hold at least one equit of updates
(DESIGN.md §18).  The same rule decides every stop — target, converged,
stalled, budget — and records which one in ``RunHistory.stop_reason``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ct.phantoms import MU_WATER

__all__ = [
    "rmse_hu",
    "RMSE_CONVERGED_HU",
    "IterationRecord",
    "RunHistory",
    "StopRule",
    "abs_change_hu",
]

#: Convergence threshold from §5.2: below 10 HU RMSE versus the golden image
#: "no visible artifacts remain".
RMSE_CONVERGED_HU = 10.0


def rmse_hu(image: np.ndarray, golden: np.ndarray) -> float:
    """Root-mean-square difference between two images, in Hounsfield units.

    Both images are in attenuation units; the HU scale is
    ``1000 * delta_mu / mu_water``, so RMSE converts by the same factor.
    """
    a = np.asarray(image, dtype=np.float64)
    b = np.asarray(golden, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rmse_mu = float(np.sqrt(np.mean((a - b) ** 2)))
    return 1000.0 * rmse_mu / MU_WATER


def abs_change_hu(after: np.ndarray, before: np.ndarray) -> float:
    """``sum |after - before|`` over all voxels, in Hounsfield units."""
    return 1000.0 * float(np.abs(after - before).sum()) / MU_WATER


@dataclass(frozen=True)
class IterationRecord:
    """State snapshot after one outer iteration of a driver."""

    iteration: int
    equits: float  # cumulative actual voxel updates / n_voxels
    cost: float  # MAP objective
    rmse: float | None  # HU RMSE vs golden, if a golden image was provided
    updates: int  # voxel updates performed this iteration
    svs_updated: int  # SuperVoxels processed this iteration (0 for sequential)
    #: sum |x_after - x_before| in HU over this iteration; recorded only
    #: when a ``stop_delta_hu`` rule is on (None otherwise)
    delta_hu: float | None = None


@dataclass
class RunHistory:
    """Full history of a reconstruction run.

    ``records[i]`` describes outer iteration ``i + 1``.  ``converged_equits``
    is filled by the driver when the RMSE threshold is first crossed;
    ``converged_threshold_hu`` records *which* threshold that was.  Drivers
    pass their caller's ``stop_rmse`` here, so a run stopped at e.g. 50 HU
    is "converged" against a much laxer bar than the paper's 10 HU
    (:data:`RMSE_CONVERGED_HU`) — reports must read the threshold alongside
    the equits to avoid silently conflating the two.  ``stop_reason`` is
    what :meth:`StopRule.reason` returned when the driver's loop ended
    (None in histories read from files that predate it).
    """

    records: list[IterationRecord] = field(default_factory=list)
    converged_equits: float | None = None
    converged_iteration: int | None = None
    converged_threshold_hu: float | None = None
    stop_reason: str | None = None

    def append(self, record: IterationRecord) -> None:
        """Record one outer iteration."""
        self.records.append(record)

    @property
    def equits(self) -> float:
        """Cumulative equits at the end of the run."""
        return self.records[-1].equits if self.records else 0.0

    @property
    def costs(self) -> np.ndarray:
        """Cost trajectory as an array."""
        return np.array([r.cost for r in self.records])

    @property
    def rmses(self) -> np.ndarray:
        """RMSE trajectory (NaN where unavailable)."""
        return np.array([np.nan if r.rmse is None else r.rmse for r in self.records])

    def mean_update_hu(self, n_voxels: int) -> float | None:
        """Mean ``|dx|`` per voxel update over the trailing equit, in HU.

        Walks back from the last iteration until the iterations passed hold
        at least ``n_voxels`` updates (one equit against the full raster),
        then divides their summed ``delta_hu`` by their summed updates.
        None while the history holds less than one equit, or when an
        iteration in the window has no recorded ``delta_hu``.
        """
        total_delta = 0.0
        total_updates = 0
        for r in reversed(self.records):
            if r.delta_hu is None:
                return None
            total_delta += r.delta_hu
            total_updates += r.updates
            if total_updates >= n_voxels:
                return total_delta / total_updates
        return None

    @property
    def equit_trajectory(self) -> np.ndarray:
        """Cumulative-equit values per iteration."""
        return np.array([r.equits for r in self.records])

    def mark_converged_if_below(self, threshold: float) -> None:
        """Fill the convergence fields from the first record under ``threshold``.

        The threshold actually applied is recorded in
        ``converged_threshold_hu`` whether or not any record crosses it, so
        a consumer can always tell which bar a (non-)convergence refers to.
        """
        if self.converged_equits is not None:
            return
        self.converged_threshold_hu = float(threshold)
        for r in self.records:
            if r.rmse is not None and r.rmse < threshold:
                self.converged_equits = r.equits
                self.converged_iteration = r.iteration
                return


@dataclass(frozen=True)
class StopRule:
    """Every stop test of a driver loop, read from the run's history alone.

    The reasons, in the order they are tested: ``"target"`` (the last
    RMSE vs golden is under ``stop_rmse``), ``"converged"`` (the mean
    update over the trailing equit is under ``stop_delta_hu``),
    ``"stalled"`` (an iteration after the first changed no voxel) and
    ``"budget"`` (``max_updates`` or ``max_iterations`` spent).

    Drivers evaluate :meth:`reason` in their loop condition — before each
    iteration, including the first one after a resume — so a run resumed
    from the checkpoint of its stopping iteration stops again at once,
    for the same reason, instead of running one more iteration.

    ``max_updates`` is the update budget (``max_equits * n_voxels``);
    ``n_voxels`` is the full raster, which also sizes the
    ``stop_delta_hu`` window (see :meth:`RunHistory.mean_update_hu`).
    """

    n_voxels: int
    max_updates: float
    max_iterations: int | None = None
    stop_rmse: float | None = None
    stop_delta_hu: float | None = None

    def reason(self, history: RunHistory, total_updates: int) -> str | None:
        """Why the run must stop now, or None to run another iteration."""
        if history.records:
            last = history.records[-1]
            if self.stop_rmse is not None and last.rmse is not None and last.rmse < self.stop_rmse:
                return "target"
            if self.stop_delta_hu is not None:
                mean = history.mean_update_hu(self.n_voxels)
                if mean is not None and mean < self.stop_delta_hu:
                    return "converged"
            # Iteration 1 is exempt: zero-skipping is suspended there.
            if last.updates == 0 and last.iteration > 1:
                return "stalled"
        if total_updates >= self.max_updates:
            return "budget"
        if self.max_iterations is not None and len(history.records) >= self.max_iterations:
            return "budget"
        return None
