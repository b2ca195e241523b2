"""Functional (numerics-level) emulation of the MBIR GPU kernel.

The timing model in :mod:`repro.gpusim.timing` prices the kernel; this
module *executes* it, statement for statement, with CUDA threadblock
semantics — the emulated program is Alg. 3 lines 4-13:

    while (voxel = atomicFetch(svId)):        # dynamic voxel queue
        each thread computes partial theta1/theta2 over its chunk rows
        store partials to shared memory; __syncthreads()
        tree-style reduction of theta1/theta2;  __syncthreads()
        thread 0 updates the voxel value
        all threads atomically write the error delta back to the SVB

The emulator gives each thread a private register file (a dict), a block-
shared memory array, a ``syncthreads`` barrier that *validates* barrier
semantics (every thread must arrive; divergence around a barrier is the
classic CUDA bug), and runs threads in warp-lockstep order.  Its purpose:

* prove the kernel decomposition (chunked partial sums + tree reduction +
  atomic write-back) is numerically equivalent to the reference
  :class:`~repro.core.voxel_update.SliceUpdater` update, including when
  several threadblocks of one SV interleave (the intra-SV staleness the
  drivers emulate at a coarser grain);
* catch structural bugs a pure cost model cannot (mis-sized reductions for
  non-power-of-two thread counts, barrier divergence, lost atomic updates).

It is deliberately an *interpreter* (slow, small problems only) — the
production numerics stay in the vectorised drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.supervoxel import SuperVoxel
from repro.core.voxel_update import SliceUpdater, solve_surrogate
from repro.utils import check_positive

__all__ = ["SyncError", "EmulatedBlock", "MBIRKernelEmulator"]


class SyncError(RuntimeError):
    """Raised when __syncthreads() is not reached by every thread."""


@dataclass
class EmulatedBlock:
    """One threadblock: threads, shared memory, and a validating barrier.

    Threads are represented as generator coroutines that yield at each
    ``__syncthreads()``; the block runs them in warp-lockstep rounds and
    checks that all either yield (arrive at the barrier) or have finished.
    """

    n_threads: int
    shared_words: int
    shared: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        check_positive("n_threads", self.n_threads)
        check_positive("shared_words", self.shared_words)
        self.shared = np.zeros(self.shared_words, dtype=np.float64)

    def run(self, thread_program, *args) -> None:
        """Run ``thread_program(tid, block, *args)`` for every thread.

        The program must be a generator function yielding once per
        ``__syncthreads()``.  All threads must execute the same number of
        barriers (CUDA's requirement); otherwise :class:`SyncError`.
        """
        threads = [thread_program(tid, self, *args) for tid in range(self.n_threads)]
        alive = [True] * self.n_threads
        while any(alive):
            yielded = 0
            finished = 0
            for tid, gen in enumerate(threads):
                if not alive[tid]:
                    continue
                try:
                    next(gen)
                    yielded += 1
                except StopIteration:
                    alive[tid] = False
                    finished += 1
            # CUDA semantics: a barrier must be reached by every thread of
            # the block.  A round in which some threads sync while others
            # return is divergence.
            if yielded and finished:
                raise SyncError(
                    "barrier divergence: some threads reached __syncthreads(), "
                    "others returned"
                )


def _tree_reduce(shared: np.ndarray, base: int, n: int) -> None:
    """In-place tree reduction of ``shared[base : base + n]`` into ``base``.

    Handles non-power-of-two ``n`` the way CUDA reductions do: fold the
    overhang onto the first elements, then halve.
    """
    size = 1
    while size * 2 < n:
        size *= 2
    # Fold the overhang [size, n) onto [0, n - size).
    for i in range(size, n):
        shared[base + i - size] += shared[base + i]
    while size > 1:
        half = size // 2
        for i in range(half, size):
            shared[base + i - half] += shared[base + i]
        size = half


@dataclass
class MBIRKernelEmulator:
    """Executes the MBIR_GPU_Kernel of Alg. 3 for one SuperVoxel.

    Parameters
    ----------
    updater:
        The reference slice state (fused w*A products, theta2, prior).
    sv:
        The SuperVoxel whose voxels the kernel updates.
    threads_per_block:
        Threads cooperating on one voxel (intra-voxel parallelism).
    threadblocks:
        Concurrent blocks pulling voxels from the shared dynamic queue
        (intra-SV parallelism).  Blocks interleave at *voxel* granularity:
        all blocks' in-flight voxels compute against the same SVB state,
        then their write-backs apply atomically — the same bulk-synchronous
        semantics as :func:`repro.core.sv_engine.process_supervoxel` with
        ``stale_width = threadblocks``.
    """

    updater: SliceUpdater
    sv: SuperVoxel
    threads_per_block: int = 64
    threadblocks: int = 1

    def __post_init__(self) -> None:
        check_positive("threads_per_block", self.threads_per_block)
        check_positive("threadblocks", self.threadblocks)

    # ------------------------------------------------------------------
    def _voxel_program(self, tid, block, voxel, member, x_flat, svb, result):
        """One thread's share of a voxel update (generator; yields = barrier)."""
        nt = self.threads_per_block
        footprint = self.sv.member_footprint(member)
        sl = self.updater.column_slice(voxel)
        wa = self.updater.wa[sl]
        a = self.updater.a_data[sl]

        # --- partial theta1 over this thread's strided elements ----------
        part1 = 0.0
        for i in range(tid, footprint.size, nt):
            part1 += -wa[i] * svb[footprint[i]]
        block.shared[tid] = part1
        yield  # __syncthreads()

        # --- tree reduction (thread 0 stands in for the warp cascade) ----
        if tid == 0:
            _tree_reduce(block.shared, 0, nt)
        yield  # __syncthreads()

        # --- thread 0 solves the surrogate and publishes delta -----------
        if tid == 0:
            theta1 = float(block.shared[0])
            theta2 = float(self.updater.theta2[voxel])
            v = float(x_flat[voxel])
            nb_idx = self.updater.neighborhood.indices[voxel]
            valid = nb_idx >= 0
            u = solve_surrogate(
                v,
                theta1,
                theta2,
                x_flat[nb_idx[valid]],
                self.updater.neighborhood.weights[valid],
                self.updater.prior,
                positivity=self.updater.positivity,
            )
            result["new_value"] = u
            result["delta"] = u - v
        yield  # __syncthreads()

        # --- all threads atomically write back their share ---------------
        delta = result["delta"]
        if delta != 0.0:
            for i in range(tid, footprint.size, nt):
                # atomicAdd on the SVB cell.
                svb[footprint[i]] -= a[i] * delta

    # ------------------------------------------------------------------
    def run(
        self,
        x_flat: np.ndarray,
        svb: np.ndarray,
        *,
        order: np.ndarray | None = None,
        zero_skip: bool = False,
    ) -> int:
        """Process all member voxels; returns the number of updates.

        ``order`` fixes the dynamic queue's pop order (default: member
        order).  With ``threadblocks > 1``, consecutive queue pops form a
        concurrent wave: proposals are computed against the pre-wave state
        and applied together (see class docstring).
        """
        if order is None:
            order = np.arange(self.sv.n_voxels)
        updates = 0
        for start in range(0, order.size, self.threadblocks):
            wave = order[start : start + self.threadblocks]
            proposals = []
            for m in wave:
                m = int(m)
                voxel = int(self.sv.voxels[m])
                if zero_skip and self.updater.should_skip(voxel, x_flat):
                    continue
                # Compute phase against the shared pre-wave state.
                x_snapshot = x_flat.copy()
                svb_snapshot = svb.copy()
                block = EmulatedBlock(self.threads_per_block, self.threads_per_block)
                result: dict = {"delta": 0.0, "new_value": float(x_snapshot[voxel])}
                block.run(self._voxel_program, voxel, m, x_snapshot, svb_snapshot, result)
                proposals.append((m, voxel, result["new_value"]))
            for m, voxel, u in proposals:
                delta = u - float(x_flat[voxel])
                if delta != 0.0:
                    x_flat[voxel] = u
                    footprint = self.sv.member_footprint(m)
                    sl = self.updater.column_slice(voxel)
                    svb[footprint] -= self.updater.a_data[sl] * delta
                updates += 1
        return updates
