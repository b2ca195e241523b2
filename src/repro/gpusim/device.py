"""Hardware specifications for the performance-model substrate.

Two machines from the paper's §5.1 system setup:

* **GPU** — NVIDIA Titan X (Maxwell GM200): 24 SMMs x 128 CUDA cores at
  1127 MHz, 12 GB device memory at 336 GB/s, 3 MB shared L2, 96 KB shared
  memory and a 24 KB unified L1/texture cache per SMM.
* **CPU** — two Intel Xeon E5-2670 sockets, 16 cores total at 2.6 GHz,
  230 W TDP ("iso-power" with the GPU's 250 W).

Peak numbers come from the vendor datasheets and from measurements the paper
itself reports (e.g. the L2 quirk that ``float`` loads reach only ~50 % of
L2 bandwidth while ``double`` loads reach 100 %, §4.3.2).  Everything the
timing model treats as a *device property* lives here; everything that is a
*calibration constant* of our first-order model lives in
:mod:`repro.gpusim.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUDeviceSpec", "CPUSpec", "TITAN_X", "XEON_E5_2670_X2"]


@dataclass(frozen=True)
class GPUDeviceSpec:
    """A CUDA-like GPU for the occupancy and memory models."""

    name: str
    n_smm: int
    cores_per_smm: int
    clock_hz: float
    warp_size: int
    max_threads_per_smm: int
    max_blocks_per_smm: int
    max_threads_per_block: int
    registers_per_smm: int
    register_alloc_granularity: int  # registers, allocated per warp
    shared_mem_per_smm: int  # bytes
    shared_mem_per_block: int  # bytes
    l2_bytes: int
    unified_l1_tex_bytes: int  # per SMM
    dram_bytes: int
    dram_peak_bw: float  # bytes/s
    l2_peak_bw: float  # bytes/s (aggregate)
    tex_peak_bw: float  # bytes/s (aggregate, on hits)
    shared_peak_bw: float  # bytes/s (aggregate)
    l2_float_efficiency: float  # fraction of L2 peak reachable with 4B loads
    sector_bytes: int  # memory transaction granularity
    kernel_launch_overhead_s: float
    atomic_throughput_ops: float  # independent atomics/s (no conflicts)
    atomic_conflict_latency_s: float  # serialization cost per conflicting atomic

    @property
    def total_cores(self) -> int:
        """Total CUDA cores."""
        return self.n_smm * self.cores_per_smm

    @property
    def max_resident_threads(self) -> int:
        """Maximum co-resident threads on the whole device."""
        return self.n_smm * self.max_threads_per_smm

    @property
    def peak_flops(self) -> float:
        """Single-precision FMA peak (2 flops per core per cycle)."""
        return 2.0 * self.total_cores * self.clock_hz


#: The paper's GPU (§5.1).  Bandwidth figures: 336 GB/s DRAM is the Titan X
#: datasheet; the L2/texture/shared peaks are set so the paper's *achieved*
#: numbers (472 GB/s L2 with the double trick, 702 GB/s texture at 60 % hit
#: rate, 456 GB/s shared) sit at realistic fractions of peak.
TITAN_X = GPUDeviceSpec(
    name="NVIDIA Titan X (Maxwell GM200)",
    n_smm=24,
    cores_per_smm=128,
    clock_hz=1127e6,
    warp_size=32,
    max_threads_per_smm=2048,
    max_blocks_per_smm=32,
    max_threads_per_block=1024,
    registers_per_smm=65536,
    register_alloc_granularity=256,
    shared_mem_per_smm=96 * 1024,
    shared_mem_per_block=48 * 1024,
    l2_bytes=3 * 1024 * 1024,
    unified_l1_tex_bytes=24 * 1024,
    dram_bytes=12 * 1024**3,
    dram_peak_bw=336e9,
    l2_peak_bw=950e9,
    tex_peak_bw=1100e9,
    shared_peak_bw=1600e9,
    l2_float_efficiency=0.50,  # §4.3.2: float reaches only 50% of L2 bw
    sector_bytes=32,
    kernel_launch_overhead_s=8e-6,
    atomic_throughput_ops=40e9,
    atomic_conflict_latency_s=250e-9,
)


@dataclass(frozen=True)
class CPUSpec:
    """A multi-core CPU for the PSV-ICD / sequential-ICD timing model."""

    name: str
    n_cores: int
    clock_hz: float
    simd_width_floats: int
    l1_bytes: int  # per core
    l2_bytes: int  # per core (private)
    l3_bytes: int  # per socket
    n_sockets: int
    dram_peak_bw: float  # bytes/s aggregate
    dram_latency_s: float
    cache_line_bytes: int
    lock_overhead_s: float  # acquiring the error-sinogram lock


#: The paper's CPU platform (§5.1): 2 sockets x 8-core Xeon E5-2670
#: (Sandy Bridge EP, AVX, 20 MB L3 per socket, 51.2 GB/s per socket).
XEON_E5_2670_X2 = CPUSpec(
    name="2x Intel Xeon E5-2670 (16 cores)",
    n_cores=16,
    clock_hz=2.6e9,
    simd_width_floats=8,
    l1_bytes=32 * 1024,
    l2_bytes=256 * 1024,
    l3_bytes=20 * 1024 * 1024,
    n_sockets=2,
    dram_peak_bw=2 * 51.2e9,
    dram_latency_s=80e-9,
    cache_line_bytes=64,
    lock_overhead_s=1e-6,
)
