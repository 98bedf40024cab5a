"""Device specifications for the simulated GPUs.

Two concrete devices mirror the paper's testbeds (Table III):

* :func:`rtx4090` — the cloud-server GPU (Ada, 128 SMs, 24 GB GDDR6X),
* :func:`orin_nano` — the edge GPU (Ampere, 8 SMs, 8 GB LPDDR5).

The numbers are public architecture figures; the simulator only relies on
their *relative* magnitudes (e.g. DRAM is ~40x slower than shared memory),
which is what shapes every reproduced result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MemoryLevel", "HardwareSpec", "rtx4090", "orin_nano", "generic_gpu"]


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the device memory hierarchy.

    Levels are ordered from slowest/largest (index 0 = DRAM) to
    fastest/smallest (registers).  ``capacity_bytes`` is the capacity
    *visible to one thread block* for on-chip levels (shared memory,
    registers) and the device-wide capacity for off-chip levels.
    """

    name: str
    capacity_bytes: int
    bandwidth_bytes_per_s: float
    latency_s: float
    #: True for per-SM resources that bound occupancy (smem, registers).
    per_block: bool = False

    def access_time(self, nbytes: float) -> float:
        """Latency + transfer time for moving ``nbytes`` through this level.

        This is the quantity in the paper's caching-benefit formula
        (Formula 2): ``L + S/B``.
        """
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class HardwareSpec:
    """Compute + memory architecture of a simulated GPU.

    Attributes mirror what Gensor's hardware-aware formulas need:

    * ``peak_flops`` drives the compute-bound roofline,
    * ``levels`` (DRAM → L2 → shared → registers) drives the caching
      benefit and memory checks,
    * ``bank_width_elems`` / ``num_banks`` drive the vThread benefit
      (Formula 3),
    * occupancy limits (threads/registers/smem per SM) drive the latency
      hiding model.
    """

    name: str
    num_sms: int
    clock_hz: float
    fp32_cores_per_sm: int
    warp_size: int = 32
    max_threads_per_sm: int = 1536
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 16
    registers_per_sm: int = 65536
    #: shared-memory bank geometry: num_banks banks of bank_width_elems
    #: 4-byte words serviced per cycle.
    num_banks: int = 32
    bank_width_elems: int = 32
    #: fixed host-side cost of launching one kernel (dominates eager
    #: frameworks' small-op performance).
    kernel_launch_overhead_s: float = 4.0e-6
    levels: tuple[MemoryLevel, ...] = field(default_factory=tuple)

    # -- derived quantities -------------------------------------------------

    @property
    def peak_flops(self) -> float:
        """Peak single-precision FLOP/s (FMA counts as two FLOPs)."""
        return self.num_sms * self.fp32_cores_per_sm * self.clock_hz * 2.0

    @property
    def num_cache_levels(self) -> int:
        """The paper's ``L``: number of on-path cache layers above DRAM.

        For both modeled NVIDIA GPUs this is 2 (shared memory and
        registers are the schedulable tiling layers; L2 is transparent).
        """
        return 2

    def level(self, name: str) -> MemoryLevel:
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise KeyError(f"no memory level named {name!r} on {self.name}")

    @property
    def dram(self) -> MemoryLevel:
        return self.level("dram")

    @property
    def l2(self) -> MemoryLevel:
        return self.level("l2")

    @property
    def smem(self) -> MemoryLevel:
        return self.level("smem")

    @property
    def regs(self) -> MemoryLevel:
        return self.level("regs")

    def schedulable_levels(self) -> tuple[MemoryLevel, ...]:
        """Memory levels a schedule explicitly stages data through.

        Ordered slow → fast: (dram, smem, regs).  These correspond to the
        tile layers ``T_2, T_1`` of the paper's ``D = [T_L..T_0]`` vector
        (``T_0`` is the vThread stride, not a storage level).
        """
        return (self.dram, self.smem, self.regs)

    def validate(self) -> None:
        """Sanity-check internal consistency; raises ``ValueError``."""
        if not self.levels:
            raise ValueError("hardware spec has no memory levels")
        names = [lv.name for lv in self.levels]
        for required in ("dram", "l2", "smem", "regs"):
            if required not in names:
                raise ValueError(f"missing memory level {required!r}")
        bw = [lv.bandwidth_bytes_per_s for lv in self.levels]
        if any(b2 < b1 for b1, b2 in zip(bw, bw[1:])):
            raise ValueError("memory bandwidth must not decrease toward the core")
        lat = [lv.latency_s for lv in self.levels]
        if any(l2 > l1 for l1, l2 in zip(lat, lat[1:])):
            raise ValueError("memory latency must not increase toward the core")
        if self.peak_flops <= 0:
            raise ValueError("peak FLOPS must be positive")


def rtx4090() -> HardwareSpec:
    """The paper's cloud-server GPU (NVIDIA RTX 4090, Ada Lovelace)."""
    spec = HardwareSpec(
        name="rtx4090",
        num_sms=128,
        clock_hz=2.52e9,
        fp32_cores_per_sm=128,
        max_threads_per_sm=1536,
        max_threads_per_block=1024,
        max_blocks_per_sm=24,
        registers_per_sm=65536,
        levels=(
            MemoryLevel("dram", 24 * 2**30, 1.008e12, 560e-9),
            MemoryLevel("l2", 72 * 2**20, 5.0e12, 120e-9),
            MemoryLevel("smem", 100 * 2**10, 40.0e12, 12e-9, per_block=True),
            MemoryLevel("regs", 64 * 2**10, 160.0e12, 1.5e-9, per_block=True),
        ),
    )
    spec.validate()
    return spec


def orin_nano() -> HardwareSpec:
    """The paper's edge GPU (NVIDIA Jetson Orin Nano 8GB, Ampere)."""
    spec = HardwareSpec(
        name="orin_nano",
        num_sms=8,
        clock_hz=0.625e9,
        fp32_cores_per_sm=128,
        max_threads_per_sm=1536,
        max_threads_per_block=1024,
        max_blocks_per_sm=16,
        registers_per_sm=65536,
        kernel_launch_overhead_s=9.0e-6,
        levels=(
            MemoryLevel("dram", 8 * 2**30, 68.0e9, 900e-9),
            MemoryLevel("l2", 4 * 2**20, 400.0e9, 180e-9),
            MemoryLevel("smem", 96 * 2**10, 1.6e12, 18e-9, per_block=True),
            MemoryLevel("regs", 64 * 2**10, 6.4e12, 2.4e-9, per_block=True),
        ),
    )
    spec.validate()
    return spec


#: The named devices, by the name the CLI, serve-bench, fleet shards and
#: experiments accept; each factory builds a fresh spec.
DEVICES = {"rtx4090": rtx4090, "orin_nano": orin_nano}


def generic_gpu(
    num_sms: int = 16,
    clock_hz: float = 1.0e9,
    dram_bandwidth: float = 200.0e9,
) -> HardwareSpec:
    """A small configurable device used by unit tests and examples."""
    spec = HardwareSpec(
        name="generic",
        num_sms=num_sms,
        clock_hz=clock_hz,
        fp32_cores_per_sm=64,
        levels=(
            MemoryLevel("dram", 4 * 2**30, dram_bandwidth, 700e-9),
            MemoryLevel("l2", 2 * 2**20, 5 * dram_bandwidth, 150e-9),
            MemoryLevel("smem", 48 * 2**10, 25 * dram_bandwidth, 15e-9, per_block=True),
            MemoryLevel("regs", 32 * 2**10, 100 * dram_bandwidth, 2e-9, per_block=True),
        ),
    )
    spec.validate()
    return spec
