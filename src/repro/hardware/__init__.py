"""Hardware abstraction: GPU device specifications and memory-system models.

The reproduction substitutes real GPUs with analytical device models.  A
:class:`~repro.hardware.spec.HardwareSpec` captures the compute and memory
architecture parameters Gensor's transition-probability formulas consume
(peak FLOPS, memory-level capacities / bandwidths / latencies, shared-memory
bank geometry, occupancy limits), plus the launch-overhead constants the
simulator needs.
"""

from repro.hardware.spec import (
    DEVICES,
    HardwareSpec,
    MemoryLevel,
    generic_gpu,
    orin_nano,
    rtx4090,
)
from repro.hardware.memory import bank_conflict_factor, smem_transaction_factor

__all__ = [
    "DEVICES",
    "HardwareSpec",
    "MemoryLevel",
    "rtx4090",
    "orin_nano",
    "generic_gpu",
    "bank_conflict_factor",
    "smem_transaction_factor",
]
