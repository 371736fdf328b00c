"""Modeled-GPU pricing of the MLtoDNN tensor program.

The container has no GPU, so GPU execution is **simulated** (DESIGN.md
substitution table): correctness comes from running the identical GEMM
program on CPU; the reported *time* is an analytic roofline model of a
PCIe-attached accelerator, calibrated to the NVIDIA Tesla K80 the paper
uses for the Spark GPU experiments (§7.3):

    t = upload(model params, once per executor)
      + per batch: H2D(input) + max(flops/peak, bytes/mem_bw) + launches

Every number derived from this model is explicitly labeled *modeled* in
EXPERIMENTS.md; the claim reproduced is the paper's *shape* — transfer
overheads swamp small models, large ensembles gain up to ~8x.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.dnn_rt import DnnModel

#: K80 (per-GPU GK210) effective fp32 GEMM throughput, FLOP/s.
PEAK_FLOPS = 1.5e12
#: PCIe 3.0 x16 effective host-to-device bandwidth, B/s.
PCIE_BW = 10e9
#: GDDR5 effective bandwidth, B/s (roofline memory term).
MEM_BW = 160e9
#: Fixed kernel-launch + framework overhead per batch (tree ops are
#: batched into a handful of fused kernels by Hummingbird).
LAUNCH_S = 2.0e-3
#: Per-query session-attach cost on a *warm* executor (model and GPU
#: context cached across batches/runs, like the paper's UDF globals).
INIT_S = 0.2


@dataclass
class GpuEstimate:
    total_s: float
    transfer_s: float
    compute_s: float
    overhead_s: float


def modeled_gpu_seconds(
    model: DnnModel,
    n_rows: int,
    *,
    batch_rows: int = 10_000,
    n_executors: int = 1,
) -> GpuEstimate:
    """Price scoring ``n_rows`` through ``model`` on the modeled GPU."""
    n_batches = max(1, -(-n_rows // batch_rows))
    rows_last = n_rows - (n_batches - 1) * batch_rows

    transfer = model.param_bytes() / PCIE_BW * n_executors
    compute = 0.0
    overhead = INIT_S * n_executors + LAUNCH_S * n_batches
    for b in range(n_batches):
        rows = batch_rows if b < n_batches - 1 else rows_last
        transfer += model.input_bytes(rows) / PCIE_BW
        # roofline: compute- or memory-bound, whichever dominates
        flops_t = model.flops(rows) / PEAK_FLOPS
        mem_t = model.mem_bytes(rows) / MEM_BW
        compute += max(flops_t, mem_t)
    return GpuEstimate(transfer + compute + overhead, transfer, compute, overhead)
