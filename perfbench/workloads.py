"""Workload definitions and seeded input generation.

Every input is a pure function of the benchmark seed: the same seed
gives the same tensors and the same request stream.  Generation is never
timed; the program only sees the arrays and requests made here.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

WORKLOADS = ("cpd_large", "calls_small", "serve_small", "cpd_ooc")

# ---------------------------------------------------------------------
# CP-ALS tensor shared by cpd_large and cpd_ooc.  Mode 0 is power law
# with alpha 1.2, which puts about 15% of the nonzeros in slice 0; mode
# 1 is a milder power law and mode 2 is uniform.  1M nonzeros (16 MB in
# RAM, 27 MB as REPROBIN) keep three cold set-ups per run inside the
# benchmark's time budget; the whole tensor still fits in a large L3.
# ---------------------------------------------------------------------
CPD_SHAPE = (20000, 15000, 10000)
CPD_NNZ = 1_000_000
CPD_ALPHAS = (1.2, 0.8, None)  # None: uniform
CPD_RANK = 16
#: Out-of-core budget for cpd_ooc: under a third of the 27 MB file.
OOC_BUDGET = "8M"

# ---------------------------------------------------------------------
# Serving-sized request stream shared by calls_small and serve_small.
# ---------------------------------------------------------------------
SMALL_TENSORS = (
    ("hot", (40, 35, 30), 3000),
    ("warm", (30, 25, 20), 1500),
    ("cold", (25, 20, 15), 800),
)
KERNEL_MIX = (("MTTKRP", 0.75), ("TTM", 0.20), ("TTV", 0.05))
RANKS = (2, 4)
#: Distinct operand seeds a request may carry (power-law popularity is
#: over tensors; seeds are uniform over this pool).
OPERAND_SEEDS = 16
TENSOR_ALPHA = 1.5
STREAM_LENGTH = 60_000


def derived_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    state = np.random.SeedSequence([int(seed), zlib.crc32(label.encode())])
    return int(state.generate_state(1)[0])


def cpd_tensor(seed: int) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
    """``(shape, indices (order, nnz) int32, values float32)``, sorted.

    Coordinates come from :func:`powerlaw_indices` per mode; duplicates
    are removed with one 1-D key per nonzero, and exactly ``CPD_NNZ``
    distinct nonzeros are kept.
    """
    from repro.generators.powerlaw import powerlaw_indices

    rng = np.random.default_rng(derived_seed(seed, "cpd"))
    shape = CPD_SHAPE
    keys = np.empty(0, dtype=np.int64)
    while keys.size < CPD_NNZ:
        count = int((CPD_NNZ - keys.size) * 1.06) + 1024
        key = np.zeros(count, dtype=np.int64)
        for size, alpha in zip(shape, CPD_ALPHAS):
            if alpha is None:
                coord = rng.integers(0, size, size=count, dtype=np.int64)
            else:
                coord = powerlaw_indices(size, count, alpha, rng)
            key = key * size + coord
        keys = np.union1d(keys, key)
    keep = np.sort(rng.choice(keys.size, size=CPD_NNZ, replace=False))
    keys = keys[keep]
    indices = np.empty((len(shape), CPD_NNZ), dtype=np.int32)
    for m in range(len(shape) - 1, -1, -1):
        indices[m] = keys % shape[m]
        keys //= shape[m]
    values = rng.uniform(0.5, 1.5, size=CPD_NNZ).astype(np.float32)
    return shape, indices, values


def tensor_facts(shape: Sequence[int], indices: np.ndarray) -> Dict[str, Any]:
    """nnz and each mode's largest-slice share of the nonzeros."""
    nnz = int(indices.shape[1])
    return {
        "shape": list(shape),
        "nnz": nnz,
        "largest_slice_share": [
            round(float(np.bincount(indices[m], minlength=1).max()) / nnz, 4)
            for m in range(len(shape))
        ],
    }


def small_tensor_specs(seed: int) -> List[Tuple[str, Tuple[int, ...], int, int]]:
    """``(name, shape, nnz, tensor_seed)`` of the three stream tensors.

    Each tensor is ``CooTensor.random(shape, nnz,
    rng=np.random.default_rng(tensor_seed))`` -- exactly what
    ``repro serve --synthetic NAME=IxJxK:NNZ:SEED`` builds, so the
    in-process and served workloads see identical tensors.
    """
    return [
        (name, shape, nnz, derived_seed(seed, "tensor-" + name) % (2**31))
        for name, shape, nnz in SMALL_TENSORS
    ]


def small_tensors(seed: int):
    from repro.formats.coo import CooTensor

    return {
        name: CooTensor.random(shape, nnz, rng=np.random.default_rng(tseed))
        for name, shape, nnz, tseed in small_tensor_specs(seed)
    }


def request_stream(seed: int, count: int = STREAM_LENGTH) -> List[Dict[str, Any]]:
    """The power-law request stream, every request on ``variant="auto"``."""
    from repro.serving.traffic import powerlaw_requests

    specs = [{"name": name, "order": len(shape)} for name, shape, _ in SMALL_TENSORS]
    return powerlaw_requests(
        specs,
        count,
        alpha=TENSOR_ALPHA,
        seed=derived_seed(seed, "stream"),
        kernel_weights=KERNEL_MIX,
        ranks=RANKS,
        variant="auto",
        seeds=OPERAND_SEEDS,
    )


def signature(request: Dict[str, Any]) -> Tuple[str, str, int, int]:
    """What a request's tuning decision is keyed on."""
    return (request["tensor"], request["kernel"], request["mode"], request["rank"])


def result_key(request: Dict[str, Any]) -> Tuple[str, str, int, int, int]:
    """What a request's result is a function of."""
    return signature(request) + (request["seed"],)
