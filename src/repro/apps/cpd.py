"""CANDECOMP/PARAFAC decomposition (CPD) by alternating least squares.

The paper calls MTTKRP "the most computational expensive kernel in
CANDECOMP/PARAFAC decomposition (CPD)" (Section II-E).  This module
implements sparse CP-ALS on top of the suite's MTTKRP kernel, both to
exercise the kernel in its real application context and to serve as a
runnable example workload.

Each ALS sweep updates every factor in turn:

    U^(n)  <-  MTTKRP_n(X, U) @ pinv( hadamard_{m != n} (U^(m)T U^(m)) )

with column normalization absorbed into ``weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from ..core.mttkrp import check_factors
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..perf.parallel import parallel_config

if TYPE_CHECKING:  # pragma: no cover
    from ..io.binfile import MmapCooTensor


@dataclass
class CpdResult:
    """CP model: per-component weights, factor matrices, fit trace."""

    weights: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]

    @property
    def rank(self) -> int:
        """Number of rank-1 components."""
        return int(self.weights.shape[0])

    @property
    def final_fit(self) -> float:
        """Fit of the last sweep (1 is perfect)."""
        return self.fits[-1] if self.fits else 0.0

    def reconstruct_dense(self) -> np.ndarray:
        """Materialize the CP model as a dense tensor (small inputs only)."""
        rank = self.rank
        order = len(self.factors)
        shape = tuple(f.shape[0] for f in self.factors)
        out = np.zeros(shape, dtype=np.float64)
        for r in range(rank):
            component = self.weights[r]
            outer = self.factors[0][:, r]
            for m in range(1, order):
                outer = np.multiply.outer(outer, self.factors[m][:, r])
            out += component * outer
        return out


def _gram_hadamard(factors: Sequence[np.ndarray], skip: int) -> np.ndarray:
    """Hadamard product of the Gram matrices of all factors but ``skip``."""
    rank = factors[0].shape[1]
    v = np.ones((rank, rank), dtype=np.float64)
    for m, factor in enumerate(factors):
        if m == skip:
            continue
        v *= factor.T @ factor
    return v


def _tensor_norm(tensor: CooTensor) -> float:
    return float(np.linalg.norm(tensor.values.astype(np.float64)))


def _model_inner(tensor: CooTensor, factors, weights) -> float:
    """<X, model> computed sparsely over the nonzeros."""
    rows = np.ones((tensor.nnz, factors[0].shape[1]), dtype=np.float64)
    for m, factor in enumerate(factors):
        rows *= factor[tensor.indices[m]]
    return float((tensor.values.astype(np.float64) * (rows @ weights)).sum())


def _model_norm_sq(factors, weights) -> float:
    rank = weights.shape[0]
    v = np.ones((rank, rank), dtype=np.float64)
    for factor in factors:
        v *= factor.T @ factor
    return float(weights @ v @ weights)


def cp_als(
    tensor: Union[CooTensor, "MmapCooTensor"],
    rank: int,
    *,
    max_sweeps: int = 50,
    tolerance: float = 1e-5,
    seed: int = 0,
    block_size: int = 128,
    variant: Optional[str] = None,
    initial_factors: Optional[Sequence[np.ndarray]] = None,
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
) -> CpdResult:
    """Sparse CP-ALS driven by the suite's MTTKRP kernel.

    The fit is ``1 - ||X - model|| / ||X||``, evaluated sparsely; sweeps
    stop early when the fit improves by less than ``tolerance``.  Every
    MTTKRP of an in-memory tensor goes through the dispatch layer with
    one configuration per mode, resolved before the first sweep and
    reused by every sweep.  ``variant`` picks it: ``None`` or ``"coo"``
    runs the COO kernel, ``"hicoo"`` the HiCOO kernel at ``block_size``
    (the paper's HiCOO-MTTKRP algorithm), ``"csf"``/``"coo_jit"``/
    ``"hicoo_jit"`` that kernel, and ``"auto"`` lets the autotuner pick.
    ``num_threads`` / ``schedule`` run every MTTKRP under that parallel
    configuration (``None`` keeps the process-wide setting); parallel
    sweeps produce bit-identical factors to serial ones.

    An on-disk :class:`~repro.io.binfile.MmapCooTensor` runs the sweeps
    out of core: every MTTKRP and the norm go through
    :mod:`repro.perf.ooc`, so resident memory stays bounded by the
    out-of-core budget plus the factor matrices.  Each MTTKRP streams
    the file in budget-sized steps, range-checks every step's
    coordinates (a corrupt index raises
    :class:`~repro.errors.BinaryFormatError`), and adds each step into
    one output through the compiled scatter-accumulate kernel — its
    result is bit-identical to the in-RAM compiled COO MTTKRP, with the
    numpy step path as the fallback when nothing can be compiled.  The
    out-of-core path is serial and COO-only: ``num_threads`` does not
    apply to it, and any ``variant`` raises ``ValueError``.
    """
    from ..io.binfile import MmapCooTensor
    from ..perf import ooc
    from ..perf.dispatch import mttkrp, resolve_config

    out_of_core = isinstance(tensor, MmapCooTensor)
    if out_of_core and variant is not None:
        raise ValueError(
            "out-of-core CP-ALS supports only the COO kernel; "
            "variant is unavailable for mmap-backed tensors"
        )
    rng = np.random.default_rng(seed)
    if initial_factors is not None:
        factors = [np.array(f, dtype=np.float64) for f in initial_factors]
        check_factors(tensor.shape, [f.astype(VALUE_DTYPE) for f in factors])
    else:
        factors = [
            rng.uniform(0.1, 1.0, size=(s, rank)) for s in tensor.shape
        ]
    norm_x = ooc.tensor_norm(tensor) if out_of_core else _tensor_norm(tensor)
    fits: List[float] = []
    ones = np.ones(rank, dtype=np.float64)
    previous_fit = 0.0
    # Working float32 copies of the factors, refreshed one factor at a
    # time as each mode is updated — not all N factors N times per sweep.
    f32 = [f.astype(VALUE_DTYPE) for f in factors]
    last = tensor.order - 1
    with parallel_config(num_threads=num_threads, schedule=schedule):
        # Resolve once per mode, before the sweep loop, under the
        # caller's parallel configuration (explicit variants adopt it).
        configs = None
        if not out_of_core:
            configs = [
                resolve_config(
                    tensor,
                    "MTTKRP",
                    variant=variant or "coo",
                    block_size=block_size,
                    mode=mode,
                    rank=rank,
                    seed=seed,
                )
                for mode in range(tensor.order)
            ]
        for _sweep in range(max_sweeps):
            for mode in range(tensor.order):
                if configs is None:
                    m_new = ooc.mttkrp(tensor, f32, mode)
                else:
                    m_new = mttkrp(tensor, f32, mode, variant=configs[mode])
                m_new = m_new.astype(np.float64)  # repro: ignore[dtype]
                gram = _gram_hadamard(factors, mode)
                factors[mode] = m_new @ np.linalg.pinv(gram)
                f32[mode] = factors[mode].astype(VALUE_DTYPE)
            # Sparse fit evaluation with the raw (unnormalized) factors.
            # The last mode's MTTKRP already contracted every other mode,
            # so <X, model> is just its elementwise product with that
            # factor — no extra pass over the nonzeros.
            inner = float(np.sum(m_new * factors[last]))
            norm_model_sq = _model_norm_sq(factors, ones)
            residual_sq = max(norm_x**2 - 2 * inner + norm_model_sq, 0.0)
            fit = 1.0 - np.sqrt(residual_sq) / norm_x if norm_x else 1.0
            fits.append(fit)
            if abs(fit - previous_fit) < tolerance:
                break
            previous_fit = fit
    # Pull column norms out into the weight vector.
    weights = np.ones(rank, dtype=np.float64)
    for mode, factor in enumerate(factors):
        norms = np.linalg.norm(factor, axis=0)
        norms[norms == 0] = 1.0
        factors[mode] = factor / norms
        weights = weights * norms
    return CpdResult(weights=weights, factors=factors, fits=fits)


def random_low_rank_tensor(
    shape: Sequence[int],
    rank: int,
    *,
    support: int = 6,
    seed: int = 0,
) -> CooTensor:
    """A sparse tensor that is *exactly* rank-``rank`` (ground truth input).

    Each component's factor vectors are supported on ``support`` random
    rows per mode, so every rank-1 component is a sparse outer product
    and their sum — including all implicit zeros — has CP rank at most
    ``rank``.  CP-ALS at the generating rank should drive the fit to ~1.
    """
    import itertools

    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    pieces_idx = []
    pieces_val = []
    for _r in range(rank):
        supports = [
            rng.choice(s, size=min(support, s), replace=False) for s in shape
        ]
        coefficients = [
            rng.uniform(0.2, 1.0, size=len(sup)) for sup in supports
        ]
        grids = np.meshgrid(*supports, indexing="ij")
        coords = np.vstack([g.reshape(-1) for g in grids])
        value_grids = np.meshgrid(*coefficients, indexing="ij")
        values = np.ones(coords.shape[1], dtype=np.float64)
        for g in value_grids:
            values = values * g.reshape(-1)
        pieces_idx.append(coords)
        pieces_val.append(values)
    indices = np.concatenate(pieces_idx, axis=1)
    values = np.concatenate(pieces_val).astype(VALUE_DTYPE)
    tensor = CooTensor(shape, indices.astype(np.int32), values, validate=False)
    return tensor.sum_duplicates()
