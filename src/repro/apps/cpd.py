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

from ..core.mttkrp import check_factors, mttkrp_coo, mttkrp_hicoo
from ..core.reference import khatri_rao
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.hicoo import HicooTensor
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


def _stored_hadamard(grams: Sequence[np.ndarray], skip: int) -> np.ndarray:
    """Hadamard product of maintained Gram matrices, excluding ``skip``."""
    rank = grams[0].shape[0]
    v = np.ones((rank, rank), dtype=np.float64)
    for m, g in enumerate(grams):
        if m != skip:
            v *= g
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
    use_hicoo: bool = False,
    block_size: int = 128,
    variant: Optional[str] = None,
    initial_factors: Optional[Sequence[np.ndarray]] = None,
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
    fused_gram: Optional[bool] = None,
) -> CpdResult:
    """Sparse CP-ALS driven by the suite's MTTKRP kernel.

    The fit is ``1 - ||X - model|| / ||X||``, evaluated sparsely; sweeps
    stop early when the fit improves by less than ``tolerance``.  With
    ``use_hicoo=True`` each MTTKRP goes through the HiCOO kernel,
    matching the paper's HiCOO-MTTKRP algorithm.  ``variant`` (which
    overrides ``use_hicoo``) routes every MTTKRP through the dispatch
    layer: ``"auto"`` autotunes one configuration per mode before the
    first sweep and reuses it for all sweeps; ``"coo"``/``"hicoo"``/
    ``"csf"`` force that kernel.  ``num_threads`` / ``schedule`` run
    every MTTKRP under that parallel configuration (``None`` keeps the
    process-wide setting); parallel sweeps produce bit-identical factors
    to serial ones.

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
    apply to it, and ``use_hicoo`` and ``variant`` raise ``ValueError``.

    ``fused_gram=True`` routes each mode update through the compiled
    fused MTTKRP+Gram kernel (:func:`repro.perf.jit.mttkrp_gram_coo`),
    which produces the MTTKRP result *and* its Gram matrix in one pass
    over the nonzeros; the updated factor's Gram is then recovered
    algebraically (``P.T @ G @ P``) instead of recomputed, eliminating
    one ``factor.T @ factor`` per mode per sweep.  The fused MTTKRP
    output is bit-identical to the unfused kernel; the Gram is
    accumulated in float64 inside the kernel, so factors agree with the
    unfused sweep to floating-point tolerance rather than bitwise.
    Modes the fused kernel declines (no compiler, ``REPRO_JIT=0``,
    unsupported specialization) silently fall back to the unfused
    update.  ``fused_gram`` requires the plain in-memory COO path and
    raises ``ValueError`` with ``use_hicoo``/``variant``/out-of-core
    tensors.  The default (``None``) keeps fusion off, preserving
    bit-reproducible sweeps.
    """
    from ..io.binfile import MmapCooTensor
    from ..perf import ooc

    out_of_core = isinstance(tensor, MmapCooTensor)
    if out_of_core and (use_hicoo or variant is not None):
        raise ValueError(
            "out-of-core CP-ALS supports only the COO kernel; "
            "use_hicoo/variant are unavailable for mmap-backed tensors"
        )
    fused = bool(fused_gram)
    if fused and (out_of_core or use_hicoo or variant is not None):
        raise ValueError(
            "fused_gram requires the plain in-memory COO path; it is "
            "unavailable with use_hicoo, variant, or mmap-backed tensors"
        )
    rng = np.random.default_rng(seed)
    if initial_factors is not None:
        factors = [np.array(f, dtype=np.float64) for f in initial_factors]
        check_factors(tensor.shape, [f.astype(VALUE_DTYPE) for f in factors])
    else:
        factors = [
            rng.uniform(0.1, 1.0, size=(s, rank)) for s in tensor.shape
        ]
    configs = None
    if variant is not None:
        from ..perf.dispatch import resolve_config

        # Tune once per mode, before the sweep loop; every sweep then
        # reuses the committed configuration.  Resolution runs under the
        # caller's parallel configuration so explicit variants adopt it.
        with parallel_config(num_threads=num_threads, schedule=schedule):
            configs = {
                mode: resolve_config(
                    tensor,
                    "MTTKRP",
                    variant=variant,
                    block_size=block_size,
                    mode=mode,
                    rank=rank,
                    seed=seed,
                )
                for mode in range(tensor.order)
            }
    hicoo = (
        HicooTensor.from_coo(tensor, block_size)
        if use_hicoo and configs is None
        else None
    )
    norm_x = ooc.tensor_norm(tensor) if out_of_core else _tensor_norm(tensor)
    fits: List[float] = []
    ones = np.ones(rank, dtype=np.float64)
    previous_fit = 0.0
    # Working float32 copies of the factors, refreshed one factor at a
    # time as each mode is updated — not all N factors N times per sweep.
    f32 = [f.astype(VALUE_DTYPE) for f in factors]
    last = tensor.order - 1
    # Fused mode maintains every factor's Gram matrix across the sweep
    # so V comes from the stored Grams and the updated factor's Gram is
    # recovered from the kernel's fused output instead of recomputed.
    grams = [f.T @ f for f in factors] if fused else None
    with parallel_config(num_threads=num_threads, schedule=schedule):
        for _sweep in range(max_sweeps):
            for mode in range(tensor.order):
                fused_result = None
                if fused:
                    from ..perf import jit

                    fused_result = jit.mttkrp_gram_coo(tensor, f32, mode)
                if fused_result is not None:
                    out, gram_out = fused_result
                    m_new = out.astype(np.float64)  # repro: ignore[dtype]
                    p = np.linalg.pinv(_stored_hadamard(grams, mode))
                    factors[mode] = m_new @ p
                    # Gram of the updated factor, algebraically:
                    # (M P).T (M P) = P.T (M.T M) P = P.T G P.
                    grams[mode] = p.T @ gram_out @ p
                    f32[mode] = factors[mode].astype(VALUE_DTYPE)
                    continue
                if configs is not None:
                    from ..perf.dispatch import mttkrp as mttkrp_dispatch

                    m_new = mttkrp_dispatch(
                        tensor, f32, mode, variant=configs[mode]
                    ).astype(np.float64)
                elif hicoo is not None:
                    m_new = mttkrp_hicoo(hicoo, f32, mode).astype(np.float64)
                elif out_of_core:
                    m_new = ooc.mttkrp(tensor, f32, mode).astype(np.float64)  # repro: ignore[dtype]
                else:
                    m_new = mttkrp_coo(tensor, f32, mode).astype(np.float64)
                gram = (
                    _gram_hadamard(factors, mode)
                    if grams is None
                    else _stored_hadamard(grams, mode)
                )
                factors[mode] = m_new @ np.linalg.pinv(gram)
                f32[mode] = factors[mode].astype(VALUE_DTYPE)
                if grams is not None:
                    grams[mode] = factors[mode].T @ factors[mode]
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
