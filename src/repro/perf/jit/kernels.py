"""Compiled kernel entry points: numpy marshaling around the C loops.

Every function here returns ``None`` whenever the compiled path cannot
run — no compiler, ``REPRO_JIT=0``, an unsupported specialization — and
the caller (``dispatch.run_config`` or the TEW value chokepoint) falls
back to the numpy kernel.  When it does run, it reuses the *same* plans,
chunk plans, and sanitizer ownership declarations as the numpy path:

* MTTKRP consumes the cached mode-sort plan and partitions by output
  segments (``grain="segment"``, key ``plan.mode``);
* TTV/TTM consume the cached fiber partition and partition by fibers
  (``grain="fiber"``, keys ``("ttv", mode)`` / ``("ttm", mode)``);
* TEW partitions the nonzero range (``grain="nonzero"``).

Parallel chunks call the same compiled function as the serial path on
their own ``[u0, u1)`` unit range, so parallel JIT results are
bit-identical to serial JIT results; ctypes releases the GIL around
each call, so the worker pool gets true concurrency.

The ``*_mt`` entry points go one step further: they hand the *entire*
chunk table to the compiled ``_par`` entry, which runs an in-process
thread team (OpenMP or pthreads, chosen at compile time) — one ctypes
call per kernel invocation instead of one per chunk, with no
interpreter involvement between chunks.  HiCOO MTTKRP becomes
parallelizable through the ownership plan
(:func:`repro.perf.plans.build_hicoo_ownership_plan`), which regroups
blocks into disjoint output windows.  Under ``REPRO_SANITIZE=1`` the
``*_mt`` functions drop back to the chunk-at-a-time executor so the
write sanitizer can observe per-chunk ownership, preserving the checked
semantics bit-for-bit.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ...analysis.sanitizer import sanitizer_enabled
from ...formats.coo import INDEX_DTYPE, VALUE_DTYPE, CooTensor
from ...formats.hicoo import HicooTensor
from ..parallel import kernel_chunk_plan, run_chunks, want_parallel
from ..partition import POLICY_STATIC, ChunkPlan
from ..plans import (
    build_hicoo_ownership_plan,
    build_mode_sort_plan,
    hicoo_ownership_plan,
    mode_sort_plan,
)
from . import build, codegen

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_PTR_F32 = np.ctypeslib.ndpointer(dtype=np.float32, flags="C_CONTIGUOUS")
_PTR_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_PTR_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PTR_I32 = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_PTR_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


def _f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32)


def _i32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int32)


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _par_argtypes(serial_argtypes: Sequence) -> list:
    """Argtypes of a ``_par`` entry from its serial counterpart's.

    The serial ``(u0, u1)`` unit range becomes ``(num_chunks,
    chunk_bounds, num_threads, sched)``; the tail is unchanged.
    """
    return [_I64, _PTR_I64, _I64, _I32] + list(serial_argtypes[2:])


def _sched_kind(policy: str) -> int:
    """Map an executor policy to the C team's schedule kind.

    Static is the deterministic round-robin; dynamic *and* guided both
    become the pull queue — guided's decreasing chunk sizes are already
    baked into the chunk bounds.
    """
    return 0 if policy == POLICY_STATIC else 1


def _team_call(par_fn, chunks: ChunkPlan, *tail) -> None:
    """One ctypes call running every chunk on the compiled thread team."""
    workers = max(1, min(chunks.workers, chunks.num_chunks))
    par_fn(
        chunks.num_chunks,
        _i64(chunks.unit_bounds),
        workers,
        _sched_kind(chunks.policy),
        *tail,
    )


# ----------------------------------------------------------------------
# MTTKRP
# ----------------------------------------------------------------------


def _mttkrp_coo_fn(order: int, rank: int, parallel: bool = False):
    name, source = codegen.mttkrp_coo_source(order, rank)
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _PTR_I32, _PTR_F32]
        + [_PTR_I32] * k
        + [_PTR_F32] * k
        + [_PTR_F32]
    )
    if parallel:
        return build.load_function(
            name + "_par", source, _par_argtypes(argtypes)
        )
    return build.load_function(name, source, argtypes)


def mttkrp_coo(
    x: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Compiled segmented COO MTTKRP; ``None`` when JIT is unavailable.

    Accepts COO and HiCOO owners (the mode-sort plan expands HiCOO
    coordinates exactly as the numpy kernel does).
    """
    from ...core.mttkrp import check_factors

    order = len(x.shape)
    if order < 2:
        return None
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    fn = _mttkrp_coo_fn(order, rank)
    if fn is None:
        return None
    plan = mode_sort_plan(x, mode)
    if plan is None:
        plan = build_mode_sort_plan(x, mode)
    offsets = _i64(plan.segment_offsets())
    targets = _i32(plan.unique_targets)
    sorted_values = _f32(plan.sorted_values(x.values))
    sorted_indices = plan.sorted_indices
    non_mode = [m for m in range(order) if m != mode]
    idx_arrays = [_i32(sorted_indices[m]) for m in non_mode]
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    out = np.zeros((x.shape[mode], rank), dtype=VALUE_DTYPE)
    tail = (*idx_arrays, *fac_arrays, out)
    chunks = kernel_chunk_plan(
        x, grain="segment", key=plan.mode, element_offsets=offsets
    )
    if chunks is None:
        fn(0, plan.num_segments, offsets, targets, sorted_values, *tail)
        return out

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        fn(u0, u1, offsets, targets, sorted_values, *tail)

    run_chunks(
        chunks,
        task,
        kernel="MTTKRP-COO-JIT",
        grain="segment",
        outputs=((out, ("rows", targets)),),
    )
    return out


def mttkrp_coo_mt(
    x: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """In-kernel multithreaded COO MTTKRP; ``None`` when unavailable.

    One ctypes call hands the full chunk table to the compiled thread
    team.  Chunks own disjoint output segments, so the result is
    bit-identical to :func:`mttkrp_coo` (serial or chunked) for every
    thread count and schedule.  Serial-sized inputs and sanitized runs
    delegate to :func:`mttkrp_coo`.
    """
    from ...core.mttkrp import check_factors

    order = len(x.shape)
    if order < 2:
        return None
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    par_fn = _mttkrp_coo_fn(order, rank, parallel=True)
    if par_fn is None:
        return None
    if sanitizer_enabled():
        return mttkrp_coo(x, factors, mode)
    plan = mode_sort_plan(x, mode)
    if plan is None:
        plan = build_mode_sort_plan(x, mode)
    offsets = _i64(plan.segment_offsets())
    chunks = kernel_chunk_plan(
        x, grain="segment", key=plan.mode, element_offsets=offsets
    )
    if chunks is None or chunks.num_chunks <= 1:
        return mttkrp_coo(x, factors, mode)
    targets = _i32(plan.unique_targets)
    sorted_values = _f32(plan.sorted_values(x.values))
    sorted_indices = plan.sorted_indices
    non_mode = [m for m in range(order) if m != mode]
    idx_arrays = [_i32(sorted_indices[m]) for m in non_mode]
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    out = np.zeros((x.shape[mode], rank), dtype=VALUE_DTYPE)
    _team_call(
        par_fn,
        chunks,
        offsets,
        targets,
        sorted_values,
        *idx_arrays,
        *fac_arrays,
        out,
    )
    return out


def mttkrp_coo_accumulator(
    order: int, rank: int, factors: Sequence[np.ndarray], mode: int
) -> Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]]:
    """Compiled scatter-accumulate MTTKRP step; ``None`` when unavailable.

    Returns ``step(indices, values, out)``, which adds the MTTKRP of the
    nonzeros ``(indices, values)`` — int64 ``(order, n)`` coordinates
    and float32 values in storage order — into the float64 ``out``
    (``shape[mode] x rank``).  The kernel is resolved and the factors
    marshaled once, so a caller streaming many steps pays neither per
    step.  Summing every step of a partition into one ``out`` and
    casting to float32 once is bit-identical to :func:`mttkrp_coo` on
    the whole tensor.  Coordinates must already be range-checked: the
    kernel indexes the factors and ``out`` with them unchecked.
    """
    if order < 2 or rank < 1:
        return None
    artifact = codegen.mttkrp_coo_accum_artifact(order, rank)
    argtypes = (
        [_I64, _I64, _PTR_F32]
        + [_PTR_I64] * order
        + [_PTR_F32] * (order - 1)
        + [_PTR_F64]
    )
    fn = build.load_function(artifact.name, artifact.source, argtypes)
    if fn is None:
        return None
    non_mode = [m for m in range(order) if m != mode]
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    rows = (*non_mode, mode)  # codegen convention: output mode last

    def step(indices: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
        fn(
            0,
            values.shape[0],
            _f32(values),
            *(_i64(indices[m]) for m in rows),
            *fac_arrays,
            out,
        )

    return step


def _mttkrp_hicoo_fn(order: int, rank: int):
    name, source = codegen.mttkrp_hicoo_source(order, rank)
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _I64, _PTR_F32]
        + [_PTR_I32, _PTR_U8] * order
        + [_PTR_F32] * k
        + [_PTR_F64]
    )
    return build.load_function(name, source, argtypes)


def mttkrp_hicoo(
    x: HicooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Compiled blocked HiCOO MTTKRP (Algorithm 3), serial over blocks."""
    from ...core.mttkrp import check_factors

    order = x.order
    if order < 2:
        return None
    mode = mode % order
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    fn = _mttkrp_hicoo_fn(order, rank)
    if fn is None:
        return None
    non_mode = [m for m in range(order) if m != mode]
    pairs = []
    for m in (*non_mode, mode):  # codegen convention: output mode last
        pairs.append(_i32(x.binds[m]))
        pairs.append(np.ascontiguousarray(x.einds[m]))
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    out = np.zeros((x.shape[mode], rank), dtype=np.float64)
    fn(
        0,
        x.num_blocks,
        _i64(x.bptr),
        int(x.block_size),
        _f32(x.values),
        *pairs,
        *fac_arrays,
        out,
    )
    return out.astype(VALUE_DTYPE)


def _mttkrp_hicoo_own_fn(order: int, rank: int, parallel: bool = False):
    name, source = codegen.mttkrp_hicoo_owned_source(order, rank)
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _PTR_I64, _PTR_I64, _I64, _PTR_F32]
        + [_PTR_I32, _PTR_U8] * order
        + [_PTR_F32] * k
        + [_PTR_F64]
    )
    if parallel:
        return build.load_function(
            name + "_par", source, _par_argtypes(argtypes)
        )
    return build.load_function(name, source, argtypes)


def mttkrp_hicoo_mt(
    x: HicooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Ownership-partitioned multithreaded HiCOO MTTKRP.

    The ownership plan regroups blocks by their output-window block
    coordinate with a stable sort, so windows own disjoint
    ``block_size`` output row ranges and the per-row double accumulation
    order matches :func:`mttkrp_hicoo` exactly — parallel results are
    bit-identical to the serial blocked kernel.  Single-window tensors
    and serial-sized inputs delegate to :func:`mttkrp_hicoo`; sanitized
    runs go through the chunk-at-a-time executor with the ``row_blocks``
    ownership declaration so every write is checked.
    """
    from ...core.mttkrp import check_factors

    order = x.order
    if order < 2:
        return None
    mode = mode % order
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    own_fn = _mttkrp_hicoo_own_fn(order, rank)
    par_fn = _mttkrp_hicoo_own_fn(order, rank, parallel=True)
    if own_fn is None or par_fn is None:
        return None
    plan = hicoo_ownership_plan(x, mode)
    if plan is None:
        plan = build_hicoo_ownership_plan(x, mode)
    if plan.num_windows <= 1:
        return mttkrp_hicoo(x, factors, mode)
    chunks = kernel_chunk_plan(
        x,
        grain="window",
        key=("hicoo_own", mode),
        element_offsets=plan.element_offsets,
    )
    if chunks is None or chunks.num_chunks <= 1:
        return mttkrp_hicoo(x, factors, mode)
    non_mode = [m for m in range(order) if m != mode]
    pairs = []
    for m in (*non_mode, mode):  # codegen convention: output mode last
        pairs.append(_i32(x.binds[m]))
        pairs.append(np.ascontiguousarray(x.einds[m]))
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    out = np.zeros((x.shape[mode], rank), dtype=np.float64)
    head = (
        _i64(plan.win_ptr),
        _i64(plan.block_perm),
        _i64(x.bptr),
        int(x.block_size),
        _f32(x.values),
    )
    tail = (*pairs, *fac_arrays, out)
    if sanitizer_enabled():

        def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
            own_fn(u0, u1, *head, *tail)

        run_chunks(
            chunks,
            task,
            kernel="MTTKRP-HiCOO-JIT-MT",
            grain="window",
            outputs=(
                (
                    out,
                    (
                        "row_blocks",
                        plan.window_targets,
                        int(x.block_size),
                    ),
                ),
            ),
        )
    else:
        _team_call(par_fn, chunks, *head, *tail)
    return out.astype(VALUE_DTYPE)


def _mttkrp_gram_fn(order: int, rank: int, parallel: bool = False):
    name, source = codegen.mttkrp_coo_gram_source(order, rank)
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _PTR_I32, _PTR_F32]
        + [_PTR_I32] * k
        + [_PTR_F32] * k
        + [_PTR_F32, _PTR_F64]
    )
    if parallel:
        return build.load_function(
            name + "_par", source, _par_argtypes(argtypes)
        )
    return build.load_function(name, source, argtypes)


def mttkrp_gram_coo(
    x: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Fused compiled MTTKRP + Gram of the output, for CP-ALS.

    Returns ``(out, gram)`` where ``out`` is bit-identical to
    :func:`mttkrp_coo` and ``gram`` is the float64 ``out.T @ out``
    accumulated inside the same loop nest (to float-associativity of
    the reduction order).  Parallel runs give each chunk a private Gram
    slab and reduce them here, keeping the compiled region atomic-free.
    ``None`` when the JIT is unavailable.
    """
    from ...core.mttkrp import check_factors

    order = len(x.shape)
    if order < 2:
        return None
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    serial_fn = _mttkrp_gram_fn(order, rank)
    if serial_fn is None:
        return None
    plan = mode_sort_plan(x, mode)
    if plan is None:
        plan = build_mode_sort_plan(x, mode)
    offsets = _i64(plan.segment_offsets())
    targets = _i32(plan.unique_targets)
    sorted_values = _f32(plan.sorted_values(x.values))
    sorted_indices = plan.sorted_indices
    non_mode = [m for m in range(order) if m != mode]
    idx_arrays = [_i32(sorted_indices[m]) for m in non_mode]
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    out = np.zeros((x.shape[mode], rank), dtype=VALUE_DTYPE)
    tail = (*idx_arrays, *fac_arrays, out)
    chunks = kernel_chunk_plan(
        x, grain="segment", key=plan.mode, element_offsets=offsets
    )
    par_fn = (
        _mttkrp_gram_fn(order, rank, parallel=True)
        if chunks is not None and chunks.num_chunks > 1
        else None
    )
    if par_fn is None or sanitizer_enabled():
        gram = np.zeros((rank, rank), dtype=np.float64)
        serial_fn(
            0,
            plan.num_segments,
            offsets,
            targets,
            sorted_values,
            *tail,
            gram,
        )
        return out, gram
    grams = np.zeros((chunks.num_chunks, rank, rank), dtype=np.float64)
    _team_call(
        par_fn, chunks, offsets, targets, sorted_values, *tail, grams
    )
    return out, grams.sum(axis=0, dtype=np.float64)


# ----------------------------------------------------------------------
# TTV / TTM
# ----------------------------------------------------------------------


def _ttv_fn(parallel: bool = False):
    name, source = codegen.ttv_source()
    argtypes = [_I64, _I64, _PTR_I64, _PTR_F32, _PTR_I32, _PTR_F32, _PTR_F64]
    if parallel:
        return build.load_function(
            name + "_par", source, _par_argtypes(argtypes)
        )
    return build.load_function(name, source, argtypes)


def ttv_coo(x: CooTensor, v: np.ndarray, mode: int) -> Optional[CooTensor]:
    """Compiled fiber-grain COO TTV; same output object shape as numpy."""
    from ...core.ttv import _check_vector

    mode = x.check_mode(mode)
    v = _check_vector(x.shape[mode], v)
    fn = _ttv_fn()
    if fn is None:
        return None
    ordered, fptr = x.fiber_partition(mode)
    other_modes = [m for m in range(x.order) if m != mode]
    out_shape = tuple(x.shape[m] for m in other_modes)
    num_fibers = len(fptr) - 1
    if num_fibers == 0:
        return CooTensor(
            out_shape,
            np.empty((len(other_modes), 0), dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
            validate=False,
        )
    fptr = _i64(fptr)
    values = _f32(ordered.values)
    product_indices = _i32(ordered.indices[mode])
    vec = _f32(v)
    sums = np.empty(num_fibers, dtype=np.float64)
    chunks = kernel_chunk_plan(
        x, grain="fiber", key=("ttv", mode), element_offsets=fptr
    )
    if chunks is None:
        fn(0, num_fibers, fptr, values, product_indices, vec, sums)
    else:

        def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
            fn(u0, u1, fptr, values, product_indices, vec, sums)

        run_chunks(
            chunks,
            task,
            kernel="TTV-COO-JIT",
            grain="fiber",
            outputs=((sums, "unit"),),
        )
    out_indices = ordered.indices[other_modes][:, fptr[:-1]]
    return CooTensor(
        out_shape, out_indices, sums.astype(VALUE_DTYPE), validate=False
    )


def ttv_coo_mt(
    x: CooTensor, v: np.ndarray, mode: int
) -> Optional[CooTensor]:
    """In-kernel multithreaded COO TTV; bit-identical to :func:`ttv_coo`.

    Fibers own disjoint output slots, so any schedule and thread count
    reproduces the serial reduction exactly.  Serial-sized inputs and
    sanitized runs delegate to :func:`ttv_coo`.
    """
    from ...core.ttv import _check_vector

    mode = x.check_mode(mode)
    v = _check_vector(x.shape[mode], v)
    par_fn = _ttv_fn(parallel=True)
    if par_fn is None:
        return None
    if sanitizer_enabled():
        return ttv_coo(x, v, mode)
    ordered, fptr = x.fiber_partition(mode)
    num_fibers = len(fptr) - 1
    if num_fibers == 0:
        return ttv_coo(x, v, mode)
    fptr = _i64(fptr)
    chunks = kernel_chunk_plan(
        x, grain="fiber", key=("ttv", mode), element_offsets=fptr
    )
    if chunks is None or chunks.num_chunks <= 1:
        return ttv_coo(x, v, mode)
    values = _f32(ordered.values)
    product_indices = _i32(ordered.indices[mode])
    vec = _f32(v)
    sums = np.empty(num_fibers, dtype=np.float64)
    _team_call(par_fn, chunks, fptr, values, product_indices, vec, sums)
    other_modes = [m for m in range(x.order) if m != mode]
    out_shape = tuple(x.shape[m] for m in other_modes)
    out_indices = ordered.indices[other_modes][:, fptr[:-1]]
    return CooTensor(
        out_shape, out_indices, sums.astype(VALUE_DTYPE), validate=False
    )


def _ttm_fn(rank: int, parallel: bool = False):
    name, source = codegen.ttm_source(rank)
    argtypes = [_I64, _I64, _PTR_I64, _PTR_F32, _PTR_I32, _PTR_F32, _PTR_F64]
    if parallel:
        return build.load_function(
            name + "_par", source, _par_argtypes(argtypes)
        )
    return build.load_function(name, source, argtypes)


def ttm_coo(x: CooTensor, matrix: np.ndarray, mode: int):
    """Compiled fiber-grain COO TTM returning the numpy kernel's sCOO."""
    from ...core.ttm import _check_matrix
    from ...formats.scoo import SemiSparseCooTensor

    mode = x.check_mode(mode)
    matrix = _check_matrix(x.shape[mode], matrix)
    rank = matrix.shape[1]
    if rank < 1:
        return None
    fn = _ttm_fn(rank)
    if fn is None:
        return None
    ordered, fptr = x.fiber_partition(mode)
    out_shape = list(x.shape)
    out_shape[mode] = rank
    other_modes = [m for m in range(x.order) if m != mode]
    num_fibers = len(fptr) - 1
    if num_fibers == 0:
        return SemiSparseCooTensor(
            out_shape,
            [mode],
            np.empty((len(other_modes), 0), dtype=INDEX_DTYPE),
            np.empty((0, rank), dtype=VALUE_DTYPE),
        )
    fptr = _i64(fptr)
    values = _f32(ordered.values)
    product_indices = _i32(ordered.indices[mode])
    mat = _f32(matrix)
    rows = np.empty((num_fibers, rank), dtype=np.float64)
    chunks = kernel_chunk_plan(
        x, grain="fiber", key=("ttm", mode), element_offsets=fptr
    )
    if chunks is None:
        fn(0, num_fibers, fptr, values, product_indices, mat, rows)
    else:

        def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
            fn(u0, u1, fptr, values, product_indices, mat, rows)

        run_chunks(
            chunks,
            task,
            kernel="TTM-COO-JIT",
            grain="fiber",
            outputs=((rows, "unit"),),
        )
    out_indices = ordered.indices[other_modes][:, fptr[:-1]]
    return SemiSparseCooTensor(
        out_shape, [mode], out_indices, rows.astype(VALUE_DTYPE)
    )


def ttm_coo_mt(x: CooTensor, matrix: np.ndarray, mode: int):
    """In-kernel multithreaded COO TTM; bit-identical to :func:`ttm_coo`.

    Same fiber-ownership argument as :func:`ttv_coo_mt`; serial-sized
    inputs and sanitized runs delegate to :func:`ttm_coo`.
    """
    from ...core.ttm import _check_matrix
    from ...formats.scoo import SemiSparseCooTensor

    mode = x.check_mode(mode)
    matrix = _check_matrix(x.shape[mode], matrix)
    rank = matrix.shape[1]
    if rank < 1:
        return None
    par_fn = _ttm_fn(rank, parallel=True)
    if par_fn is None:
        return None
    if sanitizer_enabled():
        return ttm_coo(x, matrix, mode)
    ordered, fptr = x.fiber_partition(mode)
    num_fibers = len(fptr) - 1
    if num_fibers == 0:
        return ttm_coo(x, matrix, mode)
    fptr = _i64(fptr)
    chunks = kernel_chunk_plan(
        x, grain="fiber", key=("ttm", mode), element_offsets=fptr
    )
    if chunks is None or chunks.num_chunks <= 1:
        return ttm_coo(x, matrix, mode)
    values = _f32(ordered.values)
    product_indices = _i32(ordered.indices[mode])
    mat = _f32(matrix)
    rows = np.empty((num_fibers, rank), dtype=np.float64)
    _team_call(par_fn, chunks, fptr, values, product_indices, mat, rows)
    out_shape = list(x.shape)
    out_shape[mode] = rank
    other_modes = [m for m in range(x.order) if m != mode]
    out_indices = ordered.indices[other_modes][:, fptr[:-1]]
    return SemiSparseCooTensor(
        out_shape, [mode], out_indices, rows.astype(VALUE_DTYPE)
    )


# ----------------------------------------------------------------------
# TEW
# ----------------------------------------------------------------------


def _tew_fn(op: str, parallel: bool = False):
    name, source = codegen.tew_source(op)
    argtypes = [_I64, _I64, _PTR_F32, _PTR_F32, _PTR_F32]
    if parallel:
        return build.load_function(
            name + "_par", source, _par_argtypes(argtypes)
        )
    return build.load_function(name, source, argtypes)


def tew_values(
    op: str, x_values: np.ndarray, y_values: np.ndarray, kernel: str
) -> Optional[np.ndarray]:
    """Compiled elementwise op over aligned value arrays.

    Bit-identical to the numpy ufunc (single-precision IEEE arithmetic
    either way), so callers may prefer it unconditionally.  Only worth
    the ctypes round-trip on inputs past the parallel threshold; tiny
    arrays return ``None`` and stay on the (faster) ufunc path.
    """
    if op not in codegen.TEW_OPS:
        return None
    nnz = int(x_values.shape[0])
    if not want_parallel(nnz):
        return None
    fn = _tew_fn(op)
    if fn is None:
        return None
    xs = _f32(x_values)
    ys = _f32(y_values)
    out = np.empty(nnz, dtype=VALUE_DTYPE)
    chunks = kernel_chunk_plan(None, grain="nonzero", total_elements=nnz)
    if chunks is None:
        fn(0, nnz, xs, ys, out)
        return out
    if not sanitizer_enabled() and chunks.num_chunks > 1:
        par_fn = _tew_fn(op, parallel=True)
        if par_fn is not None:
            _team_call(par_fn, chunks, xs, ys, out)
            return out

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        fn(e0, e1, xs, ys, out)

    run_chunks(
        chunks, task, kernel=kernel, grain="nonzero", outputs=((out, "element"),)
    )
    return out
