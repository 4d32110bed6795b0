"""Compiled kernel entry points: numpy marshaling around the C loops.

Every function here returns ``None`` whenever the compiled path cannot
run — no compiler, ``REPRO_JIT=0``, an unsupported specialization — and
the caller (``dispatch.run_config`` or the TEW value chokepoint) falls
back to the numpy kernel.  When it does run, it reuses the *same* plans,
chunk plans, and sanitizer ownership declarations as the numpy path:

* MTTKRP consumes the cached mode-sort plan and partitions by output
  segments (``grain="segment"``, key ``plan.mode``);
* HiCOO MTTKRP partitions the ownership plan's output windows
  (``grain="window"``, :func:`repro.perf.plans.build_hicoo_ownership_plan`);
* TTV/TTM consume the cached fiber partition and partition by fibers
  (``grain="fiber"``, keys ``("ttv", mode)`` / ``("ttm", mode)``);
* TEW partitions the nonzero range (``grain="nonzero"``).

The ambient thread count picks one of three routes (:func:`_run_units`):
the serial kernel when the chunk plan has at most one chunk; otherwise
one ctypes call to the kernel's ``_par`` entry, which runs the whole
chunk table on a C thread team (OpenMP or pthreads, chosen at compile
time); and, only under ``REPRO_SANITIZE=1``, the chunk-at-a-time
executor calling the serial kernel per chunk so the write sanitizer can
check each chunk's ownership declaration.  Chunks own disjoint output
slices, so all three routes store bit-identical results.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Sequence

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


def _load(name: str, source: str, argtypes: Sequence, parallel: bool):
    """The serial entry ``name`` or, with ``parallel``, its ``_par`` twin."""
    if parallel:
        return build.load_function(name + "_par", source, _par_argtypes(argtypes))
    return build.load_function(name, source, argtypes)


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


def _run_units(
    fn,
    par_fn: Callable[[], Optional[Callable]],
    num_units: int,
    chunks: Optional[ChunkPlan],
    args: tuple,
    *,
    kernel: str,
    grain: str,
    outputs: tuple,
) -> None:
    """Run the compiled kernel ``fn`` over units ``[0, num_units)``.

    Serial when there is at most one chunk; chunk by chunk through the
    executor under the write sanitizer, so ``outputs`` ownership is
    checked; otherwise one call to the ``_par`` entry that ``par_fn``
    resolves (lazily, so serial calls never generate it).
    """
    if chunks is None or chunks.num_chunks <= 1:
        fn(0, num_units, *args)
    elif sanitizer_enabled():

        def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
            fn(u0, u1, *args)

        run_chunks(chunks, task, kernel=kernel, grain=grain, outputs=outputs)
    else:
        team = par_fn()
        if team is None:
            fn(0, num_units, *args)
        else:
            _team_call(team, chunks, *args)


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
    return _load(name, source, argtypes, parallel)


def mttkrp_coo(
    x: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Compiled segmented COO MTTKRP; ``None`` when JIT is unavailable.

    Accepts COO and HiCOO owners (the mode-sort plan expands HiCOO
    coordinates exactly as the numpy kernel does).  Chunks own disjoint
    output segments, so every thread count and schedule stores the
    serial result bit for bit.
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
    sorted_indices = plan.sorted_indices
    non_mode = [m for m in range(order) if m != mode]
    args = (
        offsets,
        targets,
        _f32(plan.sorted_values(x.values)),
        *(_i32(sorted_indices[m]) for m in non_mode),
        *(_f32(factors[m]) for m in non_mode),
    )
    chunks = kernel_chunk_plan(
        x, grain="segment", key=plan.mode, element_offsets=offsets
    )
    out = np.zeros((x.shape[mode], rank), dtype=VALUE_DTYPE)
    _run_units(
        fn,
        lambda: _mttkrp_coo_fn(order, rank, parallel=True),
        plan.num_segments,
        chunks,
        (*args, out),
        kernel="MTTKRP-COO-JIT",
        grain="segment",
        outputs=((out, ("rows", targets)),),
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


def _mttkrp_hicoo_own_fn(order: int, rank: int, parallel: bool = False):
    name, source = codegen.mttkrp_hicoo_owned_source(order, rank)
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _PTR_I64, _PTR_I64, _I64, _PTR_F32]
        + [_PTR_I32, _PTR_U8] * order
        + [_PTR_F32] * k
        + [_PTR_F64]
    )
    return _load(name, source, argtypes, parallel)


def _window_chunks(x: HicooTensor, mode: int):
    """``(ownership plan, window chunks)`` for a parallel call, else ``None``.

    Consulted before anything is built: a call that runs serial (one
    thread, a serial-sized tensor, no JIT) never pays for the plan.
    """
    if not want_parallel(x.nnz) or not build.jit_available():
        return None
    plan = hicoo_ownership_plan(x, mode)
    if plan is None:
        plan = build_hicoo_ownership_plan(x, mode)
    if plan.num_windows <= 1:
        return None
    chunks = kernel_chunk_plan(
        x,
        grain="window",
        key=("hicoo_own", mode),
        element_offsets=plan.element_offsets,
    )
    if chunks is None or chunks.num_chunks <= 1:
        return None
    return plan, chunks


def mttkrp_hicoo(
    x: HicooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Compiled blocked HiCOO MTTKRP (Algorithm 3); ``None`` when unavailable.

    Serial calls walk the blocks in storage order.  Parallel calls walk
    the ownership plan, which regroups blocks by their output-window
    block coordinate with a stable sort: windows own disjoint
    ``block_size`` output row ranges and every row accumulates in the
    serial order, so results are bit-identical at any thread count and
    schedule.  Sanitized parallel calls declare ``row_blocks``
    ownership so every write is checked.
    """
    from ...core.mttkrp import check_factors

    order = x.order
    if order < 2:
        return None
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    owned = _window_chunks(x, mode)
    if owned is None:
        fn = _mttkrp_hicoo_fn(order, rank)
    else:
        fn = _mttkrp_hicoo_own_fn(order, rank)
    if fn is None:
        return None
    non_mode = [m for m in range(order) if m != mode]
    pairs = []
    for m in (*non_mode, mode):  # codegen convention: output mode last
        pairs.append(_i32(x.binds[m]))
        pairs.append(np.ascontiguousarray(x.einds[m]))
    out = np.zeros((x.shape[mode], rank), dtype=np.float64)
    args = (
        _i64(x.bptr),
        int(x.block_size),
        _f32(x.values),
        *pairs,
        *(_f32(factors[m]) for m in non_mode),
        out,
    )
    if owned is None:
        fn(0, x.num_blocks, *args)
        return out.astype(VALUE_DTYPE)
    plan, chunks = owned
    _run_units(
        fn,
        lambda: _mttkrp_hicoo_own_fn(order, rank, parallel=True),
        plan.num_windows,
        chunks,
        (_i64(plan.win_ptr), _i64(plan.block_perm), *args),
        kernel="MTTKRP-HiCOO-JIT",
        grain="window",
        outputs=(
            (out, ("row_blocks", plan.window_targets, int(x.block_size))),
        ),
    )
    return out.astype(VALUE_DTYPE)


# ----------------------------------------------------------------------
# TTV / TTM
# ----------------------------------------------------------------------


def _ttv_fn(parallel: bool = False):
    name, source = codegen.ttv_source()
    argtypes = [_I64, _I64, _PTR_I64, _PTR_F32, _PTR_I32, _PTR_F32, _PTR_F64]
    return _load(name, source, argtypes, parallel)


def ttv_coo(x: CooTensor, v: np.ndarray, mode: int) -> Optional[CooTensor]:
    """Compiled fiber-grain COO TTV; same output object shape as numpy.

    Fibers own disjoint output slots, so any schedule and thread count
    reproduces the serial reduction exactly.
    """
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
    sums = np.empty(num_fibers, dtype=np.float64)
    _run_units(
        fn,
        lambda: _ttv_fn(parallel=True),
        num_fibers,
        kernel_chunk_plan(
            x, grain="fiber", key=("ttv", mode), element_offsets=fptr
        ),
        (
            fptr,
            _f32(ordered.values),
            _i32(ordered.indices[mode]),
            _f32(v),
            sums,
        ),
        kernel="TTV-COO-JIT",
        grain="fiber",
        outputs=((sums, "unit"),),
    )
    out_indices = ordered.indices[other_modes][:, fptr[:-1]]
    return CooTensor(
        out_shape, out_indices, sums.astype(VALUE_DTYPE), validate=False
    )


def _ttm_fn(rank: int, parallel: bool = False):
    name, source = codegen.ttm_source(rank)
    argtypes = [_I64, _I64, _PTR_I64, _PTR_F32, _PTR_I32, _PTR_F32, _PTR_F64]
    return _load(name, source, argtypes, parallel)


def ttm_coo(x: CooTensor, matrix: np.ndarray, mode: int):
    """Compiled fiber-grain COO TTM returning the numpy kernel's sCOO.

    Same fiber-ownership argument as :func:`ttv_coo`: bit-identical at
    any thread count and schedule.
    """
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
    rows = np.empty((num_fibers, rank), dtype=np.float64)
    _run_units(
        fn,
        lambda: _ttm_fn(rank, parallel=True),
        num_fibers,
        kernel_chunk_plan(
            x, grain="fiber", key=("ttm", mode), element_offsets=fptr
        ),
        (
            fptr,
            _f32(ordered.values),
            _i32(ordered.indices[mode]),
            _f32(matrix),
            rows,
        ),
        kernel="TTM-COO-JIT",
        grain="fiber",
        outputs=((rows, "unit"),),
    )
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
    return _load(name, source, argtypes, parallel)


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
    out = np.empty(nnz, dtype=VALUE_DTYPE)
    _run_units(
        fn,
        lambda: _tew_fn(op, parallel=True),
        nnz,
        kernel_chunk_plan(None, grain="nonzero", total_elements=nnz),
        (_f32(x_values), _f32(y_values), out),
        kernel=kernel,
        grain="nonzero",
        outputs=((out, "element"),),
    )
    return out
