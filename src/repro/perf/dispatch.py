"""Format-agnostic kernel dispatch with autotuned ``variant="auto"``.

Generic :func:`mttkrp` / :func:`ttv` / :func:`ttm` entry points that
accept a *variant* — ``"coo"``, ``"hicoo"``, ``"csf"``, a compiled
``"coo_jit"`` / ``"hicoo_jit"`` (see :mod:`repro.perf.jit`), an explicit
:class:`~repro.perf.autotune.TuneConfig`, or ``"auto"`` to delegate the
choice to the autotuner.  A config's thread count and schedule are the
whole execution choice: a compiled variant at one thread runs its
serial kernel, at more threads the C thread team.  The auto path and a
direct invocation of the winning configuration execute byte-identical
code (:func:`run_config` is the single executor both go through), so
``variant="auto"`` results are exactly equal to the chosen variant's
results by construction.

Core kernels are resolved lazily: ``repro.core`` modules import
``repro.perf.parallel`` at module scope, so importing them here at module
scope would create an import cycle.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from ..errors import PastaError
from .autotune import TUNED_KERNELS, TuneConfig, decide
from .parallel import get_num_threads, get_schedule, parallel_config

VARIANTS = ("auto", "coo", "hicoo", "csf", "coo_jit", "hicoo_jit")

#: Numpy twin of each compiled variant: when the compiled entry returns
#: ``None`` (no compiler, ``REPRO_JIT=0``, unsupported specialization),
#: the twin runs instead, so cached tuning decisions stay runnable.
JIT_FALLBACK = {"coo_jit": "coo", "hicoo_jit": "hicoo"}

#: Every implementation, keyed by ``(kernel, variant)``: the defining
#: module, the function, and the input it takes — ``"coo"`` (the COO
#: view), ``"hicoo"`` (the HiCOO conversion at the config's block size),
#: or ``"block"`` (the COO view plus a ``block_size`` keyword).
_IMPLS = {
    ("MTTKRP", "coo"): ("..core.mttkrp", "mttkrp_coo", "coo"),
    ("MTTKRP", "hicoo"): ("..core.mttkrp", "mttkrp_hicoo", "hicoo"),
    ("MTTKRP", "csf"): ("..core.csf_kernels", "mttkrp_csf", "coo"),
    ("MTTKRP", "coo_jit"): (".jit", "mttkrp_coo", "coo"),
    ("MTTKRP", "hicoo_jit"): (".jit", "mttkrp_hicoo", "hicoo"),
    ("TTV", "coo"): ("..core.ttv", "ttv_coo", "coo"),
    ("TTV", "hicoo"): ("..core.ttv", "ttv_hicoo", "block"),
    ("TTV", "csf"): ("..core.csf_kernels", "ttv_csf", "coo"),
    ("TTV", "coo_jit"): (".jit", "ttv_coo", "coo"),
    ("TTM", "coo"): ("..core.ttm", "ttm_coo", "coo"),
    ("TTM", "hicoo"): ("..core.ttm", "ttm_hicoo", "block"),
    ("TTM", "coo_jit"): (".jit", "ttm_coo", "coo"),
}

#: The ``KernelOperands`` field each kernel consumes.
_OPERAND = {
    "MTTKRP": ("factors", "factor matrices"),
    "TTV": ("vector", "a vector operand"),
    "TTM": ("matrix", "a matrix operand"),
}

VariantLike = Union[str, TuneConfig]


def supports(kernel: str, variant: str) -> bool:
    """Whether ``variant`` has an implementation of ``kernel``."""
    return (kernel.upper(), variant) in _IMPLS


@functools.lru_cache(maxsize=None)
def _function(kernel: str, variant: str) -> Callable:
    module, name, _ = _IMPLS[kernel, variant]
    return getattr(importlib.import_module(module, __package__), name)


def _as_coo(x: Any):
    from ..formats.coo import CooTensor
    from ..formats.hicoo import HicooTensor

    if isinstance(x, CooTensor):
        return x
    if isinstance(x, HicooTensor):
        from .plans import expanded_coo

        # Memoized per tensor (plan-cache kind "expanded_coo"), so
        # repeated dispatch on the same HiCOO tensor reuses both the
        # expansion and every downstream plan keyed on the wrapper.
        return expanded_coo(x)
    raise PastaError(
        f"dispatch needs a COO or HiCOO tensor, got {type(x).__name__}"
    )


def resolve_config(
    x: Any,
    kernel: str,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    mode: int = 0,
    rank: int = 16,
    seed: int = 0,
    probe: bool = True,
) -> TuneConfig:
    """Turn a ``variant`` argument into a concrete :class:`TuneConfig`.

    ``"auto"`` consults the autotuner (memoized per tensor under the
    plan cache); explicit variants adopt the ambient thread count and
    schedule so they behave exactly like a direct kernel call.
    """
    if isinstance(variant, TuneConfig):
        return variant
    kernel = kernel.upper()
    if kernel not in TUNED_KERNELS:
        raise PastaError(
            f"kernel {kernel!r} is not dispatchable; use one of {TUNED_KERNELS}"
        )
    name = str(variant).lower()
    if name not in VARIANTS:
        raise PastaError(f"unknown variant {name!r}; use one of {VARIANTS}")
    if name == "auto":
        return decide(x, kernel, mode=mode, rank=rank, seed=seed, probe=probe)
    if not supports(kernel, name):
        raise PastaError(f"kernel {kernel!r} has no {name} implementation")
    policy = get_schedule()
    if name.startswith("hicoo"):
        from ..formats.hicoo import DEFAULT_BLOCK_SIZE, check_block_size

        block = check_block_size(block_size or DEFAULT_BLOCK_SIZE)
        return TuneConfig(name, block, get_num_threads(), policy)
    return TuneConfig(name, None, get_num_threads(), policy)


def run_config(
    x: Any,
    kernel: str,
    config: TuneConfig,
    operands: Any,
    *,
    mode: int = 0,
    rank: Optional[int] = None,
) -> Any:
    """Execute ``kernel`` exactly as ``config`` prescribes.

    This is the single executor behind both ``variant="auto"`` and the
    tuner's micro-probes, which is what makes auto-dispatch results
    bit-identical to a direct invocation of the winning configuration.
    A compiled variant whose entry returns ``None`` runs its numpy twin
    (:data:`JIT_FALLBACK`).
    """
    kernel = kernel.upper()
    variant = config.variant
    if not supports(kernel, variant):
        raise PastaError(
            f"no implementation for kernel {kernel!r} variant {variant!r}"
        )
    field, what = _OPERAND[kernel]
    operand = getattr(operands, field)
    if operand is None:
        raise PastaError(f"{kernel} dispatch needs {what}")
    if kernel == "MTTKRP":
        operand = list(operand)
    coo = _as_coo(x)
    with parallel_config(num_threads=config.num_threads, schedule=config.schedule):
        result = _call(kernel, variant, coo, config, operand, mode)
        if result is None and variant in JIT_FALLBACK:
            result = _call(kernel, JIT_FALLBACK[variant], coo, config, operand, mode)
    return result


def _call(
    kernel: str, variant: str, coo: Any, config: TuneConfig, operand: Any, mode: int
) -> Any:
    fn = _function(kernel, variant)
    form = _IMPLS[kernel, variant][2]
    if form == "hicoo":
        return fn(_hicoo(coo, config), operand, mode)
    if form == "block":
        return fn(coo, operand, mode, block_size=_block(config))
    return fn(coo, operand, mode)


def _block(config: TuneConfig) -> int:
    from ..formats.hicoo import DEFAULT_BLOCK_SIZE

    return config.block_size or DEFAULT_BLOCK_SIZE


def _hicoo(coo: Any, config: TuneConfig):
    from .plans import hicoo_for

    return hicoo_for(coo, _block(config))


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------


def mttkrp(
    x: Any,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    seed: int = 0,
    probe: bool = True,
) -> np.ndarray:
    """Matricized-tensor-times-Khatri-Rao-product with variant dispatch."""
    from ..core.registry import KernelOperands

    rank = int(np.asarray(factors[0]).shape[1])
    config = resolve_config(
        x,
        "MTTKRP",
        variant=variant,
        block_size=block_size,
        mode=mode,
        rank=rank,
        seed=seed,
        probe=probe,
    )
    return run_config(
        x, "MTTKRP", config, KernelOperands(factors=tuple(factors)), mode=mode
    )


def ttv(
    x: Any,
    vector: np.ndarray,
    mode: int,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    seed: int = 0,
    probe: bool = True,
) -> Any:
    """Tensor-times-vector with variant dispatch.

    The output format follows the chosen variant (COO for ``coo``/``csf``,
    HiCOO for ``hicoo``), exactly as a direct call would return.
    """
    from ..core.registry import KernelOperands

    config = resolve_config(
        x,
        "TTV",
        variant=variant,
        block_size=block_size,
        mode=mode,
        seed=seed,
        probe=probe,
    )
    return run_config(x, "TTV", config, KernelOperands(vector=vector), mode=mode)


def ttm(
    x: Any,
    matrix: np.ndarray,
    mode: int,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    seed: int = 0,
    probe: bool = True,
) -> Any:
    """Tensor-times-matrix with variant dispatch (semi-sparse output)."""
    from ..core.registry import KernelOperands

    rank = int(np.asarray(matrix).shape[1])
    config = resolve_config(
        x,
        "TTM",
        variant=variant,
        block_size=block_size,
        mode=mode,
        rank=rank,
        seed=seed,
        probe=probe,
    )
    return run_config(x, "TTM", config, KernelOperands(matrix=matrix), mode=mode)
