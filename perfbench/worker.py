"""The measured process of one benchmark run.

Usage: ``python3 worker.py WORKLOAD RUN_DIR SECONDS TRACE SEED``

``run.py`` writes the seeded inputs into ``RUN_DIR``, pins the
environment and starts this process, so that peak resident memory
(VmHWM) covers the work and not input generation.  The worker sets up
the program several times from cold caches (each set-up is timed), runs
the workload in a closed loop for ``SECONDS``, checks its outputs
outside the timed region and writes ``RUN_DIR/worker.json``.

With ``TRACE`` = 1 the run has one set-up (traced) and splits the
measuring time into an untraced half and a traced half; per-layer
numbers come from the traced half, the tracing overhead from comparing
the two.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, AsyncContextManager, Awaitable, Callable, Dict, Iterator, List, Optional

import numpy as np

import spans as sp
import stats
import workloads as wl

#: Cold set-ups per untraced run; ``setup_s`` is their median.  Writing
#: and opening the REPROBIN file takes tens of milliseconds and moves with
#: the page cache, so cpd_ooc takes the median of more of them.  The
#: tuner's choices for the small tensors differ between set-ups, and the
#: median call after one set-up can be 25% slower than after another, so
#: calls_small (and, diluted by transport, serve_small) measures after
#: more set-ups.
SETUPS = {"cpd_large": 3, "calls_small": 6, "serve_small": 5, "cpd_ooc": 9}
#: Fewest timed operations per phase, whatever ``SECONDS`` says.
MIN_OPS = 3
#: Relative tolerance for float32 kernel results against references.
RTOL = 1e-4

#: A measuring lane: an async context manager yielding an async ``op(i)``.
Lane = Callable[[], AsyncContextManager[Callable[[int], Awaitable[None]]]]


def _vm_hwm_mib(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def _dense(result: Any) -> np.ndarray:
    if isinstance(result, np.ndarray):
        return result.astype(np.float64)
    if not hasattr(result, "to_dense"):
        result = result.to_coo()
    return np.asarray(result.to_dense(), dtype=np.float64)


def _close(a: Any, b: Any) -> bool:
    a, b = _dense(a), _dense(b)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return bool(np.allclose(a, b, rtol=RTOL, atol=RTOL * scale))


def _folded(result) -> List[np.ndarray]:
    """CP factors with the weights folded back into the first factor."""
    return [result.factors[0] * result.weights] + list(result.factors[1:])


class Run:
    def __init__(self, workload: str, run_dir: Path, seconds: float, trace: bool, seed: int):
        self.workload = workload
        self.dir = run_dir
        self.seconds = seconds
        self.trace = trace
        self.seed = seed
        self.nproc = len(os.sched_getaffinity(0))
        self.rec = sp.Recorder(False)
        self.setups = 1 if trace else SETUPS[workload]
        self.setup_times: List[float] = []
        self.configs: List[Any] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: List[float] = []  # untraced operation latencies, seconds
        self.elapsed = 0.0
        self.next_op = 0
        self.setup_spans: List[sp.Span] = []
        self.traced_samples: List[float] = []
        self.trace_window = (0.0, 0.0)
        self.layers: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}
        self.peak_rss_mib = 0.0

    # -- bookkeeping ---------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what[:400])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail("check failed: " + what)

    def fresh_caches(self, i: int) -> None:
        """Point the JIT object cache and the tuning cache at empty
        locations and drop the in-process memos of both."""
        from repro.perf import autotune, jit

        os.environ["REPRO_JIT_CACHE"] = str(self.dir / f"jit{i}")
        os.environ["REPRO_TUNE_CACHE"] = str(self.dir / f"tune{i}.json")
        jit.reset()
        autotune.reload_disk_cache()

    def closed_loop(self, seconds: float, lane: Lane, start: int) -> tuple:
        """Run one closed loop for ``seconds``.

        ``lane()`` is an async context manager that yields an async
        ``op(i)``; the next operation starts as soon as the previous one
        has finished, and at least ``MIN_OPS`` of them run.
        Returns ``(latencies of successful ops, elapsed, next index)``."""
        latencies: List[float] = []
        counter = itertools.count(start)
        began = time.perf_counter()
        deadline = began + seconds

        async def loop() -> None:
            async with lane() as op:
                done = 0
                while done < MIN_OPS or time.perf_counter() < deadline:
                    i = next(counter)
                    done += 1
                    self.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        await op(i)
                    except Exception as exc:  # noqa: BLE001 — counted, reported
                        self.fail(f"op {i}: {type(exc).__name__}: {exc}")
                    else:
                        latencies.append(time.perf_counter() - t0)

        asyncio.run(loop())
        return latencies, time.perf_counter() - began, next(counter)

    def measure(self, lane: Lane, wrappers=()) -> None:
        """Measure after one set-up.  An untraced run measures after each
        of its set-ups for an equal share of the time, so its samples span
        several independent tuning outcomes.  A traced run has one set-up:
        an untraced half, then a traced half with ``wrappers`` installed."""
        if not self.trace:
            lat, elapsed, self.next_op = self.closed_loop(
                self.seconds / self.setups, lane, self.next_op
            )
            self.samples += lat
            self.elapsed += elapsed
            return
        half = self.seconds / 2.0
        self.samples, self.elapsed, nxt = self.closed_loop(half, lane, self.next_op)
        with _installed(wrappers):
            self.rec.enabled = True
            begin = time.perf_counter()
            self.traced_samples, _, self.next_op = self.closed_loop(half, lane, nxt)
            self.trace_window = (begin, time.perf_counter())
            self.rec.enabled = False

    @contextlib.contextmanager
    def timed_setup(self, i: int) -> Iterator[None]:
        """Time one set-up from cold caches; a traced run records its spans."""
        from repro.perf import autotune, get_plan_cache
        from repro.perf.jit import build

        self.fresh_caches(i)
        get_plan_cache().reset_stats()
        autotune.reset_probe_count()
        wrappers = [(self.rec, build, "load_function", "jit.load")] if self.trace else []
        with _installed(wrappers):
            self.rec.enabled = self.trace
            t0 = time.perf_counter()
            yield
            self.setup_times.append(time.perf_counter() - t0)
            self.rec.enabled = False
        self.setup_spans = list(self.rec.spans)

    # -- shared per-layer readings -----------------------------------

    def setup_layers(self) -> None:
        from repro.perf import autotune, jit

        tune_s = sum(sp.durations(self.setup_spans, "autotune.resolve"))
        jit_s = sum(
            s.duration
            for s in self.setup_spans
            if s.name == "jit.load" and s.parent is not None
        )
        self.layers["autotune.setup_s"] = tune_s
        self.layers["autotune.probes"] = float(autotune.probe_count())
        self.layers["autotune.jit_share"] = jit_s / tune_s if tune_s else 0.0
        self.layers["jit.objects_built"] = float(len(jit.cache_entries()))

    def cache_layers(self, stats_obj) -> None:
        lookups = stats_obj.hits + stats_obj.misses
        self.layers["plan_cache.hit_ratio"] = stats_obj.hits / lookups if lookups else 0.0
        for kind, (_hits, misses) in stats_obj.by_kind.items():
            self.layers[f"plan_cache.misses.{kind}"] = float(misses)

    def trace_layers(self) -> None:
        begin, end = self.trace_window
        window = [s for s in self.rec.spans if s.start >= begin]
        self.layers["trace.in_span_share"] = sp.in_span_share(window, begin, end)
        self.layers["trace.spans"] = float(len(self.rec.spans))
        untraced = stats.median(self.samples)
        traced = stats.median(self.traced_samples)
        if untraced:
            self.layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        if self.elapsed:
            self.layers["throughput.ops_per_s"] = len(self.samples) / self.elapsed
        found = stats.tail(self.samples)
        if found is not None:
            self.layers["tail.op_ms"] = found[0] * 1e3
            self.layers["tail.percentile"] = found[1]
        elif self.samples:
            # Ten samples or fewer: no percentile has ten beyond it, so
            # the slowest sample stands in and the percentile says so.
            self.layers["tail.op_ms"] = max(self.samples) * 1e3
            self.layers["tail.percentile"] = 100.0
        self.layers["tail.samples"] = float(len(self.samples))

    def result(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "setup_s": self.setup_times,
            "samples_s": self.samples,
            "elapsed_s": self.elapsed,
            "peak_rss_mib": self.peak_rss_mib,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "tuned_configs": self.configs,
            "layers": self.layers,
            **self.extra,
        }


def in_process(op: Callable[[int], None]) -> Lane:
    """The lane of a synchronous ``op(i)`` run in the measuring process."""

    @contextlib.asynccontextmanager
    async def lane():
        async def call(i: int) -> None:
            op(i)

        yield call

    return lane


@contextlib.contextmanager
def _installed(wrappers):
    """Install several ``(recorder, owner, attr, name)`` span wrappers."""
    with contextlib.ExitStack() as stack:
        for rec, owner, attr, name in wrappers:
            stack.enter_context(rec.wrapping(owner, attr, name))
        yield


# ---------------------------------------------------------------------
# cpd_large: CP-ALS on the in-RAM tensor through variant="auto"
# ---------------------------------------------------------------------


def _computed_oi(x, config, rank: int) -> float:
    """Table-I operational intensity of MTTKRP in the committed format;
    the bytes are computed from the format, not measured."""
    from repro.core.analysis import mttkrp_cost
    from repro.formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor

    if config.variant.startswith("hicoo"):
        block = config.block_size or DEFAULT_BLOCK_SIZE
        blocks = HicooTensor.from_coo(x, block).num_blocks
        cost = mttkrp_cost(x.nnz, rank, num_blocks=blocks, block_size=block)
        return cost.operational_intensity("HiCOO")
    return mttkrp_cost(x.nnz, rank).operational_intensity("COO")


def _kernel_span_name(x, factors, mode, *args, **kwargs) -> str:
    return f"kernel.mttkrp.m{int(mode)}"


def _cpd_shape(run: Run) -> tuple:
    """Shape of the CP-ALS tensor that ``run.py`` wrote as raw files."""
    return tuple(json.loads((run.dir / "cpd_meta.json").read_text())["shape"])


def cpd_large(run: Run) -> None:
    from repro.apps.cpd import cp_als
    from repro.core.analysis import mttkrp_cost
    from repro.core.mttkrp import mttkrp_coo
    from repro.core.registry import make_operands
    from repro.formats.coo import CooTensor
    from repro.formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor
    from repro.perf import dispatch, get_plan_cache, invalidate, last_parallel_report, parallel_config

    shape = _cpd_shape(run)
    indices = np.fromfile(run.dir / "cpd_idx.i32", dtype=np.int32).reshape(-1, len(shape))
    indices = np.ascontiguousarray(indices.T)
    values = np.fromfile(run.dir / "cpd_val.f32", dtype=np.float32)
    rank = wl.CPD_RANK
    state: Dict[str, Any] = {"x": None, "init": None, "fits": []}
    committed: Dict[tuple, None] = {}

    def sweep(i: int) -> None:
        with run.rec.span("cpd.sweep", rid=i):
            res = cp_als(
                state["x"], rank, variant="auto", num_threads=run.nproc, tolerance=0.0,
                max_sweeps=1, seed=run.seed, initial_factors=state["init"],
            )
        state["init"] = _folded(res)
        state["fits"].append(float(res.fits[-1]))

    for i in range(run.setups):
        if state["x"] is not None:
            invalidate(state["x"])
            state["x"] = None
        with run.timed_setup(i):
            x = CooTensor(shape, indices, values, validate=False)
            configs = []
            with parallel_config(num_threads=run.nproc):
                for mode in range(x.order):
                    with run.rec.span("autotune.resolve"):
                        configs.append(
                            dispatch.resolve_config(
                                x, "MTTKRP", variant="auto", mode=mode, rank=rank, seed=run.seed
                            )
                        )
        state["x"] = x
        run.configs.append([c.label() for c in configs])
        for mode, config in enumerate(configs):
            committed.setdefault((mode, config), None)
        run.measure(in_process(sweep), wrappers=[(run.rec, dispatch, "mttkrp", _kernel_span_name)])
    # The reference kernel's temporaries must not count as peak memory.
    run.peak_rss_mib = _vm_hwm_mib()
    # Outside the timed region: each mode's MTTKRP under every committed
    # configuration against the reference COO kernel.
    for mode in range(x.order):
        ops = make_operands(x, "MTTKRP", mode=mode, rank=rank, seed=run.seed)
        ref = mttkrp_coo(x, list(ops.factors), mode)
        for config in [c for (m, c) in committed if m == mode]:
            got = dispatch.run_config(x, "MTTKRP", config, ops, mode=mode)
            run.check(_close(got, ref), f"MTTKRP mode {mode} under {config.label()}")
    run.check(all(np.isfinite(f) and f <= 1.0 for f in state["fits"]), "CP-ALS fits finite")
    run.extra["fits"] = state["fits"]
    if not run.trace:
        return

    spans_all = run.rec.spans
    run.setup_layers()
    run.cache_layers(get_plan_cache().stats())
    per_mode = []
    for mode in range(x.order):
        ms = stats.median(sp.durations(spans_all, f"kernel.mttkrp.m{mode}")) * 1e3
        run.layers[f"kernel.mttkrp_ms.m{mode}"] = ms
        per_mode.append(ms)
    cost = mttkrp_cost(x.nnz, rank)
    run.layers["kernel.mttkrp_gflops"] = cost.flops / (sum(per_mode) / len(per_mode) / 1e3) / 1e9
    run.layers["cpd.other_ms"] = stats.median(sp.durations(spans_all, "cpd.sweep", own=True)) * 1e3

    chosen = configs[0]
    run.layers["formats.hicoo_build_s"] = sp.timed(
        lambda: HicooTensor.from_coo(x, chosen.block_size or DEFAULT_BLOCK_SIZE)
    )
    run.layers["kernel.mttkrp_oi_computed"] = _computed_oi(x, chosen, rank)

    ops = make_operands(x, "MTTKRP", mode=0, rank=rank, seed=run.seed)
    serial = dataclasses.replace(chosen, num_threads=1)
    one = [sp.timed(lambda: dispatch.run_config(x, "MTTKRP", serial, ops, mode=0)) for _ in range(3)]
    before = last_parallel_report()
    many = [sp.timed(lambda: dispatch.run_config(x, "MTTKRP", chosen, ops, mode=0)) for _ in range(3)]
    report = last_parallel_report()
    run.layers["parallel.mttkrp_1t_ms"] = stats.median(one) * 1e3
    run.layers["parallel.scaling"] = stats.median(one) / stats.median(many)
    if report is not None and report is not before:
        run.layers["parallel.imbalance"] = report.measured_imbalance
    resolve = [
        sp.timed(lambda: dispatch.resolve_config(x, "MTTKRP", variant="auto", mode=0, rank=rank))
        for _ in range(200)
    ]
    run.layers["dispatch.resolve_us"] = stats.median(resolve) * 1e6
    run.trace_layers()


# ---------------------------------------------------------------------
# cpd_ooc: the same application on a REPROBIN file under a memory budget
# ---------------------------------------------------------------------

#: Nonzeros per REPROBIN chunk and per streamed append while writing.
OOC_WRITE_CHUNK = 1 << 17


def _write_bin(run: Run, path: Path, shape) -> None:
    """Stream the raw input into a REPROBIN file, one chunk at a time,
    so the writer never holds the whole tensor in memory."""
    from repro.io.binfile import BinWriter

    order = len(shape)
    writer = BinWriter(path, shape=shape, chunk_nnz=OOC_WRITE_CHUNK)
    try:
        with open(run.dir / "cpd_idx.i32", "rb") as fi, open(run.dir / "cpd_val.f32", "rb") as fv:
            while True:
                idx = np.fromfile(fi, dtype=np.int32, count=OOC_WRITE_CHUNK * order)
                if idx.size == 0:
                    break
                vals = np.fromfile(fv, dtype=np.float32, count=idx.size // order)
                writer.append(idx.reshape(-1, order).T, vals)
        writer.close()
    except BaseException:
        writer.abort()
        raise


def cpd_ooc(run: Run) -> None:
    from repro.apps.cpd import cp_als
    from repro.io.binfile import MmapCooTensor, open_bin
    from repro.perf import get_plan_cache, memory_budget, ooc

    shape = _cpd_shape(run)
    rank = wl.CPD_RANK
    state: Dict[str, Any] = {"handle": None, "init": None, "fits": []}

    def sweep(i: int) -> None:
        with run.rec.span("cpd.sweep", rid=i):
            res = cp_als(
                state["handle"], rank, num_threads=run.nproc, tolerance=0.0,
                max_sweeps=1, seed=run.seed, initial_factors=state["init"],
            )
        state["init"] = _folded(res)
        state["fits"].append(float(res.fits[-1]))

    wrappers = [
        (run.rec, ooc, "mttkrp", "ooc.mttkrp"),
        (run.rec, MmapCooTensor, "read_range", "binfile.read"),
        (run.rec, MmapCooTensor, "read_values", "binfile.read"),
    ]
    with memory_budget(wl.OOC_BUDGET):
        for i in range(run.setups):
            path = run.dir / f"tensor{i}.bin"
            with run.timed_setup(i):
                _write_bin(run, path, shape)
                handle = open_bin(path)
            state["handle"] = handle
            run.measure(in_process(sweep), wrappers=wrappers)
            if i < run.setups - 1:
                handle.close()
                os.remove(path)
        steps = ooc.iteration_plan(handle, rank).num_chunks
    # Checksum verification maps every page; it must not count as peak memory.
    run.peak_rss_mib = _vm_hwm_mib()
    run.check(handle.verify_checksums() == [], "REPROBIN chunk checksums")
    run.extra["fits"] = state["fits"]
    if not run.trace:
        handle.close()
        return

    spans_all = run.rec.spans
    run.cache_layers(get_plan_cache().stats())
    run.layers["ooc.mttkrp_ms"] = stats.median(sp.durations(spans_all, "ooc.mttkrp", own=True)) * 1e3
    run.layers["binfile.read_ms"] = (
        stats.median(sp.per_parent_child_time(spans_all, "ooc.mttkrp", "binfile.read")) * 1e3
    )
    run.layers["cpd.other_ms"] = stats.median(sp.durations(spans_all, "cpd.sweep", own=True)) * 1e3
    run.layers["ooc.steps"] = float(steps)
    run.layers["ooc.plan_lru_mib"] = ooc.plan_lru_bytes() / 2**20
    run.layers["binfile.open_ms"] = stats.median(
        [sp.timed(lambda: open_bin(path).close()) for _ in range(5)]
    ) * 1e3
    scans = []
    for _ in range(3):
        scans.append(sp.timed(lambda: handle.read_range(0, handle.nnz)))
        handle.release_pages()
    run.layers["binfile.scan_ms"] = stats.median(scans) * 1e3
    run.layers["binfile.verify_ms"] = stats.median(
        [sp.timed(handle.verify_checksums) for _ in range(3)]
    ) * 1e3
    handle.close()
    run.trace_layers()


# ---------------------------------------------------------------------
# calls_small and serve_small: the serving-sized request stream
# ---------------------------------------------------------------------


def _load_stream(run: Run):
    stream = json.loads((run.dir / "stream.json").read_text())
    data = np.load(run.dir / "small.npz")
    arrays = {
        name: (tuple(int(s) for s in data[f"{name}_shape"]), data[f"{name}_indices"], data[f"{name}_values"])
        for name, _, _ in wl.SMALL_TENSORS
    }
    return stream, arrays


def _tune_stream(run: Run, arrays, stream):
    """Set-up shared by both stream workloads: build the tensors and
    resolve every (tensor, kernel, mode, rank) of the stream, which
    writes the tuning cache file."""
    from repro.formats.coo import CooTensor
    from repro.perf import dispatch

    xs = {name: CooTensor(shape, idx, vals, validate=False) for name, (shape, idx, vals) in arrays.items()}
    chosen = {}
    for sig in sorted({wl.signature(r) for r in stream}):
        tensor, kernel, mode, rank = sig
        with run.rec.span("autotune.resolve"):
            chosen[sig] = dispatch.resolve_config(
                xs[tensor], kernel, variant="auto", mode=mode, rank=rank, seed=0
            )
    run.configs.append(dict(Counter(c.label() for c in chosen.values())))
    return xs


def _call_path(xs, rec: sp.Recorder):
    """One request through the same public steps the server runs."""
    from repro.core.registry import make_operands
    from repro.perf.dispatch import resolve_config, run_config
    from repro.serving.protocol import result_digest, validate_request

    def call(request: Dict[str, Any]) -> str:
        with rec.span("call", rid=request["id"]):
            with rec.span("protocol.validate"):
                req = validate_request(request)
            x = xs[req["tensor"]]
            with rec.span("registry.operands"):
                ops = make_operands(x, req["kernel"], mode=req["mode"], rank=req["rank"], seed=req["seed"])
            with rec.span("dispatch.resolve"):
                config = resolve_config(
                    x, req["kernel"], variant=req["variant"], block_size=req["block_size"],
                    mode=req["mode"], rank=req["rank"], seed=req["seed"],
                )
            with rec.span("dispatch.run"):
                out = run_config(x, req["kernel"], config, ops, mode=req["mode"])
            with rec.span("protocol.digest"):
                return result_digest(out)

    return call


def _reference_check(run: Run, xs, by_key: Dict[tuple, Dict[str, Any]]) -> Dict[tuple, str]:
    """Per distinct request: the committed configuration's result against
    the reference COO kernel; returns each request's in-process digest."""
    from repro.core.mttkrp import mttkrp_coo
    from repro.core.registry import make_operands
    from repro.core.ttm import ttm_coo
    from repro.core.ttv import ttv_coo
    from repro.perf.dispatch import resolve_config, run_config
    from repro.serving.protocol import result_digest

    digests = {}
    for key, req in by_key.items():
        x = xs[req["tensor"]]
        kernel, mode = req["kernel"], req["mode"]
        ops = make_operands(x, kernel, mode=mode, rank=req["rank"], seed=req["seed"])
        config = resolve_config(x, kernel, variant="auto", mode=mode, rank=req["rank"], seed=req["seed"])
        got = run_config(x, kernel, config, ops, mode=mode)
        if kernel == "MTTKRP":
            ref = mttkrp_coo(x, list(ops.factors), mode)
        elif kernel == "TTM":
            ref = ttm_coo(x, ops.matrix, mode)
        else:
            ref = ttv_coo(x, ops.vector, mode)
        run.check(_close(got, ref), f"{key} under {config.label()}")
        digests[key] = result_digest(got)
    return digests


def _hot_kernel_layers(run: Run, xs) -> None:
    """Kernel numbers on the stream's hottest tensor at its largest rank."""
    from repro.core.analysis import mttkrp_cost
    from repro.core.registry import make_operands
    from repro.perf import dispatch

    x = xs[wl.SMALL_TENSORS[0][0]]
    rank = max(wl.RANKS)
    per_mode = []
    for mode in range(x.order):
        ops = make_operands(x, "MTTKRP", mode=mode, rank=rank, seed=0)
        config = dispatch.resolve_config(x, "MTTKRP", variant="auto", mode=mode, rank=rank)
        ms = stats.median(
            [sp.timed(lambda: dispatch.run_config(x, "MTTKRP", config, ops, mode=mode)) for _ in range(200)]
        ) * 1e3
        run.layers[f"kernel.mttkrp_ms.m{mode}"] = ms
        per_mode.append(ms)
    cost = mttkrp_cost(x.nnz, rank)
    run.layers["kernel.mttkrp_gflops"] = cost.flops / (sum(per_mode) / len(per_mode) / 1e3) / 1e9
    run.layers["kernel.mttkrp_oi_computed"] = _computed_oi(
        x, dispatch.resolve_config(x, "MTTKRP", variant="auto", mode=0, rank=rank), rank
    )


def calls_small(run: Run) -> None:
    from repro.perf import get_plan_cache, invalidate

    stream, arrays = _load_stream(run)
    xs = None
    for i in range(run.setups):
        for x in (xs or {}).values():
            invalidate(x)
        with run.timed_setup(i):
            xs = _tune_stream(run, arrays, stream)
        call = _call_path(xs, run.rec)
        seen: Dict[tuple, Dict[str, Any]] = {}
        digests: Dict[tuple, set] = {}

        def op(n: int) -> None:
            request = stream[n % len(stream)]
            digest = call(request)
            key = wl.result_key(request)
            seen.setdefault(key, request)
            digests.setdefault(key, set()).add(digest)

        run.measure(in_process(op))
        run.peak_rss_mib = _vm_hwm_mib()
        reference = _reference_check(run, xs, seen)
        for key, found in digests.items():
            run.check(found == {reference[key]}, f"digest of {key} repeats")
    if not run.trace:
        return

    spans_all = run.rec.spans
    run.setup_layers()
    run.cache_layers(get_plan_cache().stats())
    for layer, metric in (
        ("protocol.validate", "protocol.validate_us"),
        ("protocol.digest", "protocol.digest_us"),
        ("registry.operands", "registry.operands_us"),
        ("dispatch.resolve", "dispatch.resolve_us"),
        ("dispatch.run", "dispatch.run_us"),
    ):
        run.layers[metric] = stats.median(sp.durations(spans_all, layer, own=True)) * 1e6
    _hot_kernel_layers(run, xs)
    run.trace_layers()


# ---------------------------------------------------------------------
# serve_small: the same stream through `repro serve`
# ---------------------------------------------------------------------

#: Seconds to wait for a server to report its ports.
SERVER_START_TIMEOUT = 60.0


@contextlib.contextmanager
def _pinned_apart(server_pid: int) -> Iterator[None]:
    """Pin this process (the client) and every thread of the server to
    one CPU each for the block; set-up runs unpinned.

    With one connection the client and the server take turns, so each
    needs one CPU; pinning them apart keeps the scheduler from stacking
    both on one CPU or moving them between requests.  Threads the server
    starts later inherit its pinning.  With one CPU nothing is pinned."""
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    if len(cpus) < 2:
        yield
        return
    for tid in os.listdir(f"/proc/{server_pid}/task"):
        os.sched_setaffinity(int(tid), {cpus[1]})
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Server:
    """One ``repro serve`` process over the stream's three tensors."""

    def __init__(self, run: Run, index: int, lifetime: float):
        self.log_path = run.dir / f"server{index}.log"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--metrics-port", "0",
            "--preload", "",
            # Quotas never bind: the load is one closed-loop connection.
            "--rate", "1000000000", "--burst", "1000000000",
            # Backstop only: the benchmark stops the server itself.
            "--serve-seconds", str(int(lifetime)),
        ]
        for name, shape, nnz, tseed in wl.small_tensor_specs(run.seed):
            cmd += ["--synthetic", f"{name}={'x'.join(map(str, shape))}:{nnz}:{tseed}"]
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=self.log, env=dict(os.environ)
        )
        self.host = self.port = self.metrics_port = None
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while self.metrics_port is None:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up: " + self.log_path.read_text()[-2000:])
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not report its ports")
            time.sleep(0.005)
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    self.host, self.port = host, int(port)
                elif line.startswith("metrics on ") and self.port is not None:
                    self.metrics_port = int(line.split(":")[-1].split("/")[0])

    def peak_rss_mib(self) -> float:
        return _vm_hwm_mib(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _served(run: Run, server: Server, stream, responses: List[tuple]) -> Lane:
    """A lane holding one connection to ``server``, one request in flight.

    Each successful request appends ``(request, digest, latency, traced)``
    to ``responses``; a traced request is also recorded as a root span."""
    from repro.serving.client import ServingClient

    @contextlib.asynccontextmanager
    async def lane():
        async with ServingClient(server.host, server.port) as client:

            async def call(i: int) -> None:
                request = stream[i % len(stream)]
                t0 = time.perf_counter()
                response = await client.call(request)
                t1 = time.perf_counter()
                if not response.get("ok"):
                    raise RuntimeError(f"status {response.get('status')} {response.get('error')}")
                responses.append((request, response.get("result_digest"), t1 - t0, run.rec.enabled))
                run.rec.add("serving.request", t0, t1, request["id"])

            yield call

    return lane


async def _warm_up(server: Server, stream) -> None:
    """One request per tuning signature, so plans and objects are loaded."""
    from repro.serving.client import ServingClient

    firsts = {}
    for request in stream:
        firsts.setdefault(wl.signature(request), request)
    async with ServingClient(server.host, server.port) as client:
        for request in firsts.values():
            response = await client.call(request)
            if not response.get("ok"):
                raise RuntimeError(f"warm-up request failed: {response}")


def serve_small(run: Run) -> None:
    from repro.perf import invalidate
    from repro.serving.client import fetch_metrics

    stream, arrays = _load_stream(run)
    xs = None
    server: Optional[Server] = None
    try:
        for i in range(run.setups):
            for x in (xs or {}).values():
                invalidate(x)
            with run.timed_setup(i):
                xs = _tune_stream(run, arrays, stream)
                server = Server(run, i, lifetime=170)
                asyncio.run(_warm_up(server, stream))
            responses: List[tuple] = []
            with _pinned_apart(server.proc.pid):
                run.measure(_served(run, server, stream, responses))
            served = fetch_metrics(server.host, server.metrics_port)
            run.peak_rss_mib = max(run.peak_rss_mib, server.peak_rss_mib())
            server.stop()
            server = None
            # Every served digest must equal the in-process digest of the
            # same request, resolved through the same tuning cache file.
            seen = {}
            for request, *_ in responses:
                seen.setdefault(wl.result_key(request), request)
            reference = _reference_check(run, xs, seen)
            for request, digest, *_ in responses:
                if digest != reference[wl.result_key(request)]:
                    run.fail(f"request {request['id']}: served digest differs from in-process digest")
    finally:
        if server is not None:
            server.stop()
    if not run.trace:
        return

    run.setup_layers()
    cache = served["plan_cache"]
    run.layers["plan_cache.hit_ratio"] = cache["hit_rate"]
    for kind, counts in cache["by_kind"].items():
        run.layers[f"plan_cache.misses.{kind}"] = float(counts["misses"])
    server_p50 = served["latency"]["MTTKRP"]["p50_seconds"] * 1e3
    client_p50 = stats.median(
        [t for request, _, t, traced in responses if request["kernel"] == "MTTKRP" and not traced]
    ) * 1e3
    run.layers["serving.server_p50_ms"] = server_p50
    run.layers["serving.outside_p50_ms"] = client_p50 - server_p50
    run.layers["serving.mean_batch_size"] = float(served["mean_batch_size"] or 0.0)
    batched = served["batched_requests_total"]
    run.layers["serving.fused_ratio"] = served["fused_requests_total"] / batched if batched else 0.0
    run.trace_layers()


def main(argv: List[str]) -> int:
    workload, run_dir, seconds, trace, seed = argv
    run = Run(workload, Path(run_dir), float(seconds), trace == "1", int(seed))
    {
        "cpd_large": cpd_large,
        "cpd_ooc": cpd_ooc,
        "calls_small": calls_small,
        "serve_small": serve_small,
    }[workload](run)
    if run.trace:
        run.rec.write_jsonl(str(run.dir / "trace.jsonl"))
        run.extra["self_time_s"] = sp.self_time_by_name(run.rec.spans)
    (run.dir / "worker.json").write_text(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 — the parent reports the traceback
        traceback.print_exc()
        sys.exit(1)
