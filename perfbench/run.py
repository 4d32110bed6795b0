"""Repository benchmark: CP-ALS and serving-sized kernel calls, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cpd_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``cpd_large``   -- ``cp_als(variant="auto")`` sweeps on a skewed 1M-nnz tensor;
* ``calls_small`` -- the serving request path called in-process, one thread;
* ``serve_small`` -- the same request stream sent to ``repro serve``;
* ``cpd_ooc``     -- ``cp_als`` on the same tensor as a REPROBIN file
  under an out-of-core memory budget.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from a separate traced
run.  ``--workload all`` runs the four workloads one after another; its
JSON keys are ``<workload>.<metric>`` and its readable lines also give
the workload-specific names (``cpd_sweep_p50_s``, ``call_p50_us``, ...).
Lines before the last one record the host, the inputs and the
autotuner's choices next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

#: Every run must end within this many seconds.
RUN_LIMIT_S = 160.0

#: Workload-specific names of the end-to-end metrics:
#: (name, unit, generic metric, scale).
NAMED = {
    "cpd_large": [
        ("cpd_sweep_p50_s", "s", "op_p50_ms", 1e-3),
        ("cpd_sweep_tail_s", "s", "tail", 1e-3),
    ],
    "calls_small": [
        ("call_p50_us", "us", "op_p50_ms", 1e3),
        ("call_tail_us", "us", "tail", 1e3),
    ],
    "serve_small": [
        ("serve_rps", "1/s", "ops_per_s", 1.0),
        ("serve_p50_ms", "ms", "op_p50_ms", 1.0),
        ("serve_tail_ms", "ms", "tail", 1.0),
    ],
    "cpd_ooc": [
        ("ooc_sweep_p50_s", "s", "op_p50_ms", 1e-3),
        ("ooc_sweep_tail_s", "s", "tail", 1e-3),
    ],
}


def pinned_env(run_dir: Path, nproc: int) -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    Inherited ``REPRO_*`` settings are dropped and the ones that change
    behaviour are pinned, so a CI matrix cannot leak into a run; the JIT
    and tuning caches start empty inside the run directory, which also
    takes the temporary files of the compiler.
    """
    import workloads as wl

    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        PYTHONHASHSEED="0",
        REPRO_NUM_THREADS=str(nproc),
        OMP_NUM_THREADS=str(nproc),
        REPRO_JIT="1",
        REPRO_JIT_BUILD="release",
        REPRO_JIT_CACHE=str(run_dir / "jit"),
        REPRO_TUNE_CACHE=str(run_dir / "tune.json"),
        REPRO_OOC_BUDGET=wl.OOC_BUDGET,
        XDG_CACHE_HOME=str(run_dir / "xdg"),
        TMPDIR=str(run_dir / "tmp"),
    )
    return env


def host_facts(nproc: int) -> Dict[str, Any]:
    import numpy as np
    from repro.perf import machine_signature

    caches: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": nproc,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "machine_signature": machine_signature(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def host_speed_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Printed before and after each workload run: on a shared host the same
    code runs tens of percent slower for minutes at a time, and this reading
    shows whether a slow result came with a slow host."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2] * 1e3


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------


def write_inputs(workload: str, seed: int, run_dir: Path) -> tuple:
    """Generate the workload's seeded inputs into ``run_dir``; returns
    their facts and, for the CP-ALS workloads, the tensor arrays."""
    import numpy as np

    import workloads as wl

    if workload in ("cpd_large", "cpd_ooc"):
        shape, indices, values = wl.cpd_tensor(seed)
        # Nonzero-major raw files, so cpd_ooc can stream them in chunks.
        np.ascontiguousarray(indices.T).tofile(run_dir / "cpd_idx.i32")
        values.tofile(run_dir / "cpd_val.f32")
        (run_dir / "cpd_meta.json").write_text(json.dumps({"shape": list(shape)}))
        facts = {"tensor": wl.tensor_facts(shape, indices), "rank": wl.CPD_RANK}
        return facts, (shape, indices, values)
    tensors = wl.small_tensors(seed)
    arrays = {}
    facts = {}
    for name, x in tensors.items():
        arrays[f"{name}_shape"] = np.asarray(x.shape)
        arrays[f"{name}_indices"] = x.indices
        arrays[f"{name}_values"] = x.values
        facts[name] = wl.tensor_facts(x.shape, x.indices)
    np.savez(run_dir / "small.npz", **arrays)
    stream = wl.request_stream(seed)
    (run_dir / "stream.json").write_text(json.dumps(stream))
    kinds: Dict[str, int] = {}
    for request in stream:
        kinds[request["kernel"]] = kinds.get(request["kernel"], 0) + 1
    facts = {
        "tensors": facts,
        "stream_length": len(stream),
        "kernel_mix": kinds,
        "distinct_signatures": len({wl.signature(r) for r in stream}),
    }
    return facts, None


def cpd_ooc_reference(tensor, seed: int, fits: List[float], nproc: int) -> List[bool]:
    """The first sweeps of in-RAM COO ``cp_als`` with the same seed; each
    out-of-core fit must agree within tolerance."""
    import workloads as wl
    from repro.apps.cpd import cp_als
    from repro.formats.coo import CooTensor

    x = CooTensor(*tensor, validate=False)
    init = None
    verdicts = []
    for fit in fits[:3]:
        res = cp_als(
            x, wl.CPD_RANK, num_threads=nproc, tolerance=0.0, max_sweeps=1,
            seed=seed, initial_factors=init,
        )
        init = [res.factors[0] * res.weights] + list(res.factors[1:])
        verdicts.append(abs(res.fits[-1] - fit) <= 1e-4)
    return verdicts


# ---------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------


def run_worker(workload: str, run_dir: Path, seconds: float, trace: int, seed: int, env, deadline: float) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(run_dir), str(seconds), str(trace), str(seed)]
    # Own process group, so a timeout also stops a server the worker started.
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload}: worker exceeded the run time limit")
    if code != 0:
        raise RuntimeError(f"{workload}: worker exited with code {code}")
    return json.loads((run_dir / "worker.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> Dict[str, Any]:
    import stats

    nproc = len(os.sched_getaffinity(0))
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = pinned_env(run_dir, nproc)
    try:
        facts, tensor = write_inputs(workload, seed, run_dir)
        worker = run_worker(workload, run_dir, seconds, trace, seed, env, deadline)
        if trace:
            shutil.copy(run_dir / "trace.jsonl", OUT / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, errors = worker["attempted"], worker["failed"], list(worker["errors"])
    if workload == "cpd_ooc":
        for i, ok in enumerate(cpd_ooc_reference(tensor, seed, worker["fits"], nproc)):
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"out-of-core fit of sweep {i} differs from in-RAM COO cp_als")
    samples = worker["samples_s"]
    e2e = {
        "setup_s": stats.median(worker["setup_s"]),
        "peak_rss_mib": worker["peak_rss_mib"],
        "op_p50_ms": stats.median(samples) * 1e3,
        "ops_per_s": len(samples) / worker["elapsed_s"],
    }
    tail = stats.tail(samples)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "facts": facts,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "e2e": e2e,
        "tail": None if tail is None else {"value_ms": tail[0] * 1e3, "percentile": tail[1], "samples": tail[2]},
        "setup_samples_s": worker["setup_s"],
        "tuned_configs": worker["tuned_configs"],
        "layers": worker["layers"],
        "self_time_s": worker.get("self_time_s"),
    }


def named_metrics(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The workload's end-to-end numbers under their workload-specific names."""
    out = {}
    for name, unit, generic, scale in NAMED[result["workload"]]:
        if generic == "tail":
            if result["tail"] is None:
                continue
            out[name] = {
                "value": result["tail"]["value_ms"] * scale,
                "unit": unit,
                "percentile": result["tail"]["percentile"],
                "samples": result["tail"]["samples"],
            }
        else:
            out[name] = {"value": result["e2e"][generic] * scale, "unit": unit}
    return out


def report(result: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable record; return the contract's metrics."""
    w = result["workload"]
    print(f"== {w} seed {result['seed']} trace {result['trace']}: "
          f"attempted {result['attempted']} failed {result['failed']}")
    for error in result["errors"]:
        print(f"   error: {error}")
    print("   inputs: " + json.dumps(result["facts"], sort_keys=True))
    print("   tuned configs per set-up: " + json.dumps(result["tuned_configs"]))
    print("   host speed (ms per fixed Python loop) before, after: "
          + ", ".join(f"{v:.2f}" for v in result["host_speed_ms"]))
    metrics: Dict[str, Dict[str, Any]] = {}
    if not result["trace"]:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": result["e2e"][m["name"]], "unit": m["unit"]}
        print("   setup samples (s): " + ", ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
        for name, value in named_metrics(result).items():
            extra = f" (p{value['percentile']:.2f} of {value['samples']})" if "samples" in value else ""
            print(f"   {name} = {value['value']:.6g} {value['unit']}{extra}")
        if result["tail"] is None:
            print("   tail: ten samples or fewer, no percentile has ten beyond it")
        return metrics
    absent = []
    for m in spec["per_layer"]:
        value = result["layers"].get(m["name"])
        if value is None:
            absent.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if absent:
        print("   not on this workload's path (reported as 0): " + ", ".join(absent))
    own = result["self_time_s"] or {}
    total = sum(own.values()) or 1.0
    print("   self time by span (s, share of all span time):")
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"     {name:<24} {seconds:10.4f}  {seconds / total:6.1%}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; use one of {wl.WORKLOADS} or all", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    # The parent imports the program too (input generation, host facts,
    # the out-of-core reference): pin its environment the same way.
    env = pinned_env(OUT / "parent", nproc)
    os.environ.clear()
    os.environ.update(env)
    print("host: " + json.dumps(host_facts(nproc), sort_keys=True))

    results = []
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        limit = RUN_LIMIT_S if args.workload != "all" else RUN_LIMIT_S * len(names)
        before = host_speed_ms()
        result = run_workload(name, args.seed, args.seconds, args.trace, started + limit)
        result["host_speed_ms"] = [before, host_speed_ms()]
        results.append(result)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in report(result, spec).items():
            metrics[prefix + metric] = value
        record = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps(result, indent=1, sort_keys=True))
    shutil.rmtree(OUT / "parent", ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "all":
        for r in results:
            print(f"{r['workload']}: failed {r['failed']} of {r['attempted']} attempted")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
