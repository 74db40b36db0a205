#!/usr/bin/env python3
"""Benchmark of csskit's selection paths, run from the root of a checkout.

    python3 perfbench/run.py --workload select-css-774 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One run builds the workload's inputs from ``--seed`` (several times, to
time set-up), runs one untimed round under ``tracemalloc`` for peak
memory, then repeats whole rounds for ``--seconds`` and checks the
outputs with numpy alone.  The last line on stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (the
same rounds with span-recording wrappers installed).  ``--workload all``
runs every workload in its own process and prints them all.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails before printing a result.
"""

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, "perfbench", "work")
sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402
from perfbench.reference import CheckFailed  # noqa: E402
from perfbench.workloads import WORKLOADS, Context  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_mib": "MiB",
    "avg_r2": "1",
    "cc_sum": "1",
    "planted_overlap": "variables",
}

LAYER_EXTRAS = {
    "traced.run_s": "s",
    "symmat.pinv_remove.fallback_ratio": "1",
    "symmat.residual_add.gbps_computed": "GB/s",
    "search.swap.positions": "count",
    "search.swap.kept_ratio": "1",
    "sizesel.mc_quantile_subset_factor.hit_ratio": "1",
    "sizesel.choose_k.k_steps": "count",
    "covest.read_data_csv.mb_per_s": "MB/s",
}

PER_LAYER = {}
for _fn in tracing.FUNCTIONS:
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
PER_LAYER.update(LAYER_EXTRAS)

# Set-up is repeated at least this often, and until it has taken this long.
SETUP_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 2000


def import_csskit():
    """Import csskit from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "csskit", "__init__.py")):
        raise SystemExit(f"perfbench: no csskit sources under {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("csskit")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: csskit imported from {pkg.__file__}, not {src}")
    importlib.import_module("csskit.cli")
    return pkg


def blas_threads() -> str:
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine(csskit) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "csskit_workers": csskit.search.resolve_threads(),
        "python": sys.version.split()[0],
    }


def _signature(obj):
    """Comparable digest of one round's outputs (timings left out)."""
    import numpy as np

    if isinstance(obj, dict):
        return tuple((k, _signature(v)) for k, v in sorted(obj.items()) if k != "manifest")
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if hasattr(obj, "records"):
        return (obj.chosen_k, tuple(obj.chosen_subset), tuple((r.k, r.statistic, r.critical_value) for r in obj.records))
    if hasattr(obj, "subset") and hasattr(obj, "objective"):
        return (tuple(obj.subset), obj.objective, tuple(obj.trajectory))
    return obj


class Round:
    """Runs the operations of one round and counts the counted ones."""

    def __init__(self, wl, ctx, inputs):
        self.wl, self.ctx = wl, ctx
        self.ops = wl.ops(ctx, inputs)
        self.attempted = 0
        self.failed = 0

    def __call__(self, limit=None, count: bool = True) -> dict:
        if self.wl.before_round is not None:
            self.wl.before_round(self.ctx)
        out = {}
        for label, op in self.ops[:limit]:
            self.attempted += count
            try:
                out[label] = op()
            except Exception:  # a failing operation is counted, not fatal
                self.failed += count
                out[label] = None
                traceback.print_exc(file=sys.stderr)
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    csskit = import_csskit()
    wl = WORKLOADS[name]
    os.makedirs(WORKDIR, exist_ok=True)
    ctx = Context(csskit=csskit, seed=seed, cfg=wl.sizes[size], workdir=WORKDIR)

    setup_times = []
    while len(setup_times) < SETUP_MAX_REPS and (
        len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S
    ):
        t0 = time.perf_counter()
        inputs = wl.setup(ctx)
        setup_times.append(time.perf_counter() - t0)

    rnd = Round(wl, ctx, inputs)

    # peak memory: one untimed, uncounted round, which also warms up the process
    gc.collect()
    tracemalloc.start()
    rnd(limit=wl.memory_ops, count=False)
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracer = tracing.Tracer(csskit) if trace else None
    if tracer:
        tracer.install()
    times, outputs = [], []
    try:
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            outputs.append(rnd())
            times.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()

    # checks run on the first round in which no operation failed; every
    # later such round must reproduce it
    complete = [out for out in outputs if None not in out.values()]
    correct = True
    quality = {}
    try:
        if complete:
            quality = wl.check(ctx, inputs, complete[0])
            ref = _signature(complete[0])
            if any(_signature(out) != ref for out in complete[1:]):
                raise CheckFailed("a round's outputs differ from the first round's")
    except CheckFailed as exc:
        correct = False
        print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)

    if trace:
        values = tracer.summary(len(outputs))
        values["traced.run_s"] = statistics.median(times)
        if wl.layer_extras is not None:
            values.update(wl.layer_extras(ctx, inputs, complete, tracer))
        metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}
        tracer.dump(os.path.join(WORKDIR, f"{name}.trace.json"))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(times),
            "peak_mib": peak_bytes / 2**20,
            **quality,
        }
        metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in END_TO_END.items()}

    result = {"correct": correct, "attempted": rnd.attempted, "failed": rnd.failed, "metrics": metrics}
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "cfg": ctx.cfg,
        "machine": machine(csskit),
        "setup_times": setup_times,
        "round_times": times,
        "result": result,
    }
    with open(os.path.join(WORKDIR, f"{name}.{'trace' if trace else 'time'}.result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return result


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed ``workload/metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
            total["metrics"][f"{name}/{metric}"] = v
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="input sizes; 'tiny' is for the self-tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
