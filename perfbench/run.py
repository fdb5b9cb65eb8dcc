"""Benchmark of the draftflow package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. Workloads are `infer_serial`, `eval_reports` and `train_chain` (see
`workloads.py` and README.md). With `--trace 0` the run times the workload
untraced and reports the end-to-end metrics; with `--trace 1` it traces the
calls into each package module and reports the per-layer metrics, plus the
tracing overhead measured by re-running the same operations untraced.

Stdout carries an `env` line, one line per metric by name with its unit,
and as its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics` (name -> value and unit, the names listed in BENCHMARK.json).
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: at B=64 refine(16) it ran 0.73-0.80 s
# against 0.80-0.91 s with OpenBLAS's default of two threads on two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 5

# the end-to-end metrics of the JSON line (BENCHMARK.json gates these)
END_TO_END = ("setup_s", "peak_rss_mb", "op_ms", "ce")


def use_checkout_sources():
    """Import `draftflow` from this checkout's `src/`, or exit with an error."""
    if not (SRC / "draftflow" / "__init__.py").is_file():
        sys.exit(f"error: no draftflow sources under {SRC}; run from the "
                 "root of a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def blas_threads(np) -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, fixture) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"source_hash": fixture.source_hash(SRC / "draftflow"),
            "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(np),
            "blas_threads_pinned": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def ensure_fixture(fixture, ini: str) -> pathlib.Path:
    """Build the trained checkpoints in a child process if they are missing.

    A child keeps the build's memory out of this process's peak RSS.
    """
    path = fixture.cached(BUILD, SRC / "draftflow", ini)
    if path is None:
        subprocess.run([sys.executable, str(HERE / "fixture.py"), str(BUILD),
                        str(SRC / "draftflow"), ini], check=True)
        path = fixture.cached(BUILD, SRC / "draftflow", ini)
    return path


def run_ops(work, seconds: float, start: int, min_rounds: int,
            whole_rounds: bool, on_op=lambda i: None) -> tuple:
    """Run operations from index `start` until `seconds` would be exceeded.

    At least `min_rounds` rounds run. A new operation (or round) starts only
    if the mean so far says it ends in time. Returns (operations run, wall
    seconds).
    """
    unit = work.ops_per_round if whole_rounds else 1
    t0 = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - t0
        if n >= min_rounds * work.ops_per_round \
                and elapsed + elapsed / n * unit > seconds:
            break
        for _ in range(unit):
            on_op(start + n)
            work.run_op(start + n)
            n += 1
    return n, time.perf_counter() - t0


def measure(args, workload_cls, settings, fixture_dir, rundir) -> tuple:
    """Untraced run: median set-up time over SETUP_REPEATS, then timed ops."""
    setup_times = []
    for k in range(SETUP_REPEATS):
        work = workload_cls(settings, args.seed, fixture_dir)
        t0 = time.perf_counter()
        work.setup(rundir / f"setup{k}")
        setup_times.append(time.perf_counter() - t0)
    # two rounds at least, so every repeat check has a repeat to compare
    run_ops(work, args.seconds, 0, min_rounds=2, whole_rounds=False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(setup_times), "s",
                           f"median of {SETUP_REPEATS} set-ups"),
               "peak_rss_mb": (rss_mb, "MB", "this process"),
               "failed_share": (work.failed / max(work.attempted, 1), "share",
                                f"{work.failed} of {work.attempted}")}
    metrics.update(work.report())
    json_metrics = {name: metrics[name][:2] for name in END_TO_END}
    return work, metrics, json_metrics


def measure_traced(args, workload_cls, settings, fixture_dir, rundir,
                   tracing) -> tuple:
    """Traced run in whole rounds, then the same operations untraced.

    The traced rounds get half of `seconds`, the untraced repeat the rest;
    the repeat also gives the repeat checks their second round.
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work = workload_cls(settings, args.seed, fixture_dir)
        work.setup(rundir / "setup")
        ops, traced_s = run_ops(work, args.seconds / 2, 0, min_rounds=1,
                                whole_rounds=True,
                                on_op=lambda i: setattr(tracer, "op", i))
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    for i in range(ops, 2 * ops):
        work.run_op(i)
    untraced_s = time.perf_counter() - t0
    BUILD.mkdir(exist_ok=True)
    spans = BUILD / f"trace-{args.workload}.npz"
    tracer.save(spans)
    layer = tracer.metrics(ops, traced_s, untraced_s)
    notes = {"traced_ops": ops, "traced_s": traced_s,
             "untraced_s": untraced_s, "spans_file": str(spans)}
    return work, layer, notes


def main(argv=None, settings=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout_sources()
    import numpy as np

    import fixture
    import tracing
    import workloads

    if settings is None:
        settings = workloads.Settings()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload '{args.workload}' "
                 f"(choose from {', '.join(workloads.WORKLOADS)})")
    workload_cls = workloads.WORKLOADS[args.workload]
    fixture_dir = ensure_fixture(fixture, settings.fixture_ini) \
        if workload_cls.needs_fixture else None

    print("env", json.dumps(environment(np, fixture), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    rundir = BUILD / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        if args.trace:
            work, layer, notes = measure_traced(
                args, workload_cls, settings, fixture_dir, rundir, tracing)
            print("trace", json.dumps(notes))
            for name, (value, unit) in layer.items():
                print(f"layer {name} {value!r} {unit}")
            json_metrics = layer
        else:
            work, metrics, json_metrics = measure(
                args, workload_cls, settings, fixture_dir, rundir)
            for name, (value, unit, note) in metrics.items():
                print(f"metric {name} {value!r} {unit} ({note})")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for message in work.failures:
        print(f"failure {message}")
    # a metric with no sample (every call of a command failed) reads null
    values = {name: value if math.isfinite(value) else None
              for name, (value, _) in json_metrics.items()}
    result = {"correct": work.failed == 0 and None not in values.values(),
              "attempted": work.attempted, "failed": work.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, (_, unit) in json_metrics.items()}}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
