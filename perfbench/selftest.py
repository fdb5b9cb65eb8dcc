"""Fast self-test of the benchmark at miniature sizes; no timing bounds.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on models the size of the
acceptance test's MINI_INI config, then checks that:

- the JSON line names exactly the metrics of BENCHMARK.json, with its units;
- the metric lines name every workload metric of README.md with its unit;
- the exact per-layer counts repeat between two traced runs;
- a deliberately corrupted output is counted as failed, for each workload;
- when every call of one command raises, the run still prints its result
  line, marked not correct;
- without the package sources the benchmark exits non-zero and prints no
  result.

Exits 0 and prints `selftest ok`, or stops at the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import run

run.use_checkout_sources()

import workloads  # noqa: E402
from draftflow import pipeline as P  # noqa: E402

# the acceptance test's MINI_INI sizes: d=8, h=16, short stages
MINI_TRAIN = """\
[run]
seed = {seed}
[dims]
d = 8
h = 16
[corpus]
train_count = 520
val_count = 24
[stage1]
steps = 30
batch_size = 32
val_count = 24
[draftprior]
steps = 20
batch_size = 32
val_count = 24
[stage2]
steps = 4
batch_size = 16
val_count = 24
eval_steps = 4
[eval]
dissociation_examples = 6
sweep_examples = 3
sweep_steps = 0,1,2
"""

MINI = workloads.Settings(
    fixture_ini=MINI_TRAIN.format(seed=77),
    eval_ini=MINI_TRAIN,
    train_ini=MINI_TRAIN.replace("steps = 30", "steps = 3")
    .replace("steps = 20", "steps = 2").replace("steps = 4\n", "steps = 1\n"),
    pool=4, steps=4)

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share"}
WORKLOAD_METRICS = {
    "infer_serial": {"latency_p50_ms": "ms", "latency_p95_ms": "ms",
                     "ce": "nats"},
    "eval_reports": {"corruption_curve_s": "s", "stage2_matrix_s": "s",
                     "interpolation_s": "s", "sweep_s": "s",
                     "dissociation_s": "s", "ce": "nats"},
    "train_chain": {"train_ae_s": "s", "train_draftprior_s": "s",
                    "train_flow_s": "s", "examples_per_s": "1/s"},
}
EXACT_COUNTS = ("tensor.tensors_per_op", "flowfield.FlowNet.calls",
                "alignment.sinkhorn_cost.iters",
                "diagnostics.dissociation_probe.steps")


def check(condition: bool, message: str):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """One in-process run: (JSON result, metric lines name -> unit)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0.1", "--trace", str(trace)], MINI)
    lines = out.getvalue().splitlines()
    check(json.loads(lines[-1]) == result,
          f"{workload}: last stdout line is not the result")
    units = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split(" ")[:4]
            units[name] = unit
    return result, units


@contextlib.contextmanager
def corrupted(name: str, wrap):
    """Swap `pipeline.<name>` for a version whose output is corrupted."""
    original = getattr(P, name)
    setattr(P, name, wrap(original))
    try:
        yield
    finally:
        setattr(P, name, original)


def nan_probability(cmd_infer):
    calls = []

    def corrupt(*args, **kwargs):
        out = cmd_infer(*args, **kwargs)
        calls.append(1)
        if len(calls) == run.SETUP_REPEATS + 2:  # after the warm-ups
            out["token_probs"][0] = float("nan")
        return out
    return corrupt


def dropped_row(cmd_eval):
    def corrupt(report, cfg):
        out = cmd_eval(report, cfg)
        path = pathlib.Path(out["json"])
        doc = json.loads(path.read_text())
        doc["rows"] = doc["rows"][1:]
        path.write_text(json.dumps(doc))
        return out
    return corrupt


def changed_hash(cmd_train):
    calls = []

    def corrupt(stage, cfg):
        out = cmd_train(stage, cfg)
        calls.append(stage)
        if calls.count("ae") == 2 and stage == "ae":  # the second chain only
            out["hash"] = "0" * 64
        return out
    return corrupt


def raising(target: str):
    """A command that raises on every call for `target` (report or stage)."""
    def wrap(cmd):
        def broken(first, cfg):
            if first == target:
                raise RuntimeError(f"deliberately broken {target}")
            return cmd(first, cfg)
        return broken
    return wrap


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOAD_METRICS),
          "BENCHMARK.json workloads differ from the benchmark's")

    for workload, expected in WORKLOAD_METRICS.items():
        result, units = bench(workload, 0)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: failed on correct code")
        check({k: v["unit"] for k, v in result["metrics"].items()} == e2e,
              f"{workload}: end-to-end names or units differ from "
              "BENCHMARK.json")
        for name, unit in {**COMMON, **expected}.items():
            check(units.get(name) == unit,
                  f"{workload}: metric line {name} [{unit}] missing")
        traced = [bench(workload, 1)[0] for _ in range(2)]
        for t in traced:
            check({k: v["unit"] for k, v in t["metrics"].items()} == layer,
                  f"{workload}: per-layer names or units differ from "
                  "BENCHMARK.json")
        for name in EXACT_COUNTS:
            check(traced[0]["metrics"][name] == traced[1]["metrics"][name],
                  f"{workload}: {name} differs between two traced runs")
        print(f"{workload}: names, units and exact counts ok")

    for workload, name, wrap in (("infer_serial", "cmd_infer", nan_probability),
                                 ("eval_reports", "cmd_eval", dropped_row),
                                 ("train_chain", "cmd_train", changed_hash)):
        with corrupted(name, wrap):
            result, _ = bench(workload, 0)
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: a corrupted {name} output was not counted")
        print(f"{workload}: corrupted output counted, "
              f"{result['failed']} of {result['attempted']} failed")

    # every call of one command fails: still a result line, with no value
    for workload, name, target in (("eval_reports", "cmd_eval", "sweep"),
                                   ("train_chain", "cmd_train", "ae")):
        with corrupted(name, raising(target)):
            result, _ = bench(workload, 0)
        check(result["failed"] > 0 and not result["correct"]
              and result["metrics"]["op_ms"]["value"] is None,
              f"{workload}: every {target} call raising was not reported")
        print(f"{workload}: every {target} call raising reported, "
              f"{result['failed']} of {result['attempted']} failed")

    run.BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, pathlib.Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "infer_serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              "without sources the benchmark did not fail cleanly")
    print("no sources: exits", proc.returncode, "without a result")
    print("selftest ok")


if __name__ == "__main__":
    main()
