"""The three workloads: how each sets up, what one operation is, and the
correctness checks that decide whether an operation failed.

Every workload drives the package only through its public commands
(`pipeline.cmd_infer`, `pipeline.cmd_eval`, `pipeline.cmd_train`) and reads
back what those commands return or write, as a user of `draftflow` would.

- `infer_serial`: one operation is one `cmd_infer` request. Requests come
  from a pool generated from the workload seed and are sent one after the
  other (a closed loop with one client), cycling through the pool.
- `eval_reports`: one operation is one pass over the five reports, each a
  `cmd_eval` call that loads its own models.
- `train_chain`: one operation is one chain `train ae`, `train draftprior`,
  `train flow` (all four variants) in a fresh workdir.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

import fixture
from draftflow import corpus as C
from draftflow import diagnostics as D
from draftflow import draftprior as DP
from draftflow import pipeline as P
from draftflow import tensor as T
from draftflow.config import parse_floats, parse_ints, parse_names

# Defaults for every section the ini does not set: dims d=32 h=64 m=16 n=32
# and batch 64 in every training stage, as in a real run. Inference runs on
# the default config, as `draftflow infer` does.

EVAL_INI = """\
[run]
seed = {seed}
[corpus]
train_count = 520
val_count = 80
[eval]
sweep_examples = 8
dissociation_examples = 24
"""

TRAIN_INI = """\
[run]
seed = {seed}
[corpus]
train_count = 520
[stage1]
steps = 16
val_count = 200
[draftprior]
steps = 12
val_count = 4
[stage2]
steps = 3
val_count = 4
"""

# wall-clock columns that the reports mark as excluded from re-run equality
WALL_CLOCK_COLUMNS = ("latency_s", "tokens_per_s")


@dataclass
class Settings:
    """Input sizes; the self-test swaps in a miniature set."""

    fixture_ini: str = fixture.FIXTURE_INI
    eval_ini: str = EVAL_INI
    train_ini: str = TRAIN_INI
    pool: int = 128  # distinct infer requests per seed
    steps: int = 16  # Euler steps per infer request


class Workload:
    """One workload: `setup` once per workdir, then `run_op(i)` repeatedly.

    `attempted` and `failed` count calls into the package; a call that
    raises or fails a check counts as failed.
    """

    name = ""
    needs_fixture = False
    ops_per_round = 1

    def __init__(self, settings: Settings, seed: int, fixture_dir=None):
        self.settings = settings
        self.seed = seed
        self.fixture_dir = fixture_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        self.failures.append(message)

    def call(self, label: str, fn, *args):
        """Time one call into the package; (output or None, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # a failed call is counted, not fatal
            traceback.print_exc()
            self.fail(f"{label}: {type(e).__name__}: {e}")
            out = None
        return out, time.perf_counter() - t0

    def setup(self, workdir: pathlib.Path):
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def report(self) -> dict:
        """Metrics, `op_ms` and `ce` among them: name -> (value, unit, note)."""
        raise NotImplementedError


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values
               if isinstance(v, (int, float)) and not isinstance(v, bool))


def _median(samples: list) -> float:
    """Median, or NaN when every call failed and left no sample."""
    return statistics.median(samples) if samples else math.nan


def _geomean(values) -> float:
    """Geometric mean: a change by a factor r in any one of k values moves
    it by r ** (1 / k), whatever that value's share of the total."""
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values))


# -- infer_serial -----------------------------------------------------------


def request_pool(seed: int, size: int) -> list[dict]:
    """Seeded prompt/draft/reference triples.

    Drafts are the reference with tokens dropped at the DraftPrior training
    corruption grid, cycling through its levels; every 16th draft is empty.
    """
    grammar = C.GrammarConfig()
    vocab = grammar.vocabulary()
    grid = DP.DraftPriorTrainConfig().corruption_levels
    pool = []
    for j, ex in enumerate(C.generate_corpus(seed=seed, count=size)):
        level = float(grid[j % len(grid)])
        sub = int(T.rng_for(seed, j, 7).integers(0, 2**31))
        draft = C.corrupt_draft(ex.target, C.CorruptionSpec(level, sub))
        words = [t for t in draft.real_ids() if t != C.EOS]
        pool.append({"prompt": ex.raw_text[0],
                     "draft": "" if j % 16 == 15 else vocab.decode(words),
                     "reference": ex.raw_text[1]})
    return pool


class InferSerial(Workload):
    name = "infer_serial"
    needs_fixture = True

    def setup(self, workdir):
        fixture.install(self.fixture_dir, workdir)
        self.cfg = fixture.load_ini("", workdir, workdir / "bench.ini")
        self.vocab_size = C.GrammarConfig().vocabulary().size
        self.pool = request_pool(self.seed, self.settings.pool)
        self.ops_per_round = len(self.pool)
        self.latencies: list[float] = []
        self.first_tokens: dict[int, list] = {}
        self.ces: dict[int, float] = {}
        # warm-up: the first call pays one-off lazy costs (BLAS start-up)
        req = self.pool[0]
        P.cmd_infer(self.cfg, req["prompt"], req["draft"], self.settings.steps,
                    req["reference"])

    def run_op(self, i):
        j = i % len(self.pool)
        req = self.pool[j]
        out, dt = self.call(f"request {i}", P.cmd_infer, self.cfg,
                            req["prompt"], req["draft"], self.settings.steps,
                            req["reference"])
        if out is not None:
            self.latencies.append(dt)
            self.check(i, j, out)

    def check(self, i, j, out):
        probs = out["token_probs"]
        tokens = out["tokens"]
        rec = out["recoverability"]
        if not all(math.isfinite(p) and 0.0 < p <= 1.0 for p in probs):
            return self.fail(f"request {i}: probability outside (0, 1]")
        if not all(0 <= t < self.vocab_size for t in tokens):
            return self.fail(f"request {i}: token id outside the vocabulary")
        if rec is None or not _all_finite(rec.values()):
            return self.fail(f"request {i}: recoverability missing or "
                             "not finite")
        if j in self.first_tokens:
            if tokens != self.first_tokens[j]:
                self.fail(f"request {i}: repeat of request {j} decoded "
                          "different tokens")
        else:
            self.first_tokens[j] = tokens
            self.ces[j] = rec["ce"]

    def report(self):
        n = len(self.latencies)
        p50 = 1e3 * _median(self.latencies)
        p95 = 1e3 * float(np.percentile(self.latencies, 95)) if n else math.nan
        beyond = sum(1 for x in self.latencies if 1e3 * x > p95)
        # NaN when every request failed its checks
        ce = statistics.fmean(self.ces.values()) if self.ces else math.nan
        return {
            "op_ms": (p50, "ms", "median request latency"),
            "latency_p50_ms": (p50, "ms", f"n={n}"),
            "latency_p95_ms": (p95, "ms", f"n={n}, {beyond} beyond"),
            "ce": (ce, "nats", f"mean over {len(self.ces)} distinct requests"),
        }


# -- eval_reports -----------------------------------------------------------


class EvalReports(Workload):
    name = "eval_reports"
    needs_fixture = True

    def setup(self, workdir):
        fixture.install(self.fixture_dir, workdir)
        self.cfg = fixture.load_ini(
            self.settings.eval_ini.format(seed=self.seed), workdir,
            workdir / "bench.ini")
        self.workdir = workdir
        ev = self.cfg["eval"]
        self.expected_rows = {
            "corruption_curve": len(parse_floats(ev["corruption_levels"])),
            "stage2_matrix": 2 + len(parse_names(
                self.cfg["stage2"]["variants"])),
            "interpolation": len(D.DEFAULT_INTERP_ALPHAS),
            "sweep": len(parse_ints(ev["sweep_steps"])),
            "dissociation": min(ev["dissociation_examples"],
                                self.cfg["corpus"]["val_count"]),
        }
        self.seconds = {r: [] for r in P.REPORTS}
        self.first_rows: dict[str, list] = {}
        self.fused_ce = None
        # warm-up with the cheapest report: the first call pays one-off costs
        P.cmd_eval("corruption_curve", self.cfg)

    def run_op(self, i):
        for report in P.REPORTS:
            out, dt = self.call(f"pass {i} {report}", P.cmd_eval, report,
                                self.cfg)
            if out is not None:
                self.seconds[report].append(dt)
                self.check(i, report)

    def check(self, i, report):
        path = self.workdir / f"report_{report}.json"
        rows = json.loads(path.read_text())["rows"]
        if len(rows) != self.expected_rows[report]:
            return self.fail(f"pass {i} {report}: {len(rows)} rows, "
                             f"expected {self.expected_rows[report]}")
        if not all(_all_finite(row.values()) for row in rows):
            return self.fail(f"pass {i} {report}: non-finite cell")
        stable = [{k: v for k, v in row.items() if k not in WALL_CLOCK_COLUMNS}
                  for row in rows]
        if report not in self.first_rows:
            self.first_rows[report] = stable
            if report == "stage2_matrix":
                self.fused_ce = next(r["ce"] for r in rows
                                     if r["variant"] == "fused")
        elif stable != self.first_rows[report]:
            self.fail(f"pass {i} {report}: rows differ from the first pass")

    def report(self):
        medians = {r: _median(v) for r, v in self.seconds.items()}
        out = {"op_ms": (1e3 * _geomean(medians.values()), "ms",
                         "geometric mean over the five reports of the "
                         "median call time")}
        for r, v in self.seconds.items():
            out[f"{r}_s"] = (medians[r], "s", f"median of {len(v)}")
        ce = math.nan if self.fused_ce is None else self.fused_ce
        out["ce"] = (ce, "nats", "fused row of stage2_matrix")
        return out


# -- train_chain ------------------------------------------------------------


def _log_values(path: pathlib.Path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(v) for row in csv.DictReader(fh)
                for k, v in row.items() if k != "step"]


class TrainChain(Workload):
    name = "train_chain"

    def setup(self, workdir):
        self.root = workdir
        self.cfg = fixture.load_ini(
            self.settings.train_ini.format(seed=self.seed), workdir / "w0",
            workdir / "bench.ini")
        P.cmd_generate_corpus(self.cfg)
        self.seconds = {s: [] for s in P.STAGES}
        self.first_hashes: dict[str, object] = {}
        self.first_ce = None
        # training examples per call: steps x batch (x variants for flow)
        c = self.cfg
        self.examples = {
            "ae": c["stage1"]["batch_size"] * c["stage1"]["steps"],
            "draftprior": c["draftprior"]["batch_size"]
            * c["draftprior"]["steps"],
            "flow": c["stage2"]["batch_size"] * c["stage2"]["steps"]
            * len(parse_names(c["stage2"]["variants"]))}

    def run_op(self, i):
        # each chain starts in a fresh workdir; w0 already holds the corpus
        self.cfg.sections["paths"]["workdir"] = str(self.root / f"w{i}")
        for stage in P.STAGES:
            out, dt = self.call(f"chain {i} {stage}", P.cmd_train, stage,
                                self.cfg)
            if out is None:
                return  # later stages need this one's checkpoint
            self.seconds[stage].append(dt)
            self.check(i, stage, out)

    def check(self, i, stage, out):
        wd = pathlib.Path(self.cfg.workdir)
        logs = {"ae": ["stage1_log.csv"],
                "draftprior": ["draftprior_log.csv"],
                "flow": [f"stage2_{v}_log.csv" for v in parse_names(
                    self.cfg["stage2"]["variants"])]}[stage]
        values = [v for name in logs for v in _log_values(wd / name)]
        if not values or not _all_finite(values):
            return self.fail(f"chain {i} {stage}: missing or non-finite loss")
        digest = out["hash"] if stage != "flow" else out["hashes"]
        if stage not in self.first_hashes:
            self.first_hashes[stage] = digest
            if stage == "ae":
                with open(wd / "stage1_log.csv", newline="") as fh:
                    self.first_ce = float(list(csv.DictReader(fh))[-1]
                                          ["val_loss"])
        elif digest != self.first_hashes[stage]:
            self.fail(f"chain {i} {stage}: checkpoint hash differs from the "
                      "first chain")

    def report(self):
        medians = {s: _median(v) for s, v in self.seconds.items()}
        out = {"op_ms": (1e3 * _geomean(medians.values()), "ms",
                         "geometric mean over the three stages of the "
                         "median call time")}
        for s, v in self.seconds.items():
            out[f"train_{s}_s"] = (medians[s], "s", f"median of {len(v)}")
        examples = sum(self.examples[s] * len(v)
                       for s, v in self.seconds.items())
        seconds = sum(sum(v) for v in self.seconds.values())
        out["examples_per_s"] = (examples / seconds if seconds else math.nan,
                                 "1/s", "sum of steps x batch over train "
                                 "seconds")
        ce = math.nan if self.first_ce is None else self.first_ce
        out["ce"] = (ce, "nats", "final stage-1 validation CE")
        return out


WORKLOADS = {w.name: w for w in (InferSerial, EvalReports, TrainChain)}
