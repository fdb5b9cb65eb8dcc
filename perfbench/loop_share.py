"""Share of each `train_chain` stage call spent inside its optimizer loop.

    python3 perfbench/loop_share.py [--seed N] [--chains K]

Runs the `train_chain` workload's chain (its own settings, untraced) and
prints, per stage, the wall seconds of each `cmd_train` call and the share
of it spent inside the step loop: backward, AdamW, clipping, the per-step
forward and draft corruption. The rest is the per-command tail: corpus
generation, checkpoint loads and saves, the whole-corpus encode before the
loop and the held-out reports after it.

The loop runs from the first `nn.AdamW` the call creates to the next
`ParamStore.freeze` (per variant for `flow`). Stage 1 validates on its
held-out set inside the loop; those no-grad `loss_array` calls count as
tail.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import time

import run

run.use_checkout_sources()

import fixture  # noqa: E402
import workloads  # noqa: E402
from draftflow import autoencoder as A  # noqa: E402
from draftflow import nn  # noqa: E402
from draftflow import pipeline as P  # noqa: E402


class LoopClock:
    """Wraps AdamW creation, ParamStore.freeze and stage-1 validation."""

    def __init__(self, val_rows: int):
        self.val_rows = val_rows
        self.reset()

    def reset(self):
        self.start = None
        self.loop_s = 0.0

    def install(self):
        clock = self
        init, freeze, loss = (nn.AdamW.__init__, nn.ParamStore.freeze,
                              A.Autoencoder.loss_array)

        def adamw_init(opt, *args, **kwargs):
            if clock.start is None:
                clock.start = time.perf_counter()
            init(opt, *args, **kwargs)

        def store_freeze(store, *args, **kwargs):
            if clock.start is not None:
                clock.loop_s += time.perf_counter() - clock.start
                clock.start = None
            return freeze(store, *args, **kwargs)

        def loss_array(model, ids, mask):
            t0 = time.perf_counter()
            out = loss(model, ids, mask)
            if ids.shape[0] == clock.val_rows:  # a validation pass
                clock.loop_s -= time.perf_counter() - t0
            return out

        nn.AdamW.__init__ = adamw_init
        nn.ParamStore.freeze = store_freeze
        A.Autoencoder.loss_array = loss_array


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--chains", type=int, default=2)
    args = ap.parse_args()

    root = run.BUILD / "loop-share"
    shutil.rmtree(root, ignore_errors=True)
    cfg = fixture.load_ini(workloads.TRAIN_INI.format(seed=args.seed),
                           root / "w0", root / "bench.ini")
    P.cmd_generate_corpus(cfg)
    clock = LoopClock(cfg["stage1"]["val_count"])
    clock.install()
    calls = {stage: [] for stage in P.STAGES}
    try:
        for i in range(args.chains):
            # a fresh workdir per chain, as the workload does
            cfg.sections["paths"]["workdir"] = str(root / f"w{i}")
            for stage in P.STAGES:
                clock.reset()
                t0 = time.perf_counter()
                P.cmd_train(stage, cfg)
                calls[stage].append((time.perf_counter() - t0, clock.loop_s))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for stage, rows in calls.items():
        walls = ", ".join(f"{w:.2f}" for w, _ in rows)
        shares = [loop / wall for wall, loop in rows]
        print(f"{stage:10s} wall_s [{walls}]  loop_share "
              f"{statistics.median(shares):.2f} "
              f"(min {min(shares):.2f}, max {max(shares):.2f})")


if __name__ == "__main__":
    main()
