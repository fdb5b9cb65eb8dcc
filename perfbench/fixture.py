"""Trained checkpoints that the infer and eval workloads read.

The models are trained once per checkout through the public `draftflow`
commands and cached under `.bench_build/`, keyed by the package source hash
and the training settings. A change under `src/` therefore retrains them,
the same way the test fixtures under `.cache/` are rebuilt.

The training settings are short (minutes, not the default half hour) but
real: every stage runs its own optimizer loop, so the models decode their
training grammar well above chance and the dissociation probe stops early,
as it does on fully trained models.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import time

FIXTURE_INI = """\
[run]
seed = 1337
[corpus]
train_count = 2000
val_count = 200
[stage1]
steps = 200
[draftprior]
steps = 120
[stage2]
steps = 20
"""

CHECKPOINTS = ("ae.ckpt", "draftprior.ckpt", "flow_raw.ckpt", "flow_fused.ckpt",
               "flow_metric_ot.ckpt", "flow_residual.ckpt")


def source_hash(src_dir: pathlib.Path) -> str:
    """SHA-256 over the package sources, computed as `tests/conftest.py` does."""
    h = hashlib.sha256()
    for p in sorted(src_dir.glob("*.py")):
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def load_ini(text: str, workdir: pathlib.Path, path: pathlib.Path):
    """Write `text` to `path` and load it as a RunConfig rooted at `workdir`."""
    from draftflow import config as CFG

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    cfg = CFG.load_config(path)
    cfg.sections["paths"]["workdir"] = str(workdir)
    return cfg


def _path(build_root: pathlib.Path, src_dir: pathlib.Path,
          ini: str) -> pathlib.Path:
    key = hashlib.sha256(ini.encode()).hexdigest()[:8]
    return build_root / f"fixture-{source_hash(src_dir)}-{key}"


def cached(build_root: pathlib.Path, src_dir: pathlib.Path,
           ini: str = FIXTURE_INI) -> pathlib.Path | None:
    """The directory holding the built checkpoints, or None if not built."""
    path = _path(build_root, src_dir, ini)
    return path if all((path / n).exists() for n in CHECKPOINTS) else None


def build(build_root: pathlib.Path, src_dir: pathlib.Path,
          ini: str = FIXTURE_INI) -> float:
    """Train the checkpoints; returns the build's wall seconds.

    The build works in a private directory renamed into place when complete,
    so an interrupted build never leaves a directory that looks finished.
    """
    from draftflow import pipeline as P

    final = _path(build_root, src_dir, ini)
    build_root.mkdir(parents=True, exist_ok=True)
    tmp = build_root / f"{final.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    t0 = time.perf_counter()
    cfg = load_ini(ini, tmp, tmp / "fixture.ini")
    P.cmd_generate_corpus(cfg)
    for stage in P.STAGES:
        P.cmd_train(stage, cfg)
    seconds = time.perf_counter() - t0
    try:
        os.replace(tmp, final)
    except OSError:
        # another run finished the same build first; keep its copy
        shutil.rmtree(tmp, ignore_errors=True)
    return seconds


def install(fixture: pathlib.Path, workdir: pathlib.Path) -> None:
    """Copy the trained checkpoints into a fresh workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in CHECKPOINTS:
        shutil.copyfile(fixture / name, workdir / name)


if __name__ == "__main__":
    # python3 fixture.py BUILD_ROOT SRC_DIR INI_TEXT (run.py starts this)
    import sys

    build_root, src_dir, ini = sys.argv[1:4]
    sys.path.insert(0, str(pathlib.Path(src_dir).parent))
    secs = build(pathlib.Path(build_root), pathlib.Path(src_dir), ini)
    print(f"fixture built in {secs:.1f} s", file=sys.stderr)
