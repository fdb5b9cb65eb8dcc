"""Shared trained-model fixtures.

Training is deterministic, so fixtures cache trained weights under .cache/
keyed by a hash of the package sources: any code change invalidates the
cache and retrains. Wall-clock training time is recorded alongside so
budget assertions always refer to a real measured run.
"""

import hashlib
import pathlib
import time

import numpy as np
import pytest

from draftflow import autoencoder as AE
from draftflow import corpus as C
from draftflow import draftprior as DP
from draftflow import nn

ROOT = pathlib.Path(__file__).resolve().parents[1]
CACHE = ROOT / ".cache"
_SRC = ROOT / "src" / "draftflow"

SEED = 1337
STAGE1_STEPS = 600
PRIOR_STEPS = 1800


def source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted(_SRC.glob("*.py")):
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _cache_path(name: str) -> pathlib.Path:
    return CACHE / f"{name}-{source_hash()}.npz"


def cached_arrays(name: str, build):
    """Return (arrays, seconds) for a deterministic training closure."""
    CACHE.mkdir(exist_ok=True)
    path = _cache_path(name)
    if path.exists():
        data = np.load(path)
        arrays = {k: data[k] for k in data.files if k != "__seconds"}
        return arrays, float(data["__seconds"])
    t0 = time.perf_counter()
    arrays = build()
    secs = time.perf_counter() - t0
    np.savez(path, __seconds=np.float64(secs), **arrays)
    return arrays, secs


@pytest.fixture(scope="session")
def grammar():
    return C.GrammarConfig()


@pytest.fixture(scope="session")
def vocab(grammar):
    return grammar.vocabulary()


@pytest.fixture(scope="session")
def corpus_full():
    return C.generate_corpus(seed=SEED, count=2200)


@pytest.fixture(scope="session")
def val_examples(corpus_full):
    return corpus_full[-200:]


def _stage1_fixture(d: int, vocab, corpus):
    cfg = AE.AEConfig(vocab_size=vocab.size, d=d, seed=SEED)

    def build():
        model, _ = AE.train_stage1(
            corpus, cfg, AE.StageOneTrainConfig(steps=STAGE1_STEPS, seed=SEED))
        return model.store.state_arrays()

    arrays, secs = cached_arrays(f"stage1-d{d}", build)
    with nn.loading(arrays):
        model = AE.Autoencoder(cfg)
    model.freeze()
    return model, secs


@pytest.fixture(scope="session")
def ae32(vocab, corpus_full):
    model, secs = _stage1_fixture(32, vocab, corpus_full)
    model.train_seconds = secs
    return model


@pytest.fixture(scope="session")
def ae8(vocab, corpus_full):
    model, secs = _stage1_fixture(8, vocab, corpus_full)
    model.train_seconds = secs
    return model


def _prior_fixture(ae, corpus, name):
    cfg = DP.DraftPriorConfig(d=ae.config.d, m=ae.config.m, n=ae.config.n)

    def build():
        prior, _, _ = DP.train_draftprior(
            ae, corpus, cfg, DP.DraftPriorTrainConfig(steps=PRIOR_STEPS, seed=SEED))
        return prior.store.state_arrays()

    arrays, secs = cached_arrays(name, build)
    with nn.loading(arrays):
        prior = DP.DraftPrior(cfg)
    prior.store.freeze()
    prior.train_seconds = secs
    return prior


@pytest.fixture(scope="session")
def prior32(ae32, corpus_full):
    return _prior_fixture(ae32, corpus_full, "prior32")


@pytest.fixture(scope="session")
def prior8(ae8, corpus_full):
    return _prior_fixture(ae8, corpus_full, "prior8")


STAGE2_STEPS = 300


@pytest.fixture(scope="session")
def stage2(ae32, prior32, corpus_full):
    """All four trained refinement bundles plus wall-clock seconds."""
    from draftflow import flowfield as FF

    cfg = FF.Stage2Config(steps=STAGE2_STEPS, seed=SEED)
    bundles = {}
    seconds = {}
    # the variants left to train share one start path; it is built inside
    # the first build, so its cost lands in that variant's recorded seconds
    readers = sum(not _cache_path(f"stage2-{v}").exists()
                  for v in FF.VARIANTS)
    shared = []
    for variant in FF.VARIANTS:
        def build(variant=variant):
            if not shared:
                shared.append(FF.StartBatches(ae32, prior32, corpus_full, cfg,
                                              readers=readers))
            bundle = FF.train_stage2(ae32, prior32, corpus_full, variant, cfg,
                                     shared[0])
            return bundle.state_arrays()

        arrays, secs = cached_arrays(f"stage2-{variant}", build)
        c = ae32.config
        with nn.loading(arrays):
            bundle = FF.make_bundle(variant, c.d, c.m, c.n, c.vocab_size, cfg)
        for s in bundle.stores():
            s.freeze()
        bundles[variant] = bundle
        seconds[variant] = secs
    return bundles, seconds


@pytest.fixture(scope="session")
def stage2_rows(ae32, prior32, stage2, val_examples):
    from draftflow import flowfield as FF

    bundles, _ = stage2
    cfg = FF.Stage2Config(steps=STAGE2_STEPS, seed=SEED)
    return FF.stage2_report(ae32, prior32,
                            [bundles[v] for v in FF.VARIANTS],
                            val_examples, cfg)
