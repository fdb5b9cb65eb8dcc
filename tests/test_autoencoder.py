"""Stage-1 autoencoder contracts and the frozen oracle."""

import numpy as np
import pytest

from draftflow import autoencoder as AE
from draftflow import corpus as C
from draftflow import tensor as T
from draftflow.gradcheck import grad_check


def _tiny_config(vocab_size=24, d=8):
    return AE.AEConfig(vocab_size=vocab_size, d=d, h=16, m=4, n=8,
                       n_heads=4, seed=3)


def _tiny_corpus(count=520, seed=0):
    # short synthetic pairs straight from ids; grammar templates are too long
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p = [int(x) for x in rng.integers(4, 24, size=int(rng.integers(1, 5)))]
        t = [int(x) for x in rng.integers(4, 24, size=int(rng.integers(1, 5)))]
        out.append(C.StoryExample(
            prompt=C.TokenSequence.from_tokens(p, 4),
            target=C.TokenSequence.from_tokens(t, 4),
            raw_text=("", "")))
    return out


def _one_row(seed=2):
    return C.pad_to_slots(C.generate_corpus(seed=seed, count=1)[0], 16, 32).ids


def test_encode_deterministic_and_shapes(vocab):
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    ids = _one_row()[None]
    za = model.encode_array(ids).data
    zb = model.encode_array(ids).data
    assert za.shape == (1, 32, 32)
    assert np.array_equal(za, zb)


def test_encode_all_pad_is_finite(vocab):
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    z = model.encode_array(np.zeros((1, 32), dtype=np.int64))
    assert np.isfinite(z.data).all()


def test_encoder_is_contextual(vocab):
    # one suffix token change must reach prompt-region latents
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    base = C.pad_to_slots(C.generate_corpus(seed=2, count=1)[0], 16, 32)
    changed_ids = base.ids.copy()
    changed_ids[20] = (changed_ids[20] + 1) % vocab.size or 4
    za = model.encode_array(base.ids[None]).data[0]
    zb = model.encode_array(changed_ids[None]).data[0]
    assert np.abs(za[:16] - zb[:16]).max() > 1e-6


def test_latents_are_slot_normalized(vocab, ae32):
    ids, mask = AE.batchify(C.generate_corpus(seed=2, count=4), 16, 32)
    z = ae32.encode_array(ids).data
    assert np.abs(z.mean(axis=-1)).max() < 1e-5
    assert np.abs((z * z).mean(axis=-1) - 1.0).max() < 1e-3


def test_decode_logits_rows_normalize(vocab, ae32):
    logits = ae32.decode_array(ae32.encode_array(_one_row()[None]).data)
    probs = T.softmax(logits, axis=-1).data
    assert np.abs(probs.sum(axis=-1, dtype=np.float64) - 1.0).max() < 1e-6


def test_decode_shape_checks(vocab):
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    for shape in ((1, 32, 16), (1, 16, 32)):
        with pytest.raises(ValueError):
            model.decode_array(np.zeros(shape, dtype=np.float32))


def test_zeroed_head_gives_bias_softmax(vocab):
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    model.head.w.data[:] = 0.0
    b = np.linspace(-1, 1, vocab.size).astype(np.float32)
    model.head.b.data[:] = b
    logits = model.decode_array(model.encode_array(_one_row()[None]).data)
    expect = np.exp(b - b.max()) / np.exp(b - b.max()).sum()
    probs = T.softmax(logits, axis=-1).data
    assert np.abs(probs - expect).max() < 1e-6


def test_ae_loss_uniform_baseline(vocab):
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    model.head.w.data[:] = 0.0
    model.head.b.data[:] = 0.0
    seq = C.pad_to_slots(C.generate_corpus(seed=2, count=1)[0], 16, 32)
    loss = model.loss_array(seq.ids[None], seq.mask[None])
    assert abs(float(loss.data) - np.log(vocab.size)) < 1e-5


def test_ae_loss_requires_real_positions(vocab):
    model = AE.Autoencoder(AE.AEConfig(vocab_size=vocab.size))
    with pytest.raises(ValueError):
        model.loss_array(np.zeros((1, 32), dtype=np.int64),
                         np.zeros((1, 32), dtype=bool))


def test_ae_loss_gradcheck_small_instance():
    model = AE.Autoencoder(_tiny_config())
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 24, size=(2, 8))
    mask = np.ones((2, 8), dtype=bool)
    mask[0, 6:] = False

    def loss_fn(params):
        return model.loss_array(ids, mask)

    err = grad_check(loss_fn, model.store, eps=1e-3, max_entries_per_param=4)
    assert err < 1e-4, f"relative error {err:.3e}"


def test_train_stage1_rerun_identical():
    corpus = _tiny_corpus()
    cfg = _tiny_config()
    tc = AE.StageOneTrainConfig(steps=30, batch_size=16, val_count=20, seed=11)
    _, h1 = AE.train_stage1(corpus, cfg, tc)
    _, h2 = AE.train_stage1(corpus, cfg, tc)
    assert h1[-1]["val_loss"] == pytest.approx(h2[-1]["val_loss"], abs=1e-6)
    assert h1[-1]["train_loss"] == pytest.approx(h2[-1]["train_loss"], abs=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_stage1_divergence_raises():
    corpus = _tiny_corpus()
    cfg = _tiny_config()
    tc = AE.StageOneTrainConfig(steps=200, batch_size=16, val_count=20,
                                lr=1e6, grad_clip=1e9, seed=11)
    with pytest.raises(AE.DivergenceError) as err:
        AE.train_stage1(corpus, cfg, tc)
    assert err.value.step >= 0


def test_train_stage1_input_validation():
    cfg = _tiny_config()
    with pytest.raises(ValueError):
        AE.train_stage1(_tiny_corpus(count=100), cfg)
    with pytest.raises(ValueError):
        AE.train_stage1(_tiny_corpus(count=520), cfg,
                        AE.StageOneTrainConfig(val_count=520))


def test_stage1_oracle_gates(ae32, val_examples):
    rep = AE.oracle_eval(ae32, val_examples)
    assert rep.ce <= 0.3
    assert rep.p_target >= 0.9
    assert rep.top1 >= 0.9


def test_stage1_frozen_after_training(ae32):
    assert ae32.frozen
    assert all(not t.requires_grad for t in ae32.store.tensors())
    before = ae32.checksum()
    _ = AE.oracle_eval(ae32, C.generate_corpus(seed=9, count=8))
    assert ae32.checksum() == before


def test_compressed_baseline_worse_oracle(ae32, ae8, val_examples):
    r32 = AE.oracle_eval(ae32, val_examples)
    r8 = AE.oracle_eval(ae8, val_examples)
    assert r8.ce > r32.ce
    assert r8.p_target < r32.p_target
