"""Corpus generation, slot layout, and corruption contracts."""

import collections

import numpy as np
import pytest

from draftflow import corpus as C


@pytest.fixture(scope="module")
def vocab():
    return C.GrammarConfig().vocabulary()


def test_vocabulary_reserved_and_roundtrip(vocab):
    assert [vocab.token_of(i) for i in range(4)] == list(C.RESERVED)
    for i in range(vocab.size):
        assert vocab.lookup(vocab.token_of(i)) == i
    assert vocab.lookup("definitely-not-a-token") == C.UNK
    assert vocab.size <= 512
    text = "mira found a lantern in the market ."
    assert vocab.decode(vocab.encode(text)) == text


def test_vocabulary_rejects_bad_reserved():
    with pytest.raises(ValueError):
        C.Vocabulary(["<pad>", "<bos>", "<eos>", "a"])
    with pytest.raises(ValueError):
        C.Vocabulary(list(C.RESERVED) + ["x", "x"])


def test_generate_corpus_deterministic():
    a = C.generate_corpus(seed=1337, count=3)
    b = C.generate_corpus(seed=1337, count=3)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.prompt.ids, eb.prompt.ids)
        assert np.array_equal(ea.target.ids, eb.target.ids)
        assert ea.raw_text == eb.raw_text
    c = C.generate_corpus(seed=1338, count=3)
    assert any(not np.array_equal(ea.target.ids, ec.target.ids)
               for ea, ec in zip(a, c))


def test_generate_corpus_respects_budgets():
    grammar = C.GrammarConfig()
    examples = C.generate_corpus(seed=1337, count=2000, grammar=grammar)
    assert len(examples) == 2000
    for ex in examples:
        assert ex.prompt.n_real() <= grammar.max_prompt_tokens
        assert ex.target.n_real() <= grammar.max_target_tokens
        assert ex.target.real_ids()[-1] == C.EOS


def test_generate_corpus_unigram_spread():
    # independent frequency count over the emitted target regions
    examples = C.generate_corpus(seed=1337, count=2000)
    counts = collections.Counter()
    for ex in examples:
        counts.update(ex.target.real_ids())
    total = sum(counts.values())
    assert len(counts) >= 50
    top_id, top_n = counts.most_common(1)[0]
    assert top_n / total <= 0.15, f"token id {top_id} at {top_n / total:.3f}"


def test_generate_corpus_prompt_predicts_target():
    # continuation reuses prompt entities/objects, so word overlap is high
    examples = C.generate_corpus(seed=7, count=200)
    overlaps = []
    for ex in examples:
        p = set(ex.raw_text[0].split())
        t = set(ex.raw_text[1].split())
        content = {w for w in t if w not in {".", "!", "?", "the", "a"}}
        overlaps.append(len(p & content) / max(len(content), 1))
    assert float(np.mean(overlaps)) > 0.2


def test_generate_corpus_rejects_bad_count():
    with pytest.raises(ValueError):
        C.generate_corpus(seed=1, count=0)


def test_overlong_template_error_names_template():
    grammar = C.GrammarConfig()
    grammar.cont_templates = [
        ("huge", "{e} " + "very " * 20 + "happily kept the {obj} {punct}")]
    with pytest.raises(ValueError, match="huge"):
        C.generate_corpus(seed=1, count=1, grammar=grammar)


def test_pad_to_slots_layout(vocab):
    ids = vocab.encode("mira found a lantern .")
    ex = C.StoryExample(
        prompt=C.TokenSequence.from_tokens(ids, 16),
        target=C.TokenSequence.from_tokens(vocab.encode("mira smiled ."), 16),
        raw_text=("mira found a lantern .", "mira smiled ."))
    seq = C.pad_to_slots(ex, m=16, n=32)
    assert len(seq) == 32
    assert seq.mask[:5].all() and not seq.mask[5:16].any()
    assert seq.mask[16:19].all() and not seq.mask[19:].any()
    assert (seq.ids[5:16] == C.PAD).all()
    assert seq.ids[16:19].tolist() == vocab.encode("mira smiled .")


def test_pad_to_slots_empty_target(vocab):
    ex = C.StoryExample(
        prompt=C.TokenSequence.from_tokens(vocab.encode("mira smiled ."), 16),
        target=C.TokenSequence.from_tokens([], 16),
        raw_text=("mira smiled .", ""))
    seq = C.pad_to_slots(ex, 16, 32)
    assert not seq.mask[16:].any()
    assert (seq.ids[16:] == C.PAD).all()


def test_pad_to_slots_full_prompt_and_five_token_target(vocab):
    full = list(range(4, 20))
    ex = C.StoryExample(
        prompt=C.TokenSequence.from_tokens(full, 16),
        target=C.TokenSequence.from_tokens(list(range(4, 9)), 16),
        raw_text=("", ""))
    seq = C.pad_to_slots(ex, 16, 32)
    assert seq.mask[:16].all()
    assert int(seq.mask[16:].sum()) == 5


def test_pad_to_slots_overflow():
    ex = C.StoryExample(
        prompt=C.TokenSequence.from_tokens(list(range(4, 14)), 16),
        target=C.TokenSequence.from_tokens(list(range(4, 14)), 16),
        raw_text=("", ""))
    with pytest.raises(ValueError):
        C.pad_to_slots(ex, m=8, n=16)


def test_corrupt_draft_identity_and_full_drop():
    t = C.TokenSequence.from_tokens([5, 6, 7, 8], 16)
    same = C.corrupt_draft(t, C.CorruptionSpec(p_drop=0.0, seed=3))
    assert np.array_equal(same.ids, t.ids) and np.array_equal(same.mask, t.mask)
    empty = C.corrupt_draft(t, C.CorruptionSpec(p_drop=1.0, seed=3))
    assert empty.n_real() == 0
    assert (empty.ids == C.PAD).all()


def test_corrupt_draft_binomial_bound():
    # Binomial(10000, 0.95): mean 9500, sd sqrt(10000*0.95*0.05)
    t = C.TokenSequence.from_tokens([4] * 10000, 10000)
    kept = C.corrupt_draft(t, C.CorruptionSpec(p_drop=0.05, seed=11)).n_real()
    sd = (10000 * 0.95 * 0.05) ** 0.5
    assert 9500 - 3 * sd <= kept <= 9500 + 3 * sd


def test_corrupt_draft_subsequence_no_new_tokens():
    rng = np.random.default_rng(42)
    for trial in range(25):
        length = int(rng.integers(1, 16))
        toks = [int(x) for x in rng.integers(4, 90, size=length)]
        t = C.TokenSequence.from_tokens(toks, 16)
        p = float(rng.random())
        out = C.corrupt_draft(t, C.CorruptionSpec(p_drop=p, seed=trial))
        kept = out.real_ids()
        assert set(kept) <= set(toks)
        # left compaction preserves order: kept must be a subsequence
        it = iter(toks)
        assert all(any(tok == x for x in it) for tok in kept)
        assert out.mask[:len(kept)].all() and not out.mask[len(kept):].any()


def test_corrupt_draft_deterministic():
    t = C.TokenSequence.from_tokens(list(range(4, 16)), 16)
    a = C.corrupt_draft(t, C.CorruptionSpec(p_drop=0.5, seed=9))
    b = C.corrupt_draft(t, C.CorruptionSpec(p_drop=0.5, seed=9))
    assert np.array_equal(a.ids, b.ids)
    diff = [C.corrupt_draft(t, C.CorruptionSpec(p_drop=0.5, seed=s)).n_real()
            for s in range(20)]
    assert len(set(diff)) > 1


def test_corruption_spec_validates():
    with pytest.raises(ValueError):
        C.CorruptionSpec(p_drop=1.5, seed=0)


def test_ingest_basic(tmp_path, vocab):
    f = tmp_path / "corpus.txt"
    f.write_text("mira found a kite\tmira smiled .\n"
                 "weirdword sang\tthey sang .\n", encoding="utf-8")
    examples, skipped = C.ingest_text_corpus(f, vocab)
    assert skipped == 0
    assert examples[0].prompt.n_real() == 4
    assert examples[0].target.n_real() == 3
    assert examples[1].prompt.real_ids()[0] == C.UNK


def test_ingest_skips_over_budget(tmp_path, vocab):
    lines = []
    for i in range(100):
        if i % 14 == 0 and i < 98:  # 7 over-budget lines: 0,14,...,84
            lines.append(" ".join(["mira"] * 20) + "\tmira smiled .")
        else:
            lines.append("mira found a kite\tmira smiled .")
    f = tmp_path / "corpus.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    examples, skipped = C.ingest_text_corpus(f, vocab)
    assert skipped == 7
    assert len(examples) == 93


def test_ingest_malformed_line_reports_number(tmp_path, vocab):
    f = tmp_path / "corpus.txt"
    f.write_text("good prompt\tgood target\nno delimiter here\n",
                 encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        C.ingest_text_corpus(f, vocab)


def test_ingest_missing_file(tmp_path, vocab):
    with pytest.raises(OSError):
        C.ingest_text_corpus(tmp_path / "nope.txt", vocab)


def test_write_then_ingest_roundtrip(tmp_path, vocab):
    examples = C.generate_corpus(seed=5, count=20)
    f = tmp_path / "out.txt"
    C.write_text_corpus(f, examples)
    back, skipped = C.ingest_text_corpus(f, vocab)
    assert skipped == 0 and len(back) == 20
    for orig, re_read in zip(examples, back):
        assert re_read.prompt.real_ids() == orig.prompt.real_ids()
        # generated targets carry a final EOS that raw text does not
        assert re_read.target.real_ids() == orig.target.real_ids()[:-1]


def test_write_corpus_byte_identical(tmp_path):
    examples = C.generate_corpus(seed=5, count=50)
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    C.write_text_corpus(f1, examples)
    C.write_text_corpus(f2, C.generate_corpus(seed=5, count=50))
    assert f1.read_bytes() == f2.read_bytes()


def test_interrupted_corpus_write_leaves_previous_file(tmp_path):
    path = tmp_path / "corpus_train.tsv"
    C.write_text_corpus(path, C.generate_corpus(seed=5, count=20))
    before = path.read_bytes()
    # the eleventh entry is not an example: the write fails after 10 lines
    broken = C.generate_corpus(seed=6, count=20)
    broken.insert(10, None)
    with pytest.raises(AttributeError):
        C.write_text_corpus(path, broken)
    with pytest.raises(AttributeError):
        C.write_text_corpus(tmp_path / "fresh.tsv", broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus_train.tsv"]
