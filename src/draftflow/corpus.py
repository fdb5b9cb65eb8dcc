"""Synthetic story corpus, slot layout, and draft corruption.

Stories come from a probabilistic template grammar: two prompt sentences
introduce an actor and an object, two continuation sentences reuse them, so
the continuation is statistically predictable from the prompt. Tokenization
is whitespace word-level; a few compound nouns split into two pieces to
stand in for subword behavior.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_open
from .tensor import rng_for

log = logging.getLogger(__name__)

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class Vocabulary:
    """Ordered token list with reserved ids 0-3 and exact round-trip lookup."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:4]) != RESERVED:
            raise ValueError(f"first four tokens must be {RESERVED}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = list(tokens)
        self._ids = {t: i for i, t in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self._ids.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def encode(self, text: str) -> list[int]:
        return [self.lookup(w) for w in text.split()]

    def decode(self, ids) -> str:
        return " ".join(self.tokens[int(i)] for i in ids)

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        extra = sorted(set(words) - set(RESERVED))
        return cls(list(RESERVED) + extra)


@dataclass
class TokenSequence:
    """Fixed-width id array plus a real-token mask (true = real, false = pad)."""

    ids: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.ids.shape != self.mask.shape:
            raise ValueError("ids and mask must have the same shape")

    @classmethod
    def from_tokens(cls, token_ids: list[int], width: int) -> "TokenSequence":
        if len(token_ids) > width:
            raise ValueError(f"{len(token_ids)} tokens exceed {width} slots")
        ids = np.full(width, PAD, dtype=np.int64)
        mask = np.zeros(width, dtype=bool)
        ids[:len(token_ids)] = token_ids
        mask[:len(token_ids)] = True
        return cls(ids, mask)

    def real_ids(self) -> list[int]:
        return [int(i) for i in self.ids[self.mask]]

    def n_real(self) -> int:
        return int(self.mask.sum())

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class StoryExample:
    """One prompt/continuation pair, held as padded slot regions."""

    prompt: TokenSequence
    target: TokenSequence
    raw_text: tuple[str, str]


@dataclass(frozen=True)
class CorruptionSpec:
    p_drop: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError(f"p_drop must be in [0,1], got {self.p_drop}")


# -- grammar ----------------------------------------------------------------

_WORDS = {
    "entity": ["mira", "tomas", "lena", "arun", "priya", "noor", "felix",
               "ida", "omar", "sana", "teo", "vera", "yusuf", "zoe",
               "bruno", "calla"],
    "object": ["lantern", "kite", "boat", "ladder", "basket", "map",
               "violin", "kettle", "telescope", "umbrella", "wagon",
               "compass", "blanket", "drum", "mirror", "bell"],
    "compound": ["clock work", "thunder storm", "water mill", "honey comb",
                 "wind chime", "fire fly"],
    "verb_find": ["found", "carried", "borrowed", "repaired", "painted",
                  "hid", "traded", "polished"],
    "verb_go": ["walked", "hurried", "wandered", "climbed", "rowed",
                "marched", "drifted", "tiptoed"],
    "place": ["market", "harbor", "orchard", "meadow", "attic", "library",
              "bridge", "garden", "lighthouse", "workshop", "cellar",
              "courtyard"],
    "modifier": ["old", "small", "bright", "dusty", "quiet", "crooked",
                 "shiny", "heavy"],
    "time": ["morning", "evening", "noon", "dusk", "spring", "winter"],
}

# second-position pools avoid {obj} so a compound object can only lengthen
# one sentence per region; worst cases then fit the 16-slot budgets exactly
_PROMPT_TEMPLATES = [
    ("p1", "{e} {vf} a {obj} in the {place} {punct}"),
    ("p2", "{e} {vf} a {mod} {obj} {punct}"),
    ("p3", "one {time} {e} {vf} a {obj} {punct}"),
]
_PROMPT2_TEMPLATES = [
    ("q1", "{e2} {vg} to the {place2} {punct}"),
    ("q2", "then {e2} {vg} there too {punct}"),
    ("q3", "{e2} saw it and smiled {punct}"),
]
_CONT_TEMPLATES = [
    ("c1", "{e} took the {obj} to the {place2} {punct}"),
    ("c2", "later {e} showed {e2} the {obj} {punct}"),
    ("c3", "{e} kept the {mod} {obj} safe {punct}"),
]
_CONT2_TEMPLATES = [
    ("d1", "{e2} thanked {e} warmly {punct}"),
    ("d2", "they sang near the {place2} {punct}"),
    ("d3", "everyone admired it that {time} {punct}"),
]

# placeholder -> (word list key, reuse earlier binding?)
_SLOT_RULES = {
    "e": ("entity", True), "e2": ("entity", True),
    "obj": ("object", True), "mod": ("modifier", True),
    "vf": ("verb_find", False), "vg": ("verb_go", False),
    "place": ("place", True), "place2": ("place", True),
    "time": ("time", True),
}

_PUNCT = [".", "!", "?"]
_PUNCT_P = [0.6, 0.25, 0.15]
_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


@dataclass
class GrammarConfig:
    """Template grammar: word pools plus sentence templates per position."""

    words: dict = field(default_factory=lambda: {k: list(v) for k, v in _WORDS.items()})
    prompt_templates: list = field(default_factory=lambda: list(_PROMPT_TEMPLATES))
    prompt2_templates: list = field(default_factory=lambda: list(_PROMPT2_TEMPLATES))
    cont_templates: list = field(default_factory=lambda: list(_CONT_TEMPLATES))
    cont2_templates: list = field(default_factory=lambda: list(_CONT2_TEMPLATES))
    compound_rate: float = 0.1
    max_prompt_tokens: int = 16
    max_target_tokens: int = 16
    append_eos: bool = True

    def vocabulary(self) -> Vocabulary:
        words: set[str] = set(_PUNCT)
        for pool in self.words.values():
            for w in pool:
                words.update(w.split())
        for pool in (self.prompt_templates, self.prompt2_templates,
                     self.cont_templates, self.cont2_templates):
            for _, tpl in pool:
                words.update(w for w in _PLACEHOLDER_RE.sub("", tpl).split())
        vocab = Vocabulary.from_words(words)
        if vocab.size > 512:
            raise ValueError(f"grammar vocabulary {vocab.size} exceeds 512")
        return vocab


def _fill(tag_tpl, bindings: dict, words: dict, rng, compound_rate: float) -> list[str]:
    tag, tpl = tag_tpl
    out: list[str] = []
    for piece in tpl.split():
        m = _PLACEHOLDER_RE.fullmatch(piece)
        if m is None:
            out.append(piece)
            continue
        slot = m.group(1)
        if slot == "punct":
            out.append(_PUNCT[rng.choice(len(_PUNCT), p=_PUNCT_P)])
            continue
        pool_key, reuse = _SLOT_RULES[slot]
        if reuse and slot in bindings:
            word = bindings[slot]
        else:
            if pool_key == "object" and rng.random() < compound_rate:
                pool = words["compound"]
            else:
                pool = words[pool_key]
            word = pool[rng.choice(len(pool))]
            if reuse:
                bindings[slot] = word
        out.extend(word.split())
    return out


def _one_story(grammar: GrammarConfig, rng) -> tuple[list[str], list[str], str]:
    bindings: dict = {}
    # distinct second actor keeps "they"/"showed" sentences coherent
    s1 = _fill(grammar.prompt_templates[rng.choice(len(grammar.prompt_templates))],
               bindings, grammar.words, rng, grammar.compound_rate)
    others = [e for e in grammar.words["entity"] if e != bindings.get("e")]
    bindings["e2"] = others[rng.choice(len(others))]
    s2 = _fill(grammar.prompt2_templates[rng.choice(len(grammar.prompt2_templates))],
               bindings, grammar.words, rng, grammar.compound_rate)
    c1_t = grammar.cont_templates[rng.choice(len(grammar.cont_templates))]
    c1 = _fill(c1_t, bindings, grammar.words, rng, grammar.compound_rate)
    c2_t = grammar.cont2_templates[rng.choice(len(grammar.cont2_templates))]
    c2 = _fill(c2_t, bindings, grammar.words, rng, grammar.compound_rate)
    return s1 + s2, c1 + c2, f"{c1_t[0]}+{c2_t[0]}"


def _template_worst_case(tag_tpl, grammar: GrammarConfig) -> int:
    """Most tokens the template can emit, counting multi-piece pool words."""
    _, tpl = tag_tpl
    total = 0
    for piece in tpl.split():
        m = _PLACEHOLDER_RE.fullmatch(piece)
        if m is None or m.group(1) == "punct":
            total += 1
            continue
        pool_key = _SLOT_RULES[m.group(1)][0]
        pools = [grammar.words[pool_key]]
        if pool_key == "object" and grammar.compound_rate > 0:
            pools.append(grammar.words.get("compound", []))
        total += max(len(w.split()) for pool in pools for w in pool)
    return total


def _validate_budgets(grammar: GrammarConfig):
    for pool_a, pool_b, budget, region, extra in (
            (grammar.prompt_templates, grammar.prompt2_templates,
             grammar.max_prompt_tokens, "prompt", 0),
            (grammar.cont_templates, grammar.cont2_templates,
             grammar.max_target_tokens, "target",
             1 if grammar.append_eos else 0)):
        worst_a = max(pool_a, key=lambda t: _template_worst_case(t, grammar))
        worst_b = max(pool_b, key=lambda t: _template_worst_case(t, grammar))
        total = (_template_worst_case(worst_a, grammar)
                 + _template_worst_case(worst_b, grammar) + extra)
        if total > budget:
            raise ValueError(
                f"templates {worst_a[0]}+{worst_b[0]} can emit {total} "
                f"{region} tokens, over the {budget}-slot budget")


def generate_corpus(seed: int, count: int,
                    grammar: GrammarConfig | None = None) -> list[StoryExample]:
    """Deterministic corpus of `count` stories; pure in (seed, count, grammar)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    grammar = grammar or GrammarConfig()
    _validate_budgets(grammar)
    vocab = grammar.vocabulary()
    out = []
    for i in range(count):
        rng = rng_for(seed, i)
        prompt_words, target_words, tags = _one_story(grammar, rng)
        if len(prompt_words) > grammar.max_prompt_tokens:
            raise ValueError(
                f"templates {tags}: prompt length {len(prompt_words)} exceeds "
                f"{grammar.max_prompt_tokens} slots")
        target_ids = [vocab.lookup(w) for w in target_words]
        if grammar.append_eos:
            target_ids.append(EOS)
        if len(target_ids) > grammar.max_target_tokens:
            raise ValueError(
                f"templates {tags}: target length {len(target_ids)} exceeds "
                f"{grammar.max_target_tokens} slots")
        prompt_ids = [vocab.lookup(w) for w in prompt_words]
        out.append(StoryExample(
            prompt=TokenSequence.from_tokens(prompt_ids, grammar.max_prompt_tokens),
            target=TokenSequence.from_tokens(target_ids, grammar.max_target_tokens),
            raw_text=(" ".join(prompt_words), " ".join(target_words)),
        ))
    return out


# -- slot layout ------------------------------------------------------------


def pad_to_slots(example: StoryExample, m: int, n: int) -> TokenSequence:
    """Lay out one example into n slots: prompt at [0,m), target at [m,n)."""
    p = example.prompt.real_ids()
    t = example.target.real_ids()
    if len(p) > m:
        raise ValueError(f"prompt length {len(p)} exceeds {m} slots")
    if len(t) > n - m:
        raise ValueError(f"target length {len(t)} exceeds {n - m} slots")
    ids = np.full(n, PAD, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    ids[:len(p)] = p
    mask[:len(p)] = True
    ids[m:m + len(t)] = t
    mask[m:m + len(t)] = True
    return TokenSequence(ids, mask)


def corrupt_draft(target: TokenSequence, spec: CorruptionSpec) -> TokenSequence:
    """Drop each real token with probability p_drop, left-compact, re-pad."""
    width = len(target)
    real = target.real_ids()
    if spec.p_drop == 0.0:
        kept = real
    else:
        draws = rng_for(spec.seed).random(len(real)) if real else []
        kept = [tok for tok, u in zip(real, draws) if u >= spec.p_drop]
    return TokenSequence.from_tokens(kept, width)


# -- external ingestion -----------------------------------------------------


def ingest_text_corpus(path, vocab: Vocabulary, max_prompt_tokens: int = 16,
                       max_target_tokens: int = 16,
                       delimiter: str = "\t") -> tuple[list[StoryExample], int]:
    """Read tab-separated prompt/target lines; return (examples, n_skipped).

    Unknown words map to UNK; over-budget lines are skipped and counted. A
    line without the delimiter is an error naming the line number.
    """
    examples: list[StoryExample] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if delimiter not in line:
                raise ValueError(f"{path}: line {lineno} has no "
                                 f"prompt/target delimiter")
            prompt_text, target_text = line.split(delimiter, maxsplit=1)
            prompt_ids = vocab.encode(prompt_text)
            target_ids = vocab.encode(target_text)
            if (len(prompt_ids) > max_prompt_tokens
                    or len(target_ids) > max_target_tokens):
                skipped += 1
                continue
            examples.append(StoryExample(
                prompt=TokenSequence.from_tokens(prompt_ids, max_prompt_tokens),
                target=TokenSequence.from_tokens(target_ids, max_target_tokens),
                raw_text=(prompt_text, target_text),
            ))
    if skipped:
        log.warning("skipped %d over-budget lines in %s", skipped, path)
    return examples, skipped


def write_text_corpus(path, examples: list[StoryExample],
                      delimiter: str = "\t"):
    """Write one prompt/target pair per line, UTF-8, newline-terminated.

    The file is replaced atomically: an interrupted write leaves the previous
    file (or none), never a partial corpus.
    """
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            fh.write(f"{ex.raw_text[0]}{delimiter}{ex.raw_text[1]}\n")
