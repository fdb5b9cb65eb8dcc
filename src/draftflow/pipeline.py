"""End-to-end commands: corpus files, staged training, reports, inference.

Each command reads a RunConfig, works inside its workdir, and emits
artifacts with full provenance (config hash, seeds, checkpoint hashes).
Reports land as CSV with a commented provenance header plus a JSON mirror.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
import time

import numpy as np

from . import checkpoint as CK
from . import corpus as C
from . import diagnostics as D
from . import draftprior as DP
from . import flowfield as FF
from . import nn
from .autoencoder import AEConfig, Autoencoder, StageOneTrainConfig, \
    batchify, train_stage1
from .config import ConfigError, RunConfig, parse_floats, parse_ints, \
    parse_names
from .corpus import EOS
from .tensor import no_grad

MAUVE_NOTE = ("MAUVE omitted: it needs an external embedding model; "
              "this column is intentionally absent")
LATENCY_NOTE = ("latency_s and tokens_per_s are wall-clock measurements and "
                "are excluded from reproducibility comparisons")

REPORTS = ("corruption_curve", "stage2_matrix", "interpolation", "sweep",
           "dissociation")
STAGES = ("ae", "draftprior", "flow")
INFER_STAGES = ("load", "start", "refine", "decode")


class MissingPrerequisite(RuntimeError):
    pass


def _workdir(cfg: RunConfig) -> pathlib.Path:
    path = pathlib.Path(cfg.workdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _grammar_vocab():
    grammar = C.GrammarConfig()
    return grammar, grammar.vocabulary()


def _train_corpus(cfg: RunConfig) -> tuple[list, int]:
    """Training examples and the count of over-budget source lines skipped
    (0 for a generated corpus)."""
    source = cfg["corpus"]["source"]
    seed = cfg["run"]["seed"]
    if source:
        path = pathlib.Path(source)
        if not path.exists():
            raise ConfigError(f"corpus source not found: {path}")
        _, vocab = _grammar_vocab()
        return C.ingest_text_corpus(
            path, vocab, max_prompt_tokens=cfg["dims"]["m"],
            max_target_tokens=cfg["dims"]["n"] - cfg["dims"]["m"])
    return C.generate_corpus(seed=seed, count=cfg["corpus"]["train_count"]), 0


def _val_corpus(cfg: RunConfig, train: list | None = None) -> list:
    """Validation examples: the last `val_count` of an external source's
    examples (`train`, when the caller has already ingested them), else a
    generated corpus."""
    source = cfg["corpus"]["source"]
    if source:
        if train is None:
            train, _ = _train_corpus(cfg)
        return train[-cfg["corpus"]["val_count"]:]
    # disjoint seed stream from the training corpus
    return C.generate_corpus(seed=cfg["run"]["seed"] + 1,
                             count=cfg["corpus"]["val_count"])


def cmd_generate_corpus(cfg: RunConfig) -> dict:
    """Write train/val prompt-target files; byte-identical per config.

    `skipped_lines` counts the over-budget lines of an external source.
    """
    wd = _workdir(cfg)
    train, skipped = _train_corpus(cfg)
    val = _val_corpus(cfg, train)
    train_path = wd / "corpus_train.tsv"
    val_path = wd / "corpus_val.tsv"
    C.write_text_corpus(train_path, train)
    C.write_text_corpus(val_path, val)
    return {"train_path": str(train_path), "val_path": str(val_path),
            "train_count": len(train), "val_count": len(val),
            "skipped_lines": skipped}


# -- checkpoint plumbing -----------------------------------------------------


def _ckpt_path(cfg: RunConfig, stage: str, variant: str | None = None):
    name = f"flow_{variant}.ckpt" if stage == "flow" else f"{stage}.ckpt"
    return _workdir(cfg) / name


def _checkpoint(cfg: RunConfig, stage: str,
                variant: str | None = None) -> CK.Checkpoint:
    """Load a prerequisite checkpoint and check its stage tag."""
    path = _ckpt_path(cfg, stage, variant)
    if not path.exists():
        label = f"{stage}/{variant}" if variant else stage
        raise MissingPrerequisite(
            f"stage '{label}' checkpoint missing: {path} "
            f"(run `draftflow train ...` first)")
    ck = CK.load_checkpoint(path)
    if ck.stage != stage:
        raise CK.CheckpointError(f"{path}: stage tag '{ck.stage}' != '{stage}'")
    return ck


def _check_variants(cfg: RunConfig):
    """Reject an unknown `[stage2] variants` or `[eval] report_variant` name
    before any model work: no training run can write its checkpoint."""
    for section, key in (("stage2", "variants"), ("eval", "report_variant")):
        for name in parse_names(cfg[section][key]):
            if name not in FF.VARIANTS:
                raise ConfigError(f"[{section}] {key}: unknown variant "
                                  f"'{name}' (choose from {FF.VARIANTS})")


def _dims_snapshot(cfg: RunConfig, vocab) -> dict:
    return {**cfg["dims"], "vocab_size": vocab.size,
            "seed": cfg["run"]["seed"]}


def _section_config(cls, cfg: RunConfig, section: str, **extra):
    """`cls` built from the fields it shares with `[section]`, plus the run
    seed and any `extra` fields."""
    values = cfg[section]
    shared = {f.name: values[f.name] for f in dataclasses.fields(cls)
              if f.name in values}
    return cls(**shared, seed=cfg["run"]["seed"], **extra)


def _build(cfg: RunConfig, stage: str, build, variant: str | None = None):
    """Load a prerequisite checkpoint and run `build(snapshot)` with its
    parameters taken from the checkpoint (`nn.loading`)."""
    ck = _checkpoint(cfg, stage, variant)
    try:
        with nn.loading(ck.arrays):
            return build(ck.config)
    except nn.ParamMismatch as e:
        path = _ckpt_path(cfg, stage, variant)
        raise CK.CheckpointError(
            f"{path}: tensor set does not match the architecture: {e}") \
            from None


def _load_ae(cfg: RunConfig) -> Autoencoder:
    model = _build(cfg, "ae", lambda snap: Autoencoder(AEConfig(**snap)))
    model.freeze()
    return model


def _load_prior(cfg: RunConfig) -> DP.DraftPrior:
    prior = _build(cfg, "draftprior", lambda snap: DP.DraftPrior(
        DP.DraftPriorConfig(d=snap["d"], m=snap["m"], n=snap["n"],
                            alpha=snap["alpha"],
                            sample_alpha=snap["sample_alpha"])))
    prior.store.freeze()
    return prior


# [stage2] values that fix a trained bundle's forward map; the flow
# checkpoint records them and refuses a config that contradicts them
FLOW_FIXED = ("gamma", "lambda_res")


def _load_bundle(cfg: RunConfig, variant: str) -> FF.Stage2Bundle:
    s2cfg = _section_config(FF.Stage2Config, cfg, "stage2")
    path = _ckpt_path(cfg, "flow", variant)

    def build(snap):
        for key in FLOW_FIXED:
            if key not in snap:
                raise CK.CheckpointError(
                    f"{path}: snapshot lacks [stage2] {key}; retrain the "
                    "flow stage")
            if snap[key] != getattr(s2cfg, key):
                raise CK.CheckpointError(
                    f"{path}: trained with [stage2] {key} = {snap[key]}, "
                    f"config has {getattr(s2cfg, key)}")
        return FF.make_bundle(snap["variant"], snap["d"], snap["m"],
                              snap["n"], snap["vocab_size"], s2cfg)

    bundle = _build(cfg, "flow", build, variant)
    for s in bundle.stores():
        s.freeze()
    return bundle


def _write_csv(path, columns: list, rows: list, comments=()):
    """`# ` comment lines, a header and the rows; replaces `path` atomically."""
    with CK.atomic_open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in columns})


# -- training ----------------------------------------------------------------


def cmd_train(stage: str, cfg: RunConfig) -> dict:
    """Train one stage; later stages require earlier checkpoints."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage '{stage}' (choose from {STAGES})")
    _check_variants(cfg)
    wd = _workdir(cfg)
    _, vocab = _grammar_vocab()
    t0 = time.perf_counter()

    def write_log(name: str, rows: list):
        if rows:  # a zero-step run logs nothing
            _write_csv(wd / name, list(rows[0]), rows)

    if stage == "ae":
        corpus, _ = _train_corpus(cfg)
        model, history = train_stage1(
            corpus,
            _section_config(AEConfig, cfg, "dims", vocab_size=vocab.size),
            _section_config(StageOneTrainConfig, cfg, "stage1"))
        path = _ckpt_path(cfg, "ae")
        digest = CK.save_checkpoint(path, "ae", model.store.state_arrays(),
                                    _dims_snapshot(cfg, vocab))
        write_log("stage1_log.csv", history)
        return {"stage": "ae", "checkpoint": str(path), "hash": digest,
                "seconds": time.perf_counter() - t0}

    if stage == "draftprior":
        ae = _load_ae(cfg)
        corpus, _ = _train_corpus(cfg)
        s = cfg["draftprior"]
        prior, history, curve = DP.train_draftprior(
            ae, corpus,
            DP.DraftPriorConfig(d=ae.config.d, m=ae.config.m, n=ae.config.n,
                                alpha=s["alpha"],
                                sample_alpha=s["sample_alpha"]),
            _section_config(DP.DraftPriorTrainConfig, cfg, "draftprior"))
        path = _ckpt_path(cfg, "draftprior")
        snap = {**_dims_snapshot(cfg, vocab), "alpha": s["alpha"],
                "sample_alpha": s["sample_alpha"]}
        digest = CK.save_checkpoint(path, "draftprior",
                                    prior.store.state_arrays(), snap)
        write_log("draftprior_log.csv", history)
        _write_csv(wd / "draftprior_curve.csv", DP.CURVE_COLUMNS, curve)
        return {"stage": "draftprior", "checkpoint": str(path),
                "hash": digest, "seconds": time.perf_counter() - t0}

    ae = _load_ae(cfg)
    prior = _load_prior(cfg)
    corpus, _ = _train_corpus(cfg)
    s2cfg = _section_config(FF.Stage2Config, cfg, "stage2")
    out = {"stage": "flow", "checkpoints": {}, "hashes": {}}
    variants = parse_names(cfg["stage2"]["variants"])
    # every variant trains from the same start path: compute it once
    starts = FF.StartBatches(ae, prior, corpus, s2cfg, readers=len(variants)) \
        if variants else None
    for variant in variants:
        bundle = FF.train_stage2(ae, prior, corpus, variant, s2cfg, starts)
        path = _ckpt_path(cfg, "flow", variant)
        snap = {**_dims_snapshot(cfg, vocab), "variant": variant,
                **{key: getattr(s2cfg, key) for key in FLOW_FIXED}}
        digest = CK.save_checkpoint(path, "flow", bundle.state_arrays(), snap)
        write_log(f"stage2_{variant}_log.csv", bundle.history)
        out["checkpoints"][variant] = str(path)
        out["hashes"][variant] = digest
    out["seconds"] = time.perf_counter() - t0
    return out


# -- reports -----------------------------------------------------------------


def _provenance(cfg: RunConfig, ckpt_stages: list) -> dict:
    hashes = {}
    for entry in ckpt_stages:
        stage, variant = entry if isinstance(entry, tuple) else (entry, None)
        path = _ckpt_path(cfg, stage, variant)
        key = f"{stage}_{variant}" if variant else stage
        hashes[key] = CK.file_sha256(path)
    return {"config_hash": cfg.hash(), "seed": cfg["run"]["seed"],
            "checkpoint_hashes": hashes,
            "notes": [MAUVE_NOTE, LATENCY_NOTE]}


def _write_report(cfg: RunConfig, name: str, columns: list, rows: list,
                  provenance: dict) -> dict:
    wd = _workdir(cfg)
    csv_path = wd / f"report_{name}.csv"
    json_path = wd / f"report_{name}.json"
    comments = [f"config_hash: {provenance['config_hash']}",
                f"seed: {provenance['seed']}"]
    comments += [f"checkpoint {key}: {digest}"
                 for key, digest in provenance["checkpoint_hashes"].items()]
    comments += [f"note: {note}" for note in provenance["notes"]]
    _write_csv(csv_path, columns, rows, comments)
    with CK.atomic_open(json_path, "w") as fh:
        json.dump({"report": name, "provenance": provenance,
                   "columns": columns, "rows": rows}, fh, indent=2)
        fh.write("\n")
    return {"report": name, "csv": str(csv_path), "json": str(json_path),
            "n_rows": len(rows)}


def cmd_eval(report: str, cfg: RunConfig) -> dict:
    """Emit one table-shaped report over the validation corpus."""
    if report not in REPORTS:
        raise ConfigError(f"unknown report '{report}' "
                          f"(choose from {REPORTS})")
    _check_variants(cfg)
    val = _val_corpus(cfg)
    seed = cfg["run"]["seed"]
    ae = _load_ae(cfg)
    ev = cfg["eval"]

    if report == "dissociation":
        n = min(ev["dissociation_examples"], len(val))
        sub = val[:n]
        ids, mask = batchify(sub, ae.config.m, ae.config.n)
        with no_grad():
            z_real = ae.encode_array(ids).data
        out = D.dissociation_probe(ae, z_real, ids, mask)
        # control: random directions at the probe's perturbation norms
        p_random = D.matched_norm_random_probe(ae, z_real, ids, mask,
                                               out["z_adv"], seed=seed)
        rows = [{"example": i,
                 "cosine": float(out["cosine"][i]),
                 "p_target": float(out["p_target"][i]),
                 "p_target_random": float(p_random[i]),
                 "p_target_real": float(out["p_target_real"][i]),
                 "success": int(out["success"][i]),
                 "steps_used": int(out["steps_used"][i])}
                for i in range(n)]
        prov = _provenance(cfg, ["ae"])
        prov["success_rate"] = out["success_rate"]
        prov["budget_exhausted"] = out["budget_exhausted"]
        return _write_report(cfg, report, list(rows[0]), rows, prov)

    prior = _load_prior(cfg)

    if report == "corruption_curve":
        levels = tuple(parse_floats(ev["corruption_levels"]))
        rows = DP.corruption_curve(ae, prior, val, levels, seed=seed)
        return _write_report(cfg, report, DP.CURVE_COLUMNS, rows,
                             _provenance(cfg, ["ae", "draftprior"]))

    s2cfg = _section_config(FF.Stage2Config, cfg, "stage2")

    if report == "stage2_matrix":
        variants = parse_names(cfg["stage2"]["variants"])
        bundles = [_load_bundle(cfg, v) for v in variants]
        rows = FF.stage2_report(ae, prior, bundles, val, s2cfg)
        ckpts = ["ae", "draftprior"] + [("flow", v) for v in variants]
        return _write_report(cfg, report, FF.REPORT_COLUMNS, rows,
                             _provenance(cfg, ckpts))

    variant = ev["report_variant"]
    bundle = _load_bundle(cfg, variant)
    ckpts = ["ae", "draftprior", ("flow", variant)]

    if report == "interpolation":
        z_start, _, ids, mask = DP.start_latents(
            ae, prior, val, s2cfg.dropout, s2cfg.seed + 5)
        z_final = FF.refine(bundle, z_start)
        with no_grad():
            z_real = ae.encode_array(ids).data
        m = ae.config.m
        curve = D.interpolation_diagnostic(
            ae, z_final[:, m:], z_real[:, m:], z_final[:, :m], ids, mask)
        rows = [{"alpha": a, "ce": ce}
                for a, ce in zip(curve.alphas, curve.ce_values)]
        return _write_report(cfg, report, ["alpha", "ce"], rows,
                             _provenance(cfg, ckpts))

    # sweep
    n = min(ev["sweep_examples"], len(val))
    sub = val[:n]
    ids, mask = batchify(sub, ae.config.m, ae.config.n)

    def infer_one(i: int, steps: int):
        z_start, _, _, _ = DP.start_latents(
            ae, prior, [sub[i]], s2cfg.dropout, s2cfg.seed + 5 + i)
        return FF.refine(bundle, z_start, steps=steps)

    rows = D.quality_speed_sweep(
        infer_one, ae, ids, mask, parse_ints(ev["sweep_steps"]))
    columns = ["steps"] + list(D.DiagnosticReport().as_dict())
    return _write_report(cfg, report, columns, rows,
                         _provenance(cfg, ckpts))


# -- inference ---------------------------------------------------------------


def cmd_infer(cfg: RunConfig, prompt: str, draft: str, steps: int = 16,
              reference: str | None = None) -> dict:
    """Draft-to-continuation: encode, denoise start, refine, decode."""
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    _check_variants(cfg)
    _, vocab = _grammar_vocab()
    clock = [time.perf_counter()]
    ae = _load_ae(cfg)
    prior = _load_prior(cfg)
    m, n = ae.config.m, ae.config.n

    prompt_ids = vocab.encode(prompt)
    draft_ids = vocab.encode(draft)
    if len(prompt_ids) > m:
        raise ConfigError(f"prompt has {len(prompt_ids)} tokens, "
                          f"budget is {m}")
    if len(draft_ids) > n - m:
        raise ConfigError(f"draft has {len(draft_ids)} tokens, "
                          f"budget is {n - m}")
    empty_draft = len(draft_ids) == 0
    example = C.StoryExample(
        prompt=C.TokenSequence.from_tokens(prompt_ids, m),
        target=C.TokenSequence.from_tokens(draft_ids, n - m),
        raw_text=(prompt, draft))
    ids = mask = None
    if reference is not None:
        ref_ids = vocab.encode(reference)
        if len(ref_ids) + 1 > n - m:
            raise ConfigError(f"reference has {len(ref_ids)} tokens, "
                              f"budget is {n - m - 1}")
        # references follow the corpus convention of a trailing EOS
        ids, mask = batchify([C.StoryExample(
            prompt=C.TokenSequence.from_tokens(prompt_ids, m),
            target=C.TokenSequence.from_tokens(ref_ids + [EOS], n - m),
            raw_text=(prompt, reference))], m, n)

    bundle = _load_bundle(cfg, cfg["eval"]["report_variant"]) if steps else None
    clock.append(time.perf_counter())
    z_start, _, _, _ = DP.start_latents(ae, prior, [example], 0.0,
                                        cfg["run"]["seed"])
    clock.append(time.perf_counter())
    z_final = FF.refine(bundle, z_start, steps=steps) if steps else z_start
    clock.append(time.perf_counter())
    logp, tokens, rec = D.readout(ae, z_final, ids, mask)
    clock.append(time.perf_counter())
    logp, tokens = logp[0], tokens[0]
    probs = np.exp(np.take_along_axis(logp, tokens[:, None], axis=1))[:, 0]
    cut = int(np.argmax(tokens == EOS)) if (tokens == EOS).any() else len(tokens)
    kept = [int(t) for t in tokens[:cut]]

    out = {
        "continuation": vocab.decode(kept),
        "tokens": kept,
        "token_probs": [round(float(p), 6) for p in probs[:cut]],
        "steps": steps,
        "latency_s": clock[-1] - clock[1],
        # wall seconds per stage; start is encode + DraftPrior
        "stage_s": {stage: b - a for stage, a, b in zip(
            INFER_STAGES, clock, clock[1:])},
        "empty_draft": empty_draft,
        "recoverability": rec,
    }
    if empty_draft:
        out["note"] = ("empty draft: the start latents are noise-dominated, "
                       "treat the continuation as unconditioned")
    return out
