"""End-to-end command pipeline on a miniature configuration.

A full train/eval/infer chain runs once per module at d=8 with a few dozen
optimizer steps; the point is plumbing (checkpoints, prerequisites, report
files, exit codes), not model quality.
"""

import csv
import hashlib
import json
import pathlib

import numpy as np
import pytest

from draftflow import autoencoder as AE
from draftflow import checkpoint as CK
from draftflow import cli
from draftflow import config as CFG
from draftflow import corpus as C
from draftflow import diagnostics as D
from draftflow import pipeline as P

TINY_INI = """\
[run]
seed = 77
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


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _make_cfg(root, name):
    ini = root / f"{name}.ini"
    ini.write_text(TINY_INI)
    cfg = CFG.load_config(ini)
    cfg.sections["paths"]["workdir"] = str(root / name)
    return cfg, ini


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Fully trained miniature run: corpus, ae, draftprior, all flow variants."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg, ini = _make_cfg(root, "full")
    P.cmd_generate_corpus(cfg)
    results = {stage: P.cmd_train(stage, cfg) for stage in P.STAGES}
    return {"cfg": cfg, "ini": ini, "root": root, "results": results}


@pytest.fixture(scope="module")
def half(tmp_path_factory):
    """Miniature run stopped after the draft prior: no flow checkpoints."""
    root = tmp_path_factory.mktemp("pipeline_half")
    cfg, _ = _make_cfg(root, "half")
    P.cmd_train("ae", cfg)
    P.cmd_train("draftprior", cfg)
    return cfg


def test_generate_corpus_is_byte_identical(tiny):
    cfg = tiny["cfg"]
    out = P.cmd_generate_corpus(cfg)
    assert out["train_count"] == 520 and out["val_count"] == 24
    assert out["skipped_lines"] == 0
    train_path = tiny["root"] / "full" / "corpus_train.tsv"
    val_path = tiny["root"] / "full" / "corpus_val.tsv"
    first = (_sha(train_path), _sha(val_path))
    P.cmd_generate_corpus(cfg)
    assert (_sha(train_path), _sha(val_path)) == first
    lines = val_path.read_text().splitlines()
    assert len(lines) == 24
    assert all("\t" in line for line in lines)


def test_train_and_val_draw_from_disjoint_seed_streams(tiny):
    train_lines = set((tiny["root"] / "full" / "corpus_train.tsv")
                      .read_text().splitlines())
    val_lines = (tiny["root"] / "full" / "corpus_val.tsv")
    assert not train_lines & set(val_lines.read_text().splitlines())


def test_generate_corpus_reports_skipped_source_lines(tmp_path, caplog):
    source = tmp_path / "stories.tsv"
    C.write_text_corpus(source, C.generate_corpus(seed=3, count=6))
    with source.open("a", encoding="utf-8") as fh:
        fh.write("the fox " * 10 + "\tit slept\n")  # 20-token prompt, budget 16
    ini = tmp_path / "external.ini"
    ini.write_text(f"[corpus]\nsource = {source}\nval_count = 2\n")
    cfg = CFG.load_config(ini)
    cfg.sections["paths"]["workdir"] = str(tmp_path / "out")
    with caplog.at_level("WARNING", logger="draftflow.corpus"):
        out = P.cmd_generate_corpus(cfg)
    assert out["skipped_lines"] == 1
    assert out["train_count"] == 6
    # the source is ingested once: one warning for its one skipped line
    assert [r.getMessage() for r in caplog.records] == [
        f"skipped 1 over-budget lines in {source}"]


def test_missing_corpus_source_is_a_config_error(tiny):
    cfg, _ = _make_cfg(tiny["root"], "srcless")
    cfg.sections["corpus"]["source"] = str(tiny["root"] / "absent.tsv")
    with pytest.raises(CFG.ConfigError, match="absent.tsv"):
        P.cmd_generate_corpus(cfg)


def test_prerequisites_enforced(tmp_path):
    cfg, _ = _make_cfg(tmp_path, "empty")
    with pytest.raises(P.MissingPrerequisite, match="ae"):
        P.cmd_train("draftprior", cfg)
    with pytest.raises(P.MissingPrerequisite, match="ae"):
        P.cmd_train("flow", cfg)
    with pytest.raises(P.MissingPrerequisite):
        P.cmd_eval("corruption_curve", cfg)
    with pytest.raises(CFG.ConfigError, match="unknown stage"):
        P.cmd_train("decoder", cfg)
    with pytest.raises(CFG.ConfigError, match="unknown report"):
        P.cmd_eval("bleu", cfg)


def test_eval_and_infer_without_flow_checkpoints(half):
    # reports before the flow stage work; ones that need it fail loudly
    out = P.cmd_eval("corruption_curve", half)
    assert out["n_rows"] == 4
    with pytest.raises(P.MissingPrerequisite, match="flow"):
        P.cmd_eval("stage2_matrix", half)
    ex = C.generate_corpus(seed=5, count=1)[0]
    res = P.cmd_infer(half, ex.raw_text[0], ex.raw_text[1], steps=0)
    assert res["steps"] == 0
    with pytest.raises(P.MissingPrerequisite, match="flow"):
        P.cmd_infer(half, ex.raw_text[0], ex.raw_text[1], steps=2)


def test_checkpoint_stage_tags_and_snapshots(tiny):
    wd = tiny["root"] / "full"
    ae = CK.load_checkpoint(wd / "ae.ckpt")
    assert ae.stage == "ae" and ae.config["d"] == 8
    prior = CK.load_checkpoint(wd / "draftprior.ckpt")
    assert prior.stage == "draftprior" and "alpha" in prior.config
    fused = CK.load_checkpoint(wd / "flow_fused.ckpt")
    assert fused.stage == "flow" and fused.config["variant"] == "fused"
    assert fused.config["gamma"] == 0.01
    assert fused.config["lambda_res"] == 0.1


def test_checkpoint_round_trip_bit_identical(tiny, tmp_path):
    src = tiny["root"] / "full" / "ae.ckpt"
    ck = CK.load_checkpoint(src)
    dst = tmp_path / "copy.ckpt"
    CK.save_checkpoint(dst, ck.stage, ck.arrays, ck.config)
    assert src.read_bytes() == dst.read_bytes()


def test_train_rerun_reproduces_checkpoint_bytes(tiny):
    cfg2, _ = _make_cfg(tiny["root"], "rerun")
    P.cmd_train("ae", cfg2)
    a = tiny["root"] / "full" / "ae.ckpt"
    b = tiny["root"] / "rerun" / "ae.ckpt"
    assert a.read_bytes() == b.read_bytes()
    log_a = tiny["root"] / "full" / "stage1_log.csv"
    log_b = tiny["root"] / "rerun" / "stage1_log.csv"
    assert log_a.read_bytes() == log_b.read_bytes()


EXPECTED_ROWS = {"corruption_curve": 4, "stage2_matrix": 6,
                 "interpolation": 8, "sweep": 3, "dissociation": 6}


@pytest.mark.parametrize("report", P.REPORTS)
def test_reports_rows_and_provenance(tiny, report):
    cfg = tiny["cfg"]
    out = P.cmd_eval(report, cfg)
    assert out["n_rows"] == EXPECTED_ROWS[report]

    text = (tiny["root"] / "full" / f"report_{report}.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == f"# config_hash: {cfg.hash()}"
    assert lines[1] == "# seed: 77"
    assert any(line.startswith("# checkpoint ae:") for line in lines)
    assert sum("# note:" in line for line in lines) == 2
    assert any("MAUVE" in line for line in lines)

    header = next(line for line in lines if not line.startswith("#"))
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    assert len(rows) == out["n_rows"]

    payload = json.loads(
        (tiny["root"] / "full" / f"report_{report}.json").read_text())
    assert payload["report"] == report
    assert payload["provenance"]["config_hash"] == cfg.hash()
    assert len(payload["rows"]) == out["n_rows"]
    assert header == ",".join(payload["columns"])


def test_report_rerun_matches_numerically(tiny):
    cfg = tiny["cfg"]
    P.cmd_eval("stage2_matrix", cfg)
    path = tiny["root"] / "full" / "report_stage2_matrix.json"
    first = json.loads(path.read_text())["rows"]
    P.cmd_eval("stage2_matrix", cfg)
    second = json.loads(path.read_text())["rows"]
    assert first == second

    P.cmd_eval("sweep", cfg)
    sweep_path = tiny["root"] / "full" / "report_sweep.json"
    a = json.loads(sweep_path.read_text())["rows"]
    P.cmd_eval("sweep", cfg)
    b = json.loads(sweep_path.read_text())["rows"]
    wall_clock = {"latency_s", "tokens_per_s"}
    for ra, rb in zip(a, b):
        for key in ra:
            if key not in wall_clock:
                assert ra[key] == rb[key], key


def test_stage2_matrix_reports_ot_solver_status(tiny):
    P.cmd_eval("stage2_matrix", tiny["cfg"])
    payload = json.loads(
        (tiny["root"] / "full" / "report_stage2_matrix.json").read_text())
    assert {"ot_converged", "ot_iters"} <= set(payload["columns"])
    for row in payload["rows"]:
        assert row["ot_converged"] in (0, 1)
        assert 1 <= row["ot_iters"] <= 200
        # the solve is capped at 200 iterations
        assert row["ot_converged"] == int(row["ot_iters"] < 200), row


def test_dissociation_provenance_carries_budget_exhausted(tiny):
    P.cmd_eval("dissociation", tiny["cfg"])
    payload = json.loads(
        (tiny["root"] / "full" / "report_dissociation.json").read_text())
    success = [row["success"] for row in payload["rows"]]
    prov = payload["provenance"]
    assert prov["budget_exhausted"] is (not all(success))
    assert prov["success_rate"] == pytest.approx(np.mean(success))


def test_dissociation_reports_matched_norm_control(tiny):
    cfg = tiny["cfg"]
    P.cmd_eval("dissociation", cfg)
    payload = json.loads(
        (tiny["root"] / "full" / "report_dissociation.json").read_text())
    cols = payload["columns"]
    assert cols.index("p_target_random") == cols.index("p_target") + 1
    ae = P._load_ae(cfg)
    sub = P._val_corpus(cfg)[:6]
    ids, mask = AE.batchify(sub, ae.config.m, ae.config.n)
    z_real = ae.encode_all(ids)
    out = D.dissociation_probe(ae, z_real, ids, mask)
    want = D.matched_norm_random_probe(ae, z_real, ids, mask, out["z_adv"],
                                       seed=77)
    assert [row["p_target_random"] for row in payload["rows"]] == \
        [float(p) for p in want]


def test_interpolation_rows_span_the_segment(tiny):
    payload = json.loads(
        (tiny["root"] / "full" / "report_interpolation.json").read_text())
    alphas = [row["alpha"] for row in payload["rows"]]
    assert alphas[0] == 0.0 and alphas[-1] == 1.0
    assert alphas == sorted(alphas)


def test_infer_round_trip(tiny, monkeypatch):
    cfg = tiny["cfg"]
    calls = []
    decode = AE.Autoencoder.decode_array
    monkeypatch.setattr(AE.Autoencoder, "decode_array",
                        lambda self, z: calls.append(1) or decode(self, z))
    ex = C.generate_corpus(seed=9, count=1)[0]
    out = P.cmd_infer(cfg, ex.raw_text[0], ex.raw_text[1], steps=2,
                      reference=ex.raw_text[1])
    # tokens, their probabilities and the reference scores share one decode
    assert len(calls) == 1
    assert isinstance(out["continuation"], str)
    assert all(isinstance(t, int) for t in out["tokens"])
    assert len(out["token_probs"]) == len(out["tokens"])
    assert out["latency_s"] > 0
    assert list(out["stage_s"]) == ["load", "start", "refine", "decode"]
    assert all(v > 0 for v in out["stage_s"].values())
    assert out["latency_s"] == pytest.approx(
        sum(out["stage_s"].values()) - out["stage_s"]["load"])
    assert out["empty_draft"] is False
    assert 0.0 < out["recoverability"]["p_target"] <= 1.0


def test_infer_budget_and_empty_draft(tiny):
    cfg = tiny["cfg"]
    ex = C.generate_corpus(seed=9, count=1)[0]
    with pytest.raises(CFG.ConfigError, match="budget"):
        P.cmd_infer(cfg, "the " * 20, ex.raw_text[1], steps=0)
    with pytest.raises(CFG.ConfigError, match="budget"):
        P.cmd_infer(cfg, ex.raw_text[0], "the " * 20, steps=0)
    out = P.cmd_infer(cfg, ex.raw_text[0], "", steps=0)
    assert out["empty_draft"] is True
    assert "noise-dominated" in out["note"]
    # unknown words map to the reserved slot instead of crashing
    out = P.cmd_infer(cfg, "xylophone qwerty", ex.raw_text[1], steps=0)
    assert isinstance(out["continuation"], str)


# -- command line ------------------------------------------------------------

def test_cli_generate_corpus_ok(tiny, tmp_path, capsys):
    code = cli.main(["generate-corpus", "--config", str(tiny["ini"]),
                     "--out", str(tmp_path / "cli_run")])
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["train_count"] == 520


def test_cli_seed_override_changes_corpus(tiny, tmp_path, capsys):
    for seed in (77, 88):
        code = cli.main(["generate-corpus", "--config", str(tiny["ini"]),
                         "--out", str(tmp_path / f"s{seed}"),
                         "--seed", str(seed)])
        assert code == cli.EXIT_OK
    capsys.readouterr()
    assert (_sha(tmp_path / "s77" / "corpus_train.tsv")
            != _sha(tmp_path / "s88" / "corpus_train.tsv"))


def test_cli_exit_codes(tiny, tmp_path, capsys):
    missing = cli.main(["eval", "stage2_matrix", "--config", str(tiny["ini"]),
                        "--out", str(tmp_path / "nothing_here")])
    assert missing == cli.EXIT_MISSING

    bad_cfg = cli.main(["train", "ae", "--config",
                        str(tmp_path / "no_such.ini")])
    assert bad_cfg == cli.EXIT_CONFIG

    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "discriminator"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_divergence_exit_code(tmp_path, capsys):
    diverge = tmp_path / "diverge.ini"
    diverge.write_text(TINY_INI.replace("[stage1]\nsteps = 30",
                                        "[stage1]\nsteps = 30\nlr = 1e9"))
    code = cli.main(["train", "ae", "--config", str(diverge),
                     "--out", str(tmp_path / "run2")])
    assert code == cli.EXIT_DIVERGED
    capsys.readouterr()


def _copy_run(tiny, run, names):
    run.mkdir()
    for name in names:
        (run / name).write_bytes((tiny["root"] / "full" / name).read_bytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_integrate_divergence_exit_code(tiny, tmp_path, capsys):
    # a fused run that blows up inside the ODE, not at the loss check
    run = tmp_path / "run3"
    _copy_run(tiny, run, ["ae.ckpt", "draftprior.ckpt"])
    diverge = tmp_path / "diverge_flow.ini"
    diverge.write_text(TINY_INI.replace(
        "[stage2]\nsteps = 4", "[stage2]\nsteps = 4\nlr = 1e9\nvariants = fused"))
    code = cli.main(["train", "flow", "--config", str(diverge),
                     "--out", str(run)])
    assert code == cli.EXIT_DIVERGED
    assert "non-finite state" in capsys.readouterr().err
    assert not (run / "flow_fused.ckpt").exists()


def test_unknown_stage2_variant_rejected_before_training(tiny, tmp_path,
                                                         capsys):
    run = tmp_path / "run"
    _copy_run(tiny, run, ["ae.ckpt", "draftprior.ckpt"])
    ini = tmp_path / "nope.ini"
    ini.write_text(TINY_INI.replace(
        "eval_steps = 4", "eval_steps = 4\nvariants = raw,nope"))
    code = cli.main(["train", "flow", "--config", str(ini), "--out", str(run)])
    assert code == cli.EXIT_CONFIG
    assert "unknown variant 'nope'" in capsys.readouterr().err
    assert not (run / "flow_raw.ckpt").exists()


def test_unknown_report_variant_is_a_config_error(tiny, tmp_path, capsys):
    run = tmp_path / "run"
    _copy_run(tiny, run, ["ae.ckpt", "draftprior.ckpt"])
    ini = tmp_path / "nope.ini"
    ini.write_text(TINY_INI + "report_variant = nope\n")
    code = cli.main(["eval", "interpolation", "--config", str(ini),
                     "--out", str(run)])
    assert code == cli.EXIT_CONFIG
    assert "unknown variant 'nope'" in capsys.readouterr().err


def test_external_corpus_eval_split_must_be_held_out(tmp_path, capsys):
    source = tmp_path / "stories.tsv"
    C.write_text_corpus(source, C.generate_corpus(seed=3, count=4))
    ini = tmp_path / "leak.ini"
    ini.write_text(f"[corpus]\nsource = {source}\nval_count = 201\n")
    with pytest.raises(CFG.ConfigError, match="val_count"):
        CFG.load_config(ini)
    code = cli.main(["generate-corpus", "--config", str(ini),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    capsys.readouterr()
    ini.write_text(f"[corpus]\nsource = {source}\nval_count = 200\n")
    assert CFG.load_config(ini)["corpus"]["val_count"] == 200


def test_interrupted_report_write_leaves_previous_files(tmp_path):
    cfg, _ = _make_cfg(tmp_path, "atomic")
    prov = {"config_hash": cfg.hash(), "seed": 77, "checkpoint_hashes": {},
            "notes": []}
    out = P._write_report(cfg, "t", ["a"], [{"a": 1}], prov)
    csv_path, json_path = pathlib.Path(out["csv"]), pathlib.Path(out["json"])
    before = (csv_path.read_bytes(), json_path.read_bytes())
    # the second row lacks its column: fails after the first row is written
    with pytest.raises(KeyError):
        P._write_report(cfg, "t", ["a"], [{"a": 2}, {}], prov)
    assert (csv_path.read_bytes(), json_path.read_bytes()) == before
    # the CSV half succeeds; the JSON dump fails part-way through the rows
    with pytest.raises(TypeError):
        P._write_report(cfg, "t", ["a"], [{"a": 2}, {"a": object()}], prov)
    assert json_path.read_bytes() == before[1]
    assert sorted(p.name for p in (tmp_path / "atomic").iterdir()) == \
        ["report_t.csv", "report_t.json"]


def test_cli_infer_ok(tiny, capsys):
    ex = C.generate_corpus(seed=11, count=1)[0]
    code = cli.main(["infer", "--config", str(tiny["ini"]),
                     "--out", str(tiny["root"] / "full"),
                     "--prompt", ex.raw_text[0], "--draft", ex.raw_text[1],
                     "--steps", "1"])
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"] == 1


def test_flow_checkpoint_refuses_contradicting_stage2_config(tiny, tmp_path,
                                                           capsys):
    run = tmp_path / "run"
    _copy_run(tiny, run, ["ae.ckpt", "draftprior.ckpt", "flow_residual.ckpt"])
    ini = tmp_path / "moved.ini"
    ini.write_text(TINY_INI.replace(
        "eval_steps = 4", "eval_steps = 16\nlambda_res = 0.9\n"
        "variants = residual"))
    code = cli.main(["eval", "stage2_matrix", "--config", str(ini),
                     "--out", str(run)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "flow_residual.ckpt" in err and "lambda_res" in err
    # eval_steps alone is an eval-time setting
    ini.write_text(TINY_INI.replace(
        "eval_steps = 4", "eval_steps = 16\nvariants = residual"))
    assert cli.main(["eval", "stage2_matrix", "--config", str(ini),
                     "--out", str(run)]) == cli.EXIT_OK
    # a snapshot without the values it was trained with is refused too
    ck = CK.load_checkpoint(run / "flow_residual.ckpt")
    del ck.config["gamma"]
    CK.save_checkpoint(run / "flow_residual.ckpt", ck.stage, ck.arrays,
                       ck.config)
    code = cli.main(["eval", "stage2_matrix", "--config", str(ini),
                     "--out", str(run)])
    assert code == cli.EXIT_CONFIG
    assert "lacks [stage2] gamma" in capsys.readouterr().err


def test_checkpoint_architecture_mismatch_exit_code(tiny, tmp_path, capsys):
    run = tmp_path / "run"
    _copy_run(tiny, run, ["ae.ckpt", "draftprior.ckpt"])
    ck = CK.load_checkpoint(run / "draftprior.ckpt")
    del ck.arrays["dp.layer1.xattn.k.w"]
    CK.save_checkpoint(run / "draftprior.ckpt", ck.stage, ck.arrays,
                       ck.config)
    ex = C.generate_corpus(seed=11, count=1)[0]
    code = cli.main(["infer", "--config", str(tiny["ini"]), "--out", str(run),
                     "--prompt", ex.raw_text[0], "--draft", ex.raw_text[1],
                     "--steps", "0"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "draftprior.ckpt" in err and "dp.layer1.xattn.k.w" in err
