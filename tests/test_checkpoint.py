"""Checkpoint file format and run configuration."""

import json

import numpy as np
import pytest

from draftflow import checkpoint as CK
from draftflow import config as CFG


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "enc.w": rng.standard_normal((4, 6)).astype(np.float32),
        "enc.b": np.zeros(6, dtype=np.float32),
        "head.w": rng.standard_normal((6, 11)).astype(np.float32),
    }


# -- checkpoints -------------------------------------------------------------

def test_roundtrip_bit_identical(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _arrays()
    digest = CK.save_checkpoint(path, "ae", arrays, {"d": 4, "note": "x"})
    ck = CK.load_checkpoint(path)
    assert ck.stage == "ae"
    assert ck.config == {"d": 4, "note": "x"}
    assert ck.version == CK.FORMAT_VERSION
    assert set(ck.arrays) == set(arrays)
    for name, arr in arrays.items():
        assert ck.arrays[name].dtype == np.float32
        assert arr.tobytes() == ck.arrays[name].tobytes()
    assert CK.file_sha256(path) == digest


def test_save_then_save_same_bytes(tmp_path):
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    CK.save_checkpoint(a, "flow", _arrays(3))
    CK.save_checkpoint(b, "flow", _arrays(3))
    assert a.read_bytes() == b.read_bytes()


class _HalfWriter:
    """File stand-in that writes half of the first chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_interrupted_save_leaves_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    CK.save_checkpoint(path, "ae", _arrays(1))
    before = path.read_bytes()
    real_open = open
    monkeypatch.setattr(CK, "open", lambda *a, **k: _HalfWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        CK.save_checkpoint(path, "ae", _arrays(2))
    with pytest.raises(OSError, match="disk full"):
        CK.save_checkpoint(tmp_path / "fresh.ckpt", "ae", _arrays(2))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    CK.save_checkpoint(path, "ae", _arrays())
    head, _, payload = path.read_bytes().partition(b"\n")
    manifest = json.loads(head)
    manifest["version"] = 99
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    with pytest.raises(CK.CheckpointError, match="version"):
        CK.load_checkpoint(path)


def test_corrupt_payload_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    CK.save_checkpoint(path, "ae", _arrays())
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match="corrupt"):
        CK.load_checkpoint(path)


def test_truncated_and_malformed_files(tmp_path):
    path = tmp_path / "model.ckpt"
    CK.save_checkpoint(path, "ae", _arrays())
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(CK.CheckpointError):
        CK.load_checkpoint(path)
    path.write_bytes(b"not json at all")
    with pytest.raises(CK.CheckpointError):
        CK.load_checkpoint(path)


def test_reject_bad_inputs(tmp_path):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="float32"):
        CK.save_checkpoint(path, "ae",
                           {"w": np.zeros(3, dtype=np.float64)})
    with pytest.raises(ValueError):
        CK.save_checkpoint(path, "", _arrays())


def test_file_hash_tracks_content(tmp_path):
    path = tmp_path / "model.ckpt"
    CK.save_checkpoint(path, "ae", _arrays(1))
    h1 = CK.file_sha256(path)
    CK.save_checkpoint(path, "ae", _arrays(2))
    assert CK.file_sha256(path) != h1


# -- config ------------------------------------------------------------------

def test_defaults_without_file():
    cfg = CFG.load_config(None)
    assert cfg["run"]["seed"] == 1337
    assert cfg["dims"]["d"] == 32
    assert cfg["stage2"]["eval_steps"] == 16
    assert cfg.workdir == "runs/default"


def test_file_overlays_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[dims]\nd = 8\n[stage1]\nsteps = 10\nlr = 0.01\n")
    cfg = CFG.load_config(path)
    assert cfg["dims"]["d"] == 8
    assert cfg["stage1"]["steps"] == 10
    assert cfg["stage1"]["lr"] == 0.01
    # untouched keys keep defaults
    assert cfg["dims"]["h"] == 64


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[nope]\nx = 1\n")
    with pytest.raises(CFG.ConfigError, match="nope"):
        CFG.load_config(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[dims]\nwidth = 1\n")
    with pytest.raises(CFG.ConfigError, match="width"):
        CFG.load_config(bad_key)


def test_type_coercion(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[draftprior]\nsample_alpha = true\nalpha = 0.5\n")
    cfg = CFG.load_config(path)
    assert cfg["draftprior"]["sample_alpha"] is True
    assert cfg["draftprior"]["alpha"] == 0.5
    bad = tmp_path / "bad.ini"
    bad.write_text("[stage1]\nsteps = many\n")
    with pytest.raises(CFG.ConfigError, match="steps"):
        CFG.load_config(bad)


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(CFG.ConfigError, match="not found"):
        CFG.load_config(tmp_path / "absent.ini")


def test_env_overrides_workdir_only(tmp_path, monkeypatch):
    monkeypatch.setenv(CFG.WORKDIR_ENV, "/elsewhere")
    cfg = CFG.load_config(None)
    assert cfg.workdir == "/elsewhere"
    assert cfg["run"]["seed"] == 1337


def test_hash_ignores_paths_but_not_hyperparameters(tmp_path):
    base = CFG.load_config(None).hash()
    paths_only = tmp_path / "p.ini"
    paths_only.write_text("[paths]\nworkdir = /tmp/other\n")
    assert CFG.load_config(paths_only).hash() == base
    hyper = tmp_path / "h.ini"
    hyper.write_text("[stage1]\nlr = 0.01\n")
    assert CFG.load_config(hyper).hash() != base


def test_list_parsers():
    assert CFG.parse_floats("0,0.03, 0.1") == [0.0, 0.03, 0.1]
    assert CFG.parse_ints("0,1,16") == [0, 1, 16]
    assert CFG.parse_names("raw, fused ,") == ["raw", "fused"]
    with pytest.raises(CFG.ConfigError):
        CFG.parse_floats("a,b")
    with pytest.raises(CFG.ConfigError):
        CFG.parse_ints("1.5")
