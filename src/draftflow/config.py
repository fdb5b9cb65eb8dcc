"""Run configuration: sectioned key=value files over typed defaults.

Every key must already exist in DEFAULTS; unknown sections or keys are
rejected rather than ignored so typos cannot silently run a different
experiment. Values are coerced to the type of the default. The config hash
covers every numeric-relevant section (paths excluded), so two runs with
equal hashes ran the same experiment.

The only environment override is DRAFTFLOW_WORKDIR, and it touches paths
alone, never hyperparameters.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import os

WORKDIR_ENV = "DRAFTFLOW_WORKDIR"

DEFAULTS = {
    "run": {"seed": 1337},
    "dims": {"d": 32, "h": 64, "m": 16, "n": 32},
    "corpus": {"train_count": 2000, "val_count": 200, "source": ""},
    "stage1": {"steps": 600, "batch_size": 64, "lr": 1e-3,
               "weight_decay": 0.01, "grad_clip": 1.0, "val_count": 200},
    "draftprior": {"steps": 1800, "batch_size": 64, "lr": 1e-3,
                   "weight_decay": 0.01, "grad_clip": 1.0, "alpha": 0.7,
                   "sample_alpha": False, "val_count": 200},
    "stage2": {"steps": 300, "batch_size": 64, "lr": 1e-3,
               "weight_decay": 0.01, "grad_clip": 1.0, "dropout": 0.05,
               "rho": 0.05, "gamma": 0.01, "train_steps_ode": 4,
               "eval_steps": 16, "beta": 0.1, "lambda_res": 0.1,
               "metric_weight": 0.01, "ot_weight": 1.0, "ot_points": 64,
               "val_count": 200, "variants": "raw,fused,metric_ot,residual"},
    "eval": {"corruption_levels": "0,0.03,0.05,0.10",
             "sweep_steps": "0,1,2,4,8,16", "report_variant": "fused",
             "dissociation_examples": 100, "sweep_examples": 64},
    "paths": {"workdir": "runs/default"},
}


class ConfigError(ValueError):
    pass


class RunConfig:
    def __init__(self, sections: dict):
        self.sections = sections

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    @property
    def workdir(self) -> str:
        return self.sections["paths"]["workdir"]

    def hash(self) -> str:
        lines = []
        for section in sorted(self.sections):
            if section == "paths":
                continue
            for key, value in sorted(self.sections[section].items()):
                lines.append(f"{section}.{key}={value!r}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _coerce(section: str, key: str, raw: str, default):
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as "
                          f"{type(default).__name__}") from None


def load_config(path=None) -> RunConfig:
    """Defaults, overlaid with an optional INI file, then env path override."""
    sections = copy.deepcopy(DEFAULTS)
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in sections[section]:
                    raise ConfigError(f"unknown key '{key}' in [{section}]")
                sections[section][key] = _coerce(
                    section, key, raw, DEFAULTS[section][key])
    # an external corpus is split by position: eval reads its last
    # corpus.val_count examples, each stage trains on all but its own last
    # val_count, so a larger eval split would score trained examples
    if sections["corpus"]["source"]:
        held_out = min(sections[s]["val_count"]
                       for s in ("stage1", "draftprior", "stage2"))
        if sections["corpus"]["val_count"] > held_out:
            raise ConfigError(
                f"[corpus] val_count {sections['corpus']['val_count']} "
                f"exceeds the smallest stage val_count {held_out}: eval "
                "would score examples a stage trained on")
    env_workdir = os.environ.get(WORKDIR_ENV)
    if env_workdir:
        sections["paths"]["workdir"] = env_workdir
    return RunConfig(sections)


def parse_floats(raw: str) -> list:
    try:
        return [float(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse float list from {raw!r}") from None


def parse_ints(raw: str) -> list:
    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse int list from {raw!r}") from None


def parse_names(raw: str) -> list:
    return [x.strip() for x in raw.split(",") if x.strip()]
