"""Command-line front end.

Exit codes: 0 success, 2 config or input error, 3 missing prerequisite
checkpoint, 4 numerical divergence (a non-finite loss or ODE state).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .checkpoint import CheckpointError
from .config import ConfigError, load_config
from .nn import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", default=None,
                     help="path to a key=value config file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the run seed")
    sub.add_argument("--out", default=None,
                     help="override the working directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draftflow",
        description="Draft-conditioned latent refinement pipeline")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate-corpus",
                              help="write train/val prompt-target files")
    _add_common(gen)

    train = commands.add_parser("train", help="train one pipeline stage")
    train.add_argument("stage", choices=pipeline.STAGES)
    _add_common(train)

    ev = commands.add_parser("eval", help="emit one evaluation report")
    ev.add_argument("report", choices=pipeline.REPORTS)
    _add_common(ev)

    inf = commands.add_parser("infer",
                              help="draft to refined continuation")
    inf.add_argument("--prompt", required=True)
    inf.add_argument("--draft", required=True)
    inf.add_argument("--steps", type=int, default=16)
    inf.add_argument("--reference", default=None,
                     help="target text for a recoverability summary")
    _add_common(inf)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.sections["run"]["seed"] = args.seed
        if args.out is not None:
            cfg.sections["paths"]["workdir"] = args.out

        if args.command == "generate-corpus":
            result = pipeline.cmd_generate_corpus(cfg)
        elif args.command == "train":
            result = pipeline.cmd_train(args.stage, cfg)
        elif args.command == "eval":
            result = pipeline.cmd_eval(args.report, cfg)
        else:
            result = pipeline.cmd_infer(cfg, args.prompt, args.draft,
                                        steps=args.steps,
                                        reference=args.reference)
    except pipeline.MissingPrerequisite as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING
    except (DivergenceError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(result, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
