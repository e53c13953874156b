"""Command-line interface.

Subcommands: train, eval, analyze, scan, attribute, sweep. ``analyze``
and ``attribute`` print renderings of ``scanner.file_analyses``. Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import load_dataset, split
from .errors import ConfigError, DataError, VulnGraphError
from .lexer import RESERVED
from .model import ModelConfig
from .runfiles import (TrainConfig, load_checkpoint, parse_run_config,
                       save_checkpoint, write_log)
from .scanner import file_analyses, render_report, scan
from .trainer import evaluate, format_sweep_table, sweep_ensemble, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for data errors.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds for this process.

    Training frees each sample's multi-MB activations and gradient
    contributions after its turn; by default glibc hands them back to
    the OS and the next sample faults them in again. The thresholds are
    pinned at the most glibc's own dynamic rule would raise them to, so
    freed blocks stay in the heap. Either setting turns that rule off,
    so both are set: the trim threshold alone would leave every block
    over 128 KiB to ``mmap``. Forked helpers and workers inherit the
    setting; where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no process-wide C library handle
        return
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: DEFAULT_MMAP_THRESHOLD_MAX
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vulngraph",
                     description="Classify, localize, and explain C/C++ "
                                 "vulnerabilities at function level.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a JSONL dataset")
    p_train.add_argument("--config", required=True, help="key=value config file")
    p_train.add_argument("--data", required=True, help="JSONL dataset")
    p_train.add_argument("--out", required=True, help="output checkpoint dir")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze functions in one file")
    p_analyze.add_argument("--checkpoint", required=True)
    p_analyze.add_argument("--file", required=True)
    p_analyze.add_argument("--function", help="only this function name")

    p_scan = sub.add_parser("scan", help="scan a source tree")
    p_scan.add_argument("--checkpoint", required=True)
    p_scan.add_argument("--root", required=True)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--format", choices=("json", "text"), default="json")
    p_scan.add_argument("--jobs", type=int, default=1)

    p_attr = sub.add_parser("attribute",
                            help="dump token/line attribution scores")
    p_attr.add_argument("--checkpoint", required=True)
    p_attr.add_argument("--file", required=True)
    p_attr.add_argument("--function", help="only this function name")

    p_sweep = sub.add_parser("sweep", help="fusion-ratio ablation sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--ratios", required=True,
                         help="comma-separated embedding-path weights, "
                              "e.g. 0.2,0.4,0.5,0.6,0.8")

    return parser


def _load_configs(path: str) -> tuple[ModelConfig, TrainConfig]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    model_kwargs, train_kwargs = parse_run_config(text)
    # checked at the smallest size, the reserved ids alone: training sizes
    # the model to the vocabulary it builds
    return (ModelConfig(vocab_size=len(RESERVED), **model_kwargs),
            TrainConfig(**train_kwargs))


def _output_dir(path: str) -> Path:
    """``--out`` as a directory that can be made, checked before any work:
    no file may stand at it or at one of its parents."""
    out = Path(path)
    for at in (out, *out.parents):
        if at.exists():
            if not at.is_dir():
                raise ConfigError(
                    f"cannot make --out {path}: {at} is not a directory")
            break
    return out


def _cmd_train(args) -> int:
    out = _output_dir(args.out)
    model_cfg, train_cfg = _load_configs(args.config)
    records = load_dataset(args.data)
    dataset_split = split(records, train_cfg.seed)
    result = train(records, dataset_split, model_cfg, train_cfg)
    save_checkpoint(out, result.model, result.vocab, train_cfg)
    write_log(result.log, out / "log.jsonl")
    final = result.log[-1]
    print(f"trained {train_cfg.epochs} epochs; "
          f"final train_loss={final['train_loss']:.4f} "
          f"val_loss={final['val_loss']}")
    print(f"checkpoint written to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, vocab = load_checkpoint(args.checkpoint)
    records = load_dataset(args.data)
    report = evaluate(model, records, vocab)
    print(report.to_json())
    return EXIT_OK


def _cmd_analyze(args) -> int:
    model, vocab = load_checkpoint(args.checkpoint)
    for analysis in file_analyses(args.file, model, vocab, args.function):
        print(render_report(analysis.report(), analysis.record.source))
    return EXIT_OK


def _cmd_scan(args) -> int:
    out = _output_dir(args.out)
    model, vocab = load_checkpoint(args.checkpoint)
    scan(args.root, model, vocab, out, fmt=args.format, jobs=args.jobs)
    print((out / "summary.json").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def _cmd_attribute(args) -> int:
    model, vocab = load_checkpoint(args.checkpoint)
    dumps = [analysis.dump() for analysis
             in file_analyses(args.file, model, vocab, args.function)]
    print(json.dumps(dumps, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    model_cfg, train_cfg = _load_configs(args.config)
    try:
        weights = [float(w) for w in args.ratios.split(",") if w.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --ratios value: {args.ratios!r}") from exc
    if not weights:
        raise ConfigError("--ratios must list at least one weight")
    ratios = [(w, round(1.0 - w, 12)) for w in weights]
    records = load_dataset(args.data)
    dataset_split = split(records, train_cfg.seed)
    rows = sweep_ensemble(records, dataset_split, ratios, model_cfg, train_cfg)
    print(format_sweep_table(rows))
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "attribute": _cmd_attribute,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"vulngraph: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"vulngraph: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VulnGraphError as exc:
        print(f"vulngraph: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"vulngraph: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
