"""Command-line interface.

Subcommands: train, eval, analyze, scan, attribute, sweep. Exit codes:
0 success, 1 usage error, 2 data error, 3 internal error. The
VULNGRAPH_SEED environment variable overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .attribution import attribute_tokens, attribution_dump, localize
from .corpus import load_dataset, split
from .errors import ConfigError, DataError, VulnGraphError
from .lexer import tokenize
from .model import ModelConfig
from .scanner import (SOURCE_EXTENSIONS, analyze, file_functions,
                      render_report, scan)
from .semgraph import build_graph, model_inputs
from .trainer import (TrainConfig, evaluate, format_sweep_table,
                      load_checkpoint, parse_run_config, save_checkpoint,
                      sweep_ensemble, train, write_log)

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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    model_kwargs, train_kwargs = parse_run_config(text)
    env_seed = os.environ.get("VULNGRAPH_SEED")
    if env_seed is not None:
        try:
            train_kwargs["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(
                f"VULNGRAPH_SEED must be an integer, got {env_seed!r}"
            ) from exc
    model_kwargs.setdefault("vocab_size", 4)  # resized to the real vocab
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def _functions_from_file(path: str, function: str | None):
    source_path = Path(path)
    if not source_path.is_file():
        raise DataError(f"no such file: {path}")
    records = (file_functions(source_path, source_path.name)
               if source_path.suffix in SOURCE_EXTENSIONS else [])
    if function is not None:
        records = [r for r in records if r.id.endswith(f":{function}")]
        if not records:
            raise DataError(f"no function named {function!r} in {path}")
    if not records:
        raise DataError(f"no function definitions found in {path}")
    return records


def _cmd_train(args) -> int:
    model_cfg, train_cfg = _load_configs(args.config)
    records = load_dataset(args.data)
    dataset_split = split(records, train_cfg.seed)
    train_cfg = replace(train_cfg, checkpoint_dir=None)
    result = train(records, dataset_split, model_cfg, train_cfg)
    out = Path(args.out)
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
    for record in _functions_from_file(args.file, args.function):
        report = analyze(record, model, vocab)
        print(render_report(report, record.source))
    return EXIT_OK


def _cmd_scan(args) -> int:
    model, vocab = load_checkpoint(args.checkpoint)
    summary = scan(args.root, model, vocab, args.out, fmt=args.format,
                   jobs=args.jobs)
    print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_attribute(args) -> int:
    model, vocab = load_checkpoint(args.checkpoint)
    dumps = []
    for record in _functions_from_file(args.file, args.function):
        stream = tokenize(record.source)
        graph = build_graph(stream)
        attribution = attribute_tokens(model, stream, graph, vocab)
        output = model.forward(*model_inputs(graph, vocab))
        root_cause = None
        if output.predicted_class != 0:
            root_cause = localize(output.loc_pred, attribution.line_scores,
                                  record.line_count).root_cause
        payload = attribution_dump(attribution, root_cause)
        payload["function_id"] = record.id
        dumps.append(payload)
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
