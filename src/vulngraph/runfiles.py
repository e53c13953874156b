"""The files of a run: its config, its checkpoint directory and its log.

A run config is flat key=value text that ``parse_run_config`` reads:
the model settings and then the training settings of ``TrainConfig``.
It cannot set ``vocab_size``, which training takes from the vocabulary
it builds. A checkpoint directory holds params.npz (the parameters, in
the container of ``save_params``), config.txt (the same key=value text,
``vocab_size`` included, from ``config_text``) and vocab.tsv. The
training log is one JSON line per epoch.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, DataError
from .lexer import Vocabulary
from .model import ModelConfig, VulnModel
from .objectives import FocalConfig

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 6e-6
    batch_size: int = 8
    seed: int = 0
    w_cls: float = 1.0
    w_loc: float = 1.0
    focal: FocalConfig = field(default_factory=FocalConfig)
    optimizer: str = "adam"  # the only optimizer; configs name it
    min_count: int = 1  # vocabulary threshold

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # 0 is allowed so a no-op run can serve as a determinism probe.
        if not 0.0 <= self.learning_rate < math.inf:  # NaN fails too
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got "
                f"{self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.w_cls < math.inf and 0.0 <= self.w_loc < math.inf):
            raise ConfigError(
                f"loss weights must be finite and >= 0, got w_cls="
                f"{self.w_cls}, w_loc={self.w_loc}")
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


# -- checkpoint directories ---------------------------------------------------

def save_checkpoint(path: str | Path, model: VulnModel, vocab: Vocabulary,
                    train_cfg: TrainConfig | None = None) -> None:
    """Write a self-describing checkpoint directory.

    Contents: params.npz (bit-exact parameter values), config.txt
    (model and training settings as key=value text), vocab.tsv. The
    training settings are a record of the run; ``load_checkpoint`` reads
    only the model settings back.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_params(path / "params.npz", model.params)
    vocab.save(path / "vocab.tsv")
    (path / "config.txt").write_text(config_text(model.config, train_cfg),
                                     encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[VulnModel, Vocabulary]:
    """Read a directory written by ``save_checkpoint``.

    Raises DataError when a file is missing or is not UTF-8 text where
    text is due, when config.txt lacks a model key or holds a bad value,
    or when config.txt, the vocabulary and the parameters disagree.
    Other keys in config.txt are not read.
    """
    path = Path(path)
    for name in ("params.npz", "config.txt", "vocab.tsv"):
        if not (path / name).is_file():
            raise DataError(f"no checkpoint at {path} (missing {name})")
    try:
        text = (path / "config.txt").read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path / 'config.txt'}: {exc}") from exc
    try:
        model_kwargs = _typed(_settings(text), _MODEL_KEYS)
        missing = [key for key in _MODEL_KEYS if key not in model_kwargs]
        if missing:
            raise ConfigError(f"missing keys {', '.join(missing)}")
        config = ModelConfig(**model_kwargs)
    except ConfigError as exc:
        raise DataError(f"{path / 'config.txt'}: {exc}") from exc
    vocab = Vocabulary.load(path / "vocab.tsv")
    if len(vocab) != config.vocab_size:
        raise DataError(
            f"{path / 'vocab.tsv'} has {len(vocab)} entries, config.txt "
            f"says vocab_size={config.vocab_size}")
    values = load_params(path / "params.npz")
    return VulnModel(config, values=values), vocab


def save_params(path: str | Path, params: Mapping[str, np.ndarray]) -> None:
    """Write arrays by name to an .npz container; round-trips bit-exactly."""
    np.savez(path, __format_version__=np.array([CHECKPOINT_FORMAT_VERSION]),
             **params)


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by ``save_params``.

    Raises DataError when the file is not one: not an .npz archive,
    truncated or corrupt, without a supported format version that is one
    integer, or holding entries that are not integer or floating arrays.
    """
    # Own the handle: np.load leaks it when the zip directory is unreadable.
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise DataError(f"{path} is not an .npz parameter archive")
            entries = {name: archive[name] for name in archive.files}
            version = entries.pop("__format_version__")
            if version.dtype.kind not in "iu":
                raise DataError(f"{path}: the format version holds "
                                f"{version.dtype} values, not integers")
            if version.shape != (1,):
                raise DataError(f"{path}: the format version has shape "
                                f"{version.shape}, not one integer")
            if int(version[0]) != CHECKPOINT_FORMAT_VERSION:
                raise DataError(
                    f"unsupported checkpoint format version {version[0]}"
                )
            for name, values in entries.items():
                if values.dtype.kind not in "iuf":
                    raise DataError(f"{path}: parameter {name!r} holds "
                                    f"{values.dtype} values, not real numbers")
            return {name: values.astype(np.float64, copy=False)
                    for name, values in entries.items()}
        except (KeyError, IndexError, ValueError, OSError, EOFError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise DataError(
                f"unreadable parameter file {path}: {exc!r}") from exc


# -- key=value text: config.txt and run configs ----------------------------

#: The type of each key of config.txt: the fields of ``ModelConfig``
#: and of ``TrainConfig``, whose ``FocalConfig`` fields are keys
#: ``focal_<field>``, after the others.
_MODEL_KEYS = get_type_hints(ModelConfig)
_TRAIN_KEYS = {key: kind for key, kind in get_type_hints(TrainConfig).items()
               if kind is not FocalConfig}
_TRAIN_KEYS.update({f"focal_{key}": kind
                    for key, kind in get_type_hints(FocalConfig).items()})
#: The model keys of a run config: training sizes the model to the
#: vocabulary it builds, so ``vocab_size`` is not one.
_RUN_MODEL_KEYS = {key: kind for key, kind in _MODEL_KEYS.items()
                   if key != "vocab_size"}


def config_text(model_cfg: ModelConfig,
                train_cfg: TrainConfig | None = None) -> str:
    """The key=value lines of config.txt: the model settings, then the
    training settings when given, in ``_MODEL_KEYS`` and ``_TRAIN_KEYS``
    order."""
    settings = asdict(model_cfg)
    if train_cfg is not None:
        settings.update(asdict(train_cfg))
        focal = settings.pop("focal")
        settings.update({f"focal_{key}": value for key, value in focal.items()})
    return "".join(f"{key}={value}\n" for key, value in settings.items())


def _settings(text: str) -> dict[str, tuple[int, str]]:
    """Each key of flat key=value text, with its line number and raw value.

    A key given twice raises ConfigError naming both lines.
    """
    settings: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key = key.strip()
        if key in settings:
            raise ConfigError(f"config line {lineno}: key {key!r} already "
                              f"given on line {settings[key][0]}")
        settings[key] = (lineno, value.strip())
    return settings


def _typed(settings: dict[str, tuple[int, str]], types: dict) -> dict:
    """The settings that ``types`` names, each converted to its type."""
    typed = {}
    for key, convert in types.items():
        if key not in settings:
            continue
        lineno, value = settings[key]
        try:
            typed[key] = convert(value)
        except ValueError as exc:
            raise ConfigError(
                f"config line {lineno}: bad value for {key!r}: {value!r}"
            ) from exc
    return typed


def parse_run_config(text: str) -> tuple[dict, dict]:
    """Split a run config's flat key=value text into model and training
    settings.

    Returns (model_kwargs, train_kwargs); unknown keys, ``vocab_size``
    among them, raise ConfigError so typos in config files fail loudly.
    """
    settings = _settings(text)
    for key, (lineno, _) in settings.items():
        if key not in _RUN_MODEL_KEYS and key not in _TRAIN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    return _typed(settings, _RUN_MODEL_KEYS), _training_settings(settings)


def _training_settings(settings: dict[str, tuple[int, str]]) -> dict:
    """The training settings among ``settings``, typed, with the
    ``focal_`` keys given as one ``FocalConfig``."""
    train_kwargs = _typed(settings, _TRAIN_KEYS)
    focal = {key.removeprefix("focal_"): train_kwargs.pop(key)
             for key in list(train_kwargs) if key.startswith("focal_")}
    if focal:
        train_kwargs["focal"] = FocalConfig(**focal)
    return train_kwargs


def write_log(log: Sequence[dict], path: str | Path) -> None:
    """One JSON line per epoch: epoch, train_loss, val_loss, val_f1, val_iou."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")
