import os
import random
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import vulngraph
from vulngraph import cpus
from vulngraph.attribution import attribute_tokens
from vulngraph.corpus import split
from vulngraph.lexer import Vocabulary, build_vocab, closers, tokenize
from vulngraph.model import ModelConfig, VulnModel
from vulngraph.objectives import FocalConfig
from vulngraph.semgraph import (control_edges, data_edges, model_inputs,
                                poacher_edges, sequential_edges)
from vulngraph.synth import PlantedTruth, make_toy_corpus
from vulngraph.tensor import Matrix, SparseOperator
from vulngraph.runfiles import TrainConfig
from vulngraph.trainer import _backward_batch, _Helpers, train

#: The benchmark's desk checkpoint, which tests only read.
DESK_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / \
    "fixture" / "desk"

DESK_MODEL = dict(embed_dim=64, gcn_dim=48, gcn_layers=2, num_classes=11)
DESK_TRAIN = dict(epochs=200, learning_rate=1e-3, batch_size=8, seed=7)

#: Over 600 tokens, so the stream is truncated to the 512-token window.
LONG_SOURCE = ("int fill(char *buf, int n) {\n"
               + "".join(f"    buf[{i}] = n + {i} * buf[n];\n"
                         for i in range(60))
               + "    return n;\n}")

#: A hub: the call reads all 250 arguments and each argument reads the
#: call, so its operator row holds 252 entries, far past the padded width.
HUB_SOURCE = ("void hub(void) {\n    memcpy("
              + ", ".join(f"a{i}" for i in range(250)) + ");\n}")

#: ``g`` on lines 1-5, then ``f`` on lines 7-10, whose condition on line 8
#: never closes: the file lexes, and ``f`` cannot be graphed.
UNGRAPHABLE_FILE = ("int g(int x) {\n    int y = x + 1;\n    y = y * 2;\n"
                    "    return y;\n}\n\nint f(int x) {\n    if (x {\n"
                    "        return 1;\n    } return 0; }\n")

#: A record source that cannot be lexed and one that cannot be graphed,
#: each with the error it gives in its own line numbering.
UNLEXABLE_SOURCE = ('int f(void) {\n    puts("open);\n}',
                    "line 2: unterminated string literal")
UNGRAPHABLE_SOURCE = ("int f(int x) {\n    if (x { return 1; }\n}",
                      "unbalanced parentheses after 'if' on line 2")


def backward_batch(model, batch, cfg, grads=None):
    """``trainer._backward_batch`` run in this process alone: the batch's
    mean loss, and its gradients by parameter name, added into ``grads``
    or else into float64 zeros."""
    if grads is None:
        grads = {name: np.zeros(values.shape)
                 for name, values in model.params.items()}
    value = _backward_batch(model, batch, cfg, _Helpers(1, len(batch)), grads)
    return value, grads


def count_matrices(monkeypatch, tmp_path):
    """Count every ``tensor.Matrix`` built from now on, in this process
    and in the processes forked from it; returns the count's reader."""
    log = tmp_path / "matrices.log"
    log.touch()
    init = Matrix.__init__

    def counting(self, *args, **kwargs):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(".")
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counting)
    return lambda: log.stat().st_size


def run_python(script: str, *args) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this package;
    ``args`` become ``sys.argv[1:]``."""
    package_root = Path(vulngraph.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120)


def run_cli(*args, setup: str = "") -> subprocess.CompletedProcess:
    """``vulngraph`` with ``args`` in a fresh interpreter, run after the
    statements of ``setup``, which may patch the package."""
    return run_python(textwrap.dedent(setup) + "import sys\n"
                      "from vulngraph import cli\n"
                      "sys.exit(cli.main(sys.argv[1:]))\n", *args)


def cpus_setup(count: int) -> str:
    """A ``run_cli`` setup that lets the run use ``count`` CPUs."""
    return ("from vulngraph import cpus\nusable = cpus.usable_cpus\n"
            f"cpus.usable_cpus = lambda: ({count}, usable()[1])\n")


def crlf_file() -> bytes:
    """The first four functions of the toy corpus of seed 1 with CRLF line
    ends. The desk checkpoint predicts those at lines 9 and 25
    vulnerable."""
    return "".join(record.source + "\n"
                   for record in make_toy_corpus(seed=1)[0][:4]
                   ).replace("\n", "\r\n").encode()


def families(stream) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The stream's four edge families, each as its (src, dst) arrays."""
    parens = closers(stream.tokens, "(", ")")
    return {"sequential": sequential_edges(stream),
            "control": control_edges(stream, parens),
            "data": data_edges(stream),
            "poacher": poacher_edges(stream, parens)}


def dense_counts(stream) -> np.ndarray:
    """The edge multiplicities of the stream's four families in an n x n
    array, symmetrized by the elementwise max with the transpose and
    given self-loops."""
    n = stream.content_len
    counts = np.zeros((n, n))
    for edges in families(stream).values():
        for src, dst in zip(*edges):
            counts[src, dst] += 1.0
    counts = np.maximum(counts, counts.T)
    counts[np.arange(n), np.arange(n)] += 1.0
    return counts


def dense_adjacency(stream) -> np.ndarray:
    """The stream's graph operator built densely from the edge families,
    as it once was: ``dense_counts`` with each row divided by its sum.
    The oracle of ``build_graph``'s sparse operator."""
    counts = dense_counts(stream)
    return counts / counts.sum(axis=1, keepdims=True)


def to_dense(operator: SparseOperator) -> np.ndarray:
    """The operator's entries in an n x n array."""
    dense = np.zeros((operator.n, operator.n))
    rows = np.repeat(np.arange(operator.n), np.diff(operator.start))
    dense[rows, operator.cols] = operator.weights
    return dense


def operator_from_dense(dense: np.ndarray) -> SparseOperator:
    """A ``SparseOperator`` with the entries of ``dense``, whose nonzero
    pattern must be symmetric; unlike a graph's, it may lack self-loops."""
    rows, cols = np.nonzero(dense)
    assert np.array_equal(dense != 0, (dense != 0).T), "pattern not symmetric"
    start = np.zeros(dense.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=start[1:])
    return SparseOperator(start, cols, dense[rows, cols], dense[cols, rows])


def spearman(x, y) -> float:
    """Rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        buckets: dict[float, list[int]] = {}
        for i, val in enumerate(v):
            buckets.setdefault(float(val), []).append(i)
        for idxs in buckets.values():
            if len(idxs) > 1:
                mean_rank = float(np.mean([r[i] for i in idxs]))
                for i in idxs:
                    r[i] = mean_rank
        return r

    rx = ranks(x) - (len(x) + 1) / 2
    ry = ranks(y) - (len(y) + 1) / 2
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    if denom == 0:
        return 1.0
    return float((rx * ry).sum() / denom)


def fuzz_snippet(rng: random.Random) -> str:
    """Small balanced C-ish function exercising all edge families."""
    names = ["a", "b", "c", "idx", "buf", "ptr", "len_v", "tmp"]
    lines = ["int fn(int a, char *buf) {"]
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(7)
        n1, n2 = rng.choice(names), rng.choice(names)
        if kind == 0:
            lines.append(f"    int {n1} = {rng.randint(0, 99)};")
        elif kind == 1:
            lines.append(f"    {n1} = {n2} + {rng.randint(1, 9)};")
        elif kind == 2:
            lines.append(f"    if ({n1} > {rng.randint(0, 9)}) {{ {n2} = 0; }}")
        elif kind == 3:
            lines.append(f"    while ({n1} < 10) {{ {n1} = {n1} + 1; }}")
        elif kind == 4:
            lines.append(f"    strcpy({n1}, {n2});")
        elif kind == 5:
            lines.append(f"    {n1}[{n2}] = 0;")
        else:
            lines.append(f"    /* note {n1} */ *{n1} = {n2}; // trailing")
    lines.append("    return a;")
    lines.append("}")
    return "\n".join(lines)


def tiny_model_inputs(source: str, seed: int = 0, num_classes: int = 5,
                      embed_dim: int = 10, gcn_dim: int = 8):
    """A fresh model plus the model inputs of one snippet."""
    stream = tokenize(source)
    vocab = build_vocab([stream])
    ids, operator = model_inputs(stream, vocab)
    config = ModelConfig(vocab_size=len(vocab), embed_dim=embed_dim,
                         gcn_dim=gcn_dim, num_classes=num_classes)
    model = VulnModel(config, seed=seed)
    return model, stream, vocab, ids, operator


def gcn_weights(model) -> list[np.ndarray]:
    """The model's graph layers' weights, first layer first."""
    return [model.params[f"gcn_{layer}"]
            for layer in range(model.config.gcn_layers)]


def poison(model, damage):
    """A NaN weight, or weights whose products overflow to inf."""
    if damage == "nan":
        model.params["gcn_0"][0, 0] = np.nan
    else:
        model.params["input_proj"][...] = 1e308
        model.params["gcn_0"][...] = 1e308


def attribute(model, stream, vocab):
    """``attribute_tokens`` on the stream's inputs and base forward."""
    inputs = model_inputs(stream, vocab)
    return attribute_tokens(model, stream, model.forward(*inputs))


@pytest.fixture()
def use_cpus(monkeypatch):
    """Set how many CPUs scans and training may use, two until set, so
    that their forked paths run on a one-core host too; whether the
    platform can fork is unchanged."""
    usable = cpus.usable_cpus

    def use(count):
        monkeypatch.setattr(cpus, "usable_cpus", lambda: (count, usable()[1]))
    use(2)
    return use


@dataclass
class ToyRun:
    records: list
    truth: dict[str, PlantedTruth]
    split: object
    model: VulnModel
    vocab: Vocabulary
    log: list
    elapsed_seconds: float


@pytest.fixture(scope="session")
def toy_run() -> ToyRun:
    """Train the desk-scale model once on the synthetic corpus."""
    records, truth = make_toy_corpus(seed=0)
    dataset_split = split(records, seed=7)
    model_cfg = ModelConfig(vocab_size=4, **DESK_MODEL)
    train_cfg = TrainConfig(focal=FocalConfig(alpha=0.25, delta=2.0),
                            **DESK_TRAIN)
    started = time.time()
    result = train(records, dataset_split, model_cfg, train_cfg)
    elapsed = time.time() - started
    return ToyRun(records=records, truth=truth, split=dataset_split,
                  model=result.model, vocab=result.vocab, log=result.log,
                  elapsed_seconds=elapsed)
