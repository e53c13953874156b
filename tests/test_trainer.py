import dataclasses
import math
import os
import pickle
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

import vulngraph.lexer as lexer_module
import vulngraph.trainer as trainer_module
from vulngraph import cli, cpus, tensor
from vulngraph.corpus import FunctionRecord, save_dataset, select, split
from vulngraph.errors import (ConfigError, DataError, GradientError,
                              TrainingError)
from vulngraph.lexer import build_vocab, tokenize
from vulngraph.model import ModelConfig, VulnModel
from vulngraph.objectives import FocalConfig
from vulngraph.semgraph import build_graph, model_inputs
from vulngraph.synth import make_toy_corpus
from vulngraph.trainer import (EncodedSample, TrainConfig, evaluate,
                               label_index, load_checkpoint, parse_run_config,
                               prepare_sample, save_checkpoint, sweep_ensemble,
                               train, train_config_to_text, _backward_batch,
                               format_sweep_table)

from conftest import DESK_MODEL, LONG_SOURCE, run_python
from oracles import tape_sample_loss

TINY_MODEL = dict(embed_dim=16, gcn_dim=12, num_classes=11)

#: The training lines of a config.txt written by earlier releases, which
#: still carried the retired sweep_mode key.
EARLIER_TRAIN_LINES = """\
epochs=200
learning_rate=0.001
batch_size=8
seed=7
w_cls=1.0
w_loc=1.0
optimizer=adam
min_count=1
sweep_mode=retrain
focal_alpha=0.25
focal_delta=2.0
"""


def tiny_corpus():
    records, _ = make_toy_corpus(seed=1)
    return records, split(records, seed=2)


def edit_lines(edit):
    """A checkpoint-file edit applied to the file's lines."""
    def apply(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return apply


def set_key(key, value):
    """A config.txt edit that replaces one key's value."""
    return edit_lines(lambda lines: [
        f"{key}={value}" if l.startswith(f"{key}=") else l for l in lines])


def set_entry(name, value):
    """A params.npz edit that overwrites the first element of one entry."""
    def apply(path):
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
        np.savez(path, **arrays)
    return apply


def truncate(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def one_tape_batch_loss(model, batch, cfg):
    """The batch's mean loss on one tape over every sample.

    The oracle for ``_backward_batch``, which differentiates one sample at
    a time without a tape.
    """
    total = None
    for sample in batch:
        nodes = model.forward_nodes(sample.ids, sample.operator)
        loss = tape_sample_loss(nodes.class_logits, nodes.loc_pred, sample,
                                cfg)
        total = loss if total is None else tensor.add(total, loss)
    return tensor.scale(total, 1.0 / len(batch))


def count_tokenized(monkeypatch):
    """Every source that ``tokenize`` is called on, in call order."""
    tokenize = lexer_module.tokenize
    tokenized = []

    def counting(source):
        tokenized.append(source)
        return tokenize(source)

    monkeypatch.setattr(lexer_module, "tokenize", counting)
    monkeypatch.setattr(trainer_module, "tokenize", counting)
    return tokenized


def count_passes(monkeypatch, name):
    """A list that grows by one on each call of the ``VulnModel`` method
    ``name``."""
    method = getattr(VulnModel, name)
    calls = []

    def counting(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(VulnModel, name, counting)
    return calls


def tiny_train_cfg(**overrides):
    base = dict(epochs=3, learning_rate=1e-3, batch_size=8, seed=2,
                focal=FocalConfig(alpha=0.25, delta=2.0))
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture()
def use_cpus(monkeypatch):
    """Set how many CPUs training may use, so that the forked path runs
    on a one-core host too; whether the platform can fork is unchanged."""
    usable = cpus.usable_cpus

    def use(count):
        monkeypatch.setattr(cpus, "usable_cpus",
                            lambda: (count, usable()[1]))
    return use


def oracle_batch():
    """A model trained for one epoch, and a batch of four benign and four
    vulnerable samples alternating."""
    records, ds = tiny_corpus()
    cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
    result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
    benign = [r for r in records if not r.is_vulnerable][:4]
    vulnerable = [r for r in records if r.is_vulnerable][:4]
    batch = [prepare_sample(r, result.vocab, 11)
             for pair in zip(benign, vulnerable) for r in pair]
    assert len(batch) == 8
    return result.model, batch


def one_tape_gradients(model, batch, cfg):
    """The oracle's batch loss and every parameter's gradient."""
    model.zero_grad()
    loss = one_tape_batch_loss(model, batch, cfg)
    tensor.backward(loss)
    expected = [p.grad.copy() for p in model.parameters()]
    model.zero_grad()
    return loss.item(), expected


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLabelIndex:
    def test_benign_is_zero(self):
        record = FunctionRecord(id="b", source="x;", language="c")
        assert label_index(record, 11) == 0

    def test_multiclass_uses_catalog(self):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="CWE-119", vul_start=1, vul_end=1)
        assert label_index(record, 11) == 1
        record = FunctionRecord(id="v2", source="x;", language="c",
                                cwe="CWE-190", vul_start=1, vul_end=1)
        assert label_index(record, 11) == 10

    def test_binary_mode_collapses_labels(self):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="VULN", vul_start=1, vul_end=1)
        assert label_index(record, 2) == 1

    def test_classfree_label_needs_binary_model(self):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="VULN", vul_start=1, vul_end=1)
        with pytest.raises(DataError, match="binary"):
            label_index(record, 11)


def adam_oracle_step(params, m, v, t, lr, beta1=0.9, beta2=0.999,
                     eps=1e-8):
    """The Adam update as whole-array expressions, one temporary per
    term: the oracle of the in-place ``Adam.step``."""
    for i, p in enumerate(params):
        g = p.grad
        m[i] = beta1 * m[i] + (1 - beta1) * g
        v[i] = beta2 * v[i] + (1 - beta2) * g * g
        m_hat = m[i] / (1 - beta1 ** t)
        v_hat = v[i] / (1 - beta2 ** t)
        p.value.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


#: Slice bounds over the 125 elements of ``TestAdam``'s parameters, whose
#: ranges are p0 0-42, p1 42-45, p2 45-75 and p3 75-125.
ADAM_SLICINGS = [
    [0, 125],  # one process: the whole vector
    [0, 62, 125],  # two: inside p2, and inside the first slice's 4th block
    [0, 41, 83, 125],  # three: inside p0 and p3, and inside blocks
    [0, 20, 43, 44, 125],  # on a block's edge, inside p1, one element
]


class TestAdam:
    def test_in_place_step_equals_the_whole_array_formula(self,
                                                         monkeypatch):
        # a small block, so that slices span several blocks and a
        # parameter spans several slices
        monkeypatch.setattr(trainer_module, "ADAM_BLOCK", 20)
        shapes = [(7, 6), (1, 3), (30, 1), (2, 25)]
        for bounds in ADAM_SLICINGS:
            rng = np.random.default_rng(5)
            fast = [tensor.Parameter(rng.normal(size=s), f"p{i}")
                    for i, s in enumerate(shapes)]
            slow = [tensor.Parameter(p.data.copy(), p.name) for p in fast]
            state = trainer_module._share(fast)
            assert state.shape == (4, bounds[-1])
            optimizers = [
                trainer_module.Adam(state, lr=0.01, part=slice(lo, hi))
                for lo, hi in zip(bounds, bounds[1:])]
            m = [np.zeros(s) for s in shapes]
            v = [np.zeros(s) for s in shapes]
            for t in range(1, 6):
                for a, b in zip(fast, slow):
                    grad = (rng.normal(size=a.shape)
                            * 10.0 ** rng.integers(-8, 3))
                    grad[rng.random(a.shape) < 0.3] = 0.0
                    a.grad[...] = grad
                    b.grad[...] = grad
                for optimizer in optimizers:
                    optimizer.step()
                adam_oracle_step(slow, m, v, t, lr=0.01)
                for a, b in zip(fast, slow):
                    assert np.array_equal(a.data, b.data), (bounds, t, a.name)
                    assert not a.grad.any(), (bounds, t, a.name)
                for mine, theirs in zip(state[2:], (m, v)):
                    flat = np.concatenate([x.ravel() for x in theirs])
                    assert np.array_equal(mine, flat), (bounds, t)

    def test_empty_slice_steps_nothing(self):
        # a process gets an empty slice when the flat vector has fewer
        # elements than there are training processes
        state = np.arange(60.0).reshape(4, 15)
        optimizer = trainer_module.Adam(state, 0.01, part=slice(3, 3))
        optimizer.step()
        assert np.array_equal(state, np.arange(60.0).reshape(4, 15))


class TestPrepareSample:
    def test_unlexable_text_past_the_window_is_truncated(self):
        # the unterminated literal lies past the window, so it is never lexed
        record = FunctionRecord(id="long", language="c", source=(
            "void f() {\n" + "x = 1;\n" * 200 + 'y = "never closed;\n}'))
        sample = prepare_sample(record, build_vocab([]), 11)
        assert sample.ids.shape == (512,)
        assert sample.operator.n == 512

    def test_holds_no_n_squared_array(self):
        record = FunctionRecord(id="long", language="c", source=LONG_SOURCE)
        graph = build_graph(tokenize(LONG_SOURCE))
        sample = prepare_sample(record, build_vocab([LONG_SOURCE]), 11)
        n = graph.stream.content_len
        assert n == sample.operator.n == 512

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tensor.SparseOperator):
                for name in tensor.SparseOperator.__slots__:
                    yield from arrays(getattr(value, name, None))
            elif dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    yield from arrays(getattr(value, f.name))

        held = [*arrays(graph), *arrays(sample)]
        assert len(held) > 10
        assert max(a.size for a in held) < n * n // 16


class TestTrain:
    def test_zero_learning_rate_is_identity(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(
            epochs=2, learning_rate=0.0))
        reference = VulnModel(result.model.config, seed=2)
        for trained, fresh in zip(result.model.parameters(),
                                  reference.parameters()):
            assert np.array_equal(trained.data, fresh.data), trained.name

    def test_deterministic_for_fixed_seed(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        a = train(records, ds, cfg, tiny_train_cfg())
        b = train(records, ds, cfg, tiny_train_cfg())
        assert [e["train_loss"] for e in a.log] == [
            e["train_loss"] for e in b.log]
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_loss_decreases_on_toy_corpus(self, toy_run):
        assert toy_run.log[-1]["train_loss"] < toy_run.log[0]["train_loss"]

    def test_benign_batch_gives_zero_localization_gradient(self):
        records, ds = tiny_corpus()
        benign = [r for r in records if not r.is_vulnerable][:4]
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
        model, vocab = result.model, result.vocab
        samples = [prepare_sample(r, vocab, 11) for r in benign]
        model.zero_grad()
        _backward_batch(model, samples, tiny_train_cfg())
        assert np.array_equal(model.loc_weight.grad,
                              np.zeros_like(model.loc_weight.grad))
        assert np.array_equal(model.loc_bias.grad,
                              np.zeros_like(model.loc_bias.grad))
        assert np.abs(model.cls_weight.grad).sum() > 0

    def test_divergence_aborts_with_diagnostics(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train(records, ds, cfg, tiny_train_cfg(
                    epochs=6, learning_rate=1e160))

    def test_batch_gradients_equal_one_tape_oracle(self):
        model, batch = oracle_batch()
        loss, expected = one_tape_gradients(model, batch, tiny_train_cfg())
        value = _backward_batch(model, batch, tiny_train_cfg())
        assert value == loss
        for p, grad in zip(model.parameters(), expected):
            assert np.array_equal(p.grad, grad), p.name
        assert np.abs(model.loc_weight.grad).sum() > 0

    def test_batch_keeps_one_tape_alive(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, embed_dim=64, gcn_dim=48,
                          num_classes=11)
        train(records, ds, cfg, tiny_train_cfg(epochs=1))  # warm caches
        peaks = {}
        for batch_size in (1, 8):
            tracemalloc.start()
            try:
                train(records, ds, cfg,
                      tiny_train_cfg(epochs=1, batch_size=batch_size))
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.25 * peaks[1], peaks

    @pytest.mark.parametrize("held", [False, True])
    def test_sample_peaks_under_ten_activation_arrays(self, held):
        # at gcn_dim 128 and 512 positions the n x gcn_dim arrays dominate;
        # a tape that holds every node, value and gradient until the walk
        # ends peaks near 17 of them, and the forward pass with the
        # backward over its arrays near 6
        vocab = build_vocab([LONG_SOURCE])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=16,
                                      gcn_dim=128), seed=1)
        sample = EncodedSample(
            *model_inputs(build_graph(tokenize(LONG_SOURCE)), vocab),
            label=3, line_count=LONG_SOURCE.count("\n") + 1,
            truth_range=(2, 5))
        array_bytes = sample.ids.size * 128 * 8
        tracemalloc.start()
        try:
            out = trainer_module._sample_output(model, sample)
            result = trainer_module._sample_gradients(
                model, sample, out, TrainConfig(), 0.5, held)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not isinstance(result, Exception), result
        assert sample.ids.size == 512
        assert peak < 10 * array_bytes, peak / array_bytes

    def test_tokenizes_each_record_once(self, monkeypatch):
        records, ds = tiny_corpus()
        tokenized = count_tokenized(monkeypatch)
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
        used = select(records, ds.train) + select(records, ds.val)
        assert sorted(tokenized) == sorted(r.source for r in used)
        assert result.vocab == build_vocab(select(records, ds.train))

    def test_validation_records_no_tape(self, monkeypatch, use_cpus):
        # neither validation nor training: both run the one forward pass
        use_cpus(1)  # the counters see the passes of this process
        records, ds = tiny_corpus()
        assert ds.val
        taped = count_passes(monkeypatch, "forward_nodes")
        passes = count_passes(monkeypatch, "forward")
        from_op = tensor.from_op
        nodes = []
        monkeypatch.setattr(tensor, "from_op",
                            lambda *args: nodes.append(1) or from_op(*args))
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        train(records, ds, cfg, tiny_train_cfg(epochs=1))
        assert (taped, nodes) == ([], [])
        assert len(passes) == len(ds.train) + len(ds.val)

    def test_log_schema(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(epochs=2))
        assert [e["epoch"] for e in result.log] == [1, 2]
        for entry in result.log:
            assert set(entry) == {"epoch", "train_loss", "val_loss",
                                  "val_f1", "val_iou"}

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(),
        TrainConfig(epochs=7, learning_rate=2.5e-4, batch_size=3, seed=11,
                    w_cls=0.7, w_loc=1.3, focal=FocalConfig(0.4, 1.5),
                    min_count=2),
    ], ids=["default", "custom"])
    def test_config_text_round_trip(self, cfg):
        model_kwargs, train_kwargs = parse_run_config(
            train_config_to_text(cfg))
        assert model_kwargs == {}
        assert TrainConfig(**train_kwargs) == cfg


class TestEvaluate:
    def test_overfit_toy_model_scores_high(self, toy_run):
        train_records = select(toy_run.records, toy_run.split.train)
        report = evaluate(toy_run.model, train_records, toy_run.vocab)
        assert report.accuracy >= 0.95
        assert report.mean_iou is not None and report.mean_iou >= 0.8

    def test_all_benign_split_has_no_iou(self, toy_run):
        benign = [r for r in toy_run.records if not r.is_vulnerable][:5]
        report = evaluate(toy_run.model, benign, toy_run.vocab)
        assert report.mean_iou is None
        assert report.mean_iou_vulnerable is None
        assert report.accuracy == 1.0

    def test_repeated_evaluation_identical(self, toy_run):
        records = select(toy_run.records, toy_run.split.train)[:6]
        a = evaluate(toy_run.model, records, toy_run.vocab)
        b = evaluate(toy_run.model, records, toy_run.vocab)
        assert a.to_json() == b.to_json()

    def test_empty_split_rejected(self, toy_run):
        with pytest.raises(DataError):
            evaluate(toy_run.model, [], toy_run.vocab)


class TestCheckpoint:
    def test_round_trip_reproduces_metrics_bit_exact(self, tmp_path, toy_run):
        records = select(toy_run.records, toy_run.split.train)[:8]
        before = evaluate(toy_run.model, records, toy_run.vocab)
        save_checkpoint(tmp_path / "ckpt", toy_run.model, toy_run.vocab)
        model, vocab = load_checkpoint(tmp_path / "ckpt")
        after = evaluate(model, records, vocab)
        assert before.to_json() == after.to_json()
        for pa, pb in zip(toy_run.model.parameters(), model.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_earlier_config_format_loads(self, tmp_path, toy_run):
        records = select(toy_run.records, toy_run.split.train)[:8]
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, toy_run.model, toy_run.vocab)
        config = ckpt / "config.txt"
        config.write_text(config.read_text(encoding="utf-8")
                          + EARLIER_TRAIN_LINES, encoding="utf-8")
        model, vocab = load_checkpoint(ckpt)
        assert model.config == toy_run.model.config
        assert vocab == toy_run.vocab
        for pa, pb in zip(toy_run.model.parameters(), model.parameters()):
            assert np.array_equal(pa.data, pb.data)
        assert evaluate(model, records, vocab).to_json() == evaluate(
            toy_run.model, records, toy_run.vocab).to_json()

    @pytest.mark.parametrize("name, edit, message", [
        pytest.param(None, None, "missing params.npz", id="no-checkpoint"),
        pytest.param("params.npz", None, "missing params.npz", id="no-params"),
        pytest.param("config.txt", None, "missing config.txt", id="no-config"),
        pytest.param("vocab.tsv", None, "missing vocab.tsv", id="no-vocab"),
        pytest.param("vocab.tsv",
                     edit_lines(lambda lines: lines[:len(lines) // 2]),
                     "vocab_size", id="short-vocab"),
        pytest.param("config.txt", edit_lines(lambda lines: [
            l for l in lines if not l.startswith("embed_weight=")]),
            "missing keys embed_weight", id="no-model-key"),
        pytest.param("config.txt", set_key("gcn_dim", 7), "shape",
                     id="wrong-shape"),
        pytest.param("config.txt", set_key("gcn_layers", 1),
                     "unexpected parameters", id="extra-parameter"),
        pytest.param("config.txt", set_key("embed_dim", "wide"), "bad value",
                     id="bad-value"),
        pytest.param("params.npz", set_entry("gcn_0", np.nan), "non-finite",
                     id="nan-weight"),
        pytest.param("params.npz", set_entry("embedding", np.inf),
                     "non-finite", id="inf-embedding"),
        pytest.param("params.npz", truncate, "unreadable", id="truncated"),
        pytest.param("params.npz",
                     lambda path: path.write_bytes(b"not an archive\n" * 8),
                     "unreadable", id="not-zip"),
        pytest.param("params.npz", set_entry("__format_version__", 2),
                     "format version 2", id="format-version-2"),
    ])
    def test_missing_checkpoint_is_data_error(self, tmp_path, name, edit,
                                              message):
        ckpt = tmp_path / "nowhere"
        if name is not None:
            records, _ = tiny_corpus()
            vocab = build_vocab(records)
            model = VulnModel(ModelConfig(vocab_size=len(vocab), **TINY_MODEL))
            save_checkpoint(ckpt, model, vocab)
            # in the earlier format, so its extra keys cannot mask damage
            with (ckpt / "config.txt").open("a", encoding="utf-8") as fh:
                fh.write(EARLIER_TRAIN_LINES)
            if edit is None:
                (ckpt / name).unlink()
            else:
                edit(ckpt / name)
        with pytest.raises(DataError, match=message):
            load_checkpoint(ckpt)


class TestSweep:
    def test_endpoint_ratios(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        rows = sweep_ensemble(records, ds, [(1.0, 0.0), (0.0, 1.0)], cfg,
                              tiny_train_cfg(epochs=2))
        assert len(rows) == 2
        assert rows[0]["embed_weight"] == 1.0
        assert rows[1]["graph_weight"] == 1.0

    def test_table_shape_and_reproducibility(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        ratios = [(w, round(1.0 - w, 12)) for w in (0.2, 0.4, 0.5, 0.6, 0.8)]
        tcfg = tiny_train_cfg(epochs=2)
        rows_a = sweep_ensemble(records, ds, ratios, cfg, tcfg)
        rows_b = sweep_ensemble(records, ds, ratios, cfg, tcfg)
        assert rows_a == rows_b
        assert len(rows_a) == 5
        for row in rows_a:
            assert set(row) == {"embed_weight", "graph_weight", "iou",
                                "accuracy", "f1", "precision", "recall"}
        table = format_sweep_table(rows_a)
        assert len(table.splitlines()) == 7  # header + rule + 5 rows

    def test_invalid_ratio_rejected(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        with pytest.raises(ConfigError, match="sum to 1"):
            sweep_ensemble(records, ds, [(0.5, 0.6)], cfg, tiny_train_cfg())

    def test_tokenizes_each_record_once(self, monkeypatch):
        records, ds = tiny_corpus()
        tokenized = count_tokenized(monkeypatch)
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        sweep_ensemble(records, ds, [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)], cfg,
                       tiny_train_cfg(epochs=1))
        used = (select(records, ds.train) + select(records, ds.val)
                + select(records, ds.test))
        assert sorted(tokenized) == sorted(r.source for r in used)

    @pytest.mark.parametrize("bad", [(1.5, -0.5), (math.nan, math.nan)],
                             ids=["negative", "nan"])
    def test_bad_ratio_rejected_before_any_work(self, monkeypatch, bad):
        records, ds = tiny_corpus()
        tokenized = count_tokenized(monkeypatch)
        passes = count_passes(monkeypatch, "forward")
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        with pytest.raises(ConfigError, match="non-negative"):
            sweep_ensemble(records, ds, [(0.5, 0.5), bad], cfg,
                           tiny_train_cfg())
        assert (tokenized, passes) == ([], [])


#: The desk-width run configuration of ``TestForkedTraining``.
DESK_RUN = "".join(f"{key}={value}\n" for key, value in dict(
    DESK_MODEL, epochs=3, learning_rate=1e-3, seed=2).items())


def train_outputs(tmp_path, name, batch_size):
    """log.jsonl bytes and each parameter's bytes of a ``vulngraph train``
    run over the tiny corpus, at desk width."""
    data, config = tmp_path / "data.jsonl", tmp_path / f"{name}.cfg"
    if not data.exists():
        save_dataset(tiny_corpus()[0], data)
    config.write_text(DESK_RUN + f"batch_size={batch_size}\n",
                      encoding="utf-8")
    out = tmp_path / name
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0
    return written_outputs(out)


def written_outputs(out):
    """log.jsonl bytes and each parameter's bytes of the run in ``out``."""
    with np.load(out / "params.npz") as params:
        arrays = {key: params[key].tobytes() for key in params.files}
    return (out / "log.jsonl").read_bytes(), arrays


def fail_in(monkeypatch, target_ids):
    """Make ``forward`` raise a GradientError on one sample's ids."""
    forward = VulnModel.forward

    def failing(self, ids, operator):
        if np.array_equal(ids, target_ids):
            raise GradientError(f"non-finite values in the layer gcn_0 "
                                f"({ids.size} ids)")
        return forward(self, ids, operator)

    monkeypatch.setattr(VulnModel, "forward", failing)


class TestForkedTraining:
    """Training whose batches are shared with forked helper processes
    gives the one-process results bit for bit. More processes than this
    host's cores is part of the point."""

    @pytest.mark.parametrize("batch_size", [8, 5, 1],
                             ids=["uneven-last", "last-of-one", "one"])
    def test_outputs_equal_one_process(self, tmp_path, use_cpus,
                                       batch_size):
        use_cpus(1)
        serial = train_outputs(tmp_path, "p1", batch_size)
        for processes in (2, 3):
            use_cpus(processes)
            assert train_outputs(tmp_path, f"p{processes}",
                                 batch_size) == serial, processes
        no_child_left()

    def test_sweep_rows_equal_one_process(self, use_cpus):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        rows = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            rows.append(sweep_ensemble(records, ds, [(0.2, 0.8), (0.5, 0.5)],
                                       cfg, tiny_train_cfg(epochs=2)))
        assert rows == [rows[0]] * 3

    @pytest.mark.parametrize("processes", [2, 3])
    def test_batch_gradients_equal_one_tape_oracle(self, processes):
        model, batch = oracle_batch()
        loss, expected = one_tape_gradients(model, batch, tiny_train_cfg())
        trainer_module._share(model.parameters())

        def run(helpers):
            return _backward_batch(model, batch, tiny_train_cfg(), helpers)

        with trainer_module._Helpers(processes, len(batch), run) as helpers:
            value = run(helpers)
        assert value == loss
        for p, grad in zip(model.parameters(), expected):
            assert np.array_equal(p.grad, grad), p.name
        no_child_left()

    def test_helper_exception_raises_the_serial_error(self, monkeypatch,
                                                      use_cpus):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        train_cfg = tiny_train_cfg()
        vocab, samples, val_samples = trainer_module._prepare(
            records, ds, 11, 1)
        order = np.arange(len(samples))
        np.random.default_rng(train_cfg.seed).shuffle(order)
        # the second sample of the first batch runs in a helper
        fail_in(monkeypatch, samples[order[1]].ids)
        errors = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            with pytest.raises(TrainingError) as caught:
                trainer_module._fit(vocab, samples, val_samples, cfg,
                                    train_cfg)
            errors.append(str(caught.value))
            no_child_left()
        assert errors[0].startswith(
            "non-finite values in forward pass (non-finite values in the "
            "layer gcn_0")
        assert errors == [errors[0]] * 3

    def test_divergence_text_equals_one_process(self, use_cpus):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        errors = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            with pytest.raises(TrainingError) as caught:
                train(records, ds, cfg, tiny_train_cfg(
                    epochs=6, learning_rate=1e160))
            errors.append(str(caught.value))
            no_child_left()
        assert errors == [errors[0]] * 3

    def test_validation_overflow_text_equals_one_process(self, use_cpus):
        # one batch per epoch: its forward passes see the first values,
        # and only validation sees what the one huge step made of them
        records, ds = tiny_corpus()
        assert len(ds.val) >= 3
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        errors = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            with pytest.raises(TrainingError) as caught:
                train(records, ds, cfg, tiny_train_cfg(
                    epochs=1, batch_size=len(ds.train), learning_rate=1e300))
            errors.append(str(caught.value))
            no_child_left()
        assert errors[0].startswith("non-finite values in validation (")
        assert errors == [errors[0]] * 3

    def test_look_ahead_error_waits_for_its_turn(self, monkeypatch, tmp_path,
                                                 use_cpus):
        """At two processes the helper runs sample 1, and while sample 0
        is still running, its look-ahead forward of sample 3 raises; the
        error raised is still sample 2's, as in one process."""
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        train_cfg = tiny_train_cfg()
        vocab, samples, val_samples = trainer_module._prepare(
            records, ds, 11, 1)
        order = np.arange(len(samples))
        np.random.default_rng(train_cfg.seed).shuffle(order)
        first = [samples[i].ids for i in order[:4]]
        trail = tmp_path / "forwards.txt"
        forward = VulnModel.forward

        def misbehaving(self, ids, operator):
            j = next((j for j, f in enumerate(first)
                      if np.array_equal(ids, f)), None)
            if j is not None:
                with trail.open("a", encoding="utf-8") as fh:
                    fh.write(f"{j}\n")
            if j == 0:
                time.sleep(0.5)
            if j in (2, 3):
                raise GradientError(f"non-finite values in sample {j}")
            return forward(self, ids, operator)

        monkeypatch.setattr(VulnModel, "forward", misbehaving)
        errors = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            trail.write_text("", encoding="utf-8")
            with pytest.raises(TrainingError) as caught:
                trainer_module._fit(vocab, samples, val_samples, cfg,
                                    train_cfg)
            errors.append(str(caught.value))
            no_child_left()
            if processes == 2:
                forwards = trail.read_text(encoding="utf-8").split()
                assert forwards.index("3") < forwards.index("2"), forwards
        assert errors[0].startswith(
            "non-finite values in forward pass (non-finite values in "
            "sample 2)")
        assert errors == [errors[0]] * 3

    def test_no_sample_is_pickled(self, monkeypatch, use_cpus):
        """Every process indexes its own copy of the samples."""
        def refuse(self):
            raise AssertionError("an EncodedSample was pickled")

        monkeypatch.setattr(trainer_module.EncodedSample, "__reduce__",
                            refuse, raising=False)
        records, ds = tiny_corpus()
        sample = prepare_sample(records[0], build_vocab([]), 11)
        with pytest.raises(AssertionError, match="pickled"):
            pickle.dumps(sample)
        use_cpus(2)
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg())
        assert len(result.log) == 3
        no_child_left()

    def test_dead_helper_exits_three_without_traceback(self, tmp_path):
        data, config = tmp_path / "data.jsonl", tmp_path / "run.cfg"
        save_dataset(tiny_corpus()[0], data)
        config.write_text(DESK_RUN + "batch_size=8\n", encoding="utf-8")
        script = textwrap.dedent("""\
            import os, sys
            from vulngraph import cli, cpus
            from vulngraph.model import VulnModel
            cpus.usable_cpus = lambda: (2, True)
            parent, forward = os.getpid(), VulnModel.forward

            def dying(self, *args):
                if os.getpid() != parent:
                    os._exit(7)
                return forward(self, *args)

            VulnModel.forward = dying
            sys.exit(cli.main(sys.argv[1:]))
            """)
        done = run_python(script, "train", "--config", config, "--data",
                          data, "--out", tmp_path / "out")
        assert done.returncode == 3, done.stderr
        assert done.stderr == ("vulngraph: error: a training worker "
                               "process died: exit code 7\n")
        assert not (tmp_path / "out" / "log.jsonl").exists()

    def test_cli_import_loads_no_process_modules(self):
        done = run_python(
            "import sys, vulngraph.cli; "
            "print(sorted({'mmap', 'multiprocessing'} & set(sys.modules)))")
        assert done.stdout == "[]\n", done.stderr

    @pytest.mark.parametrize("processes", [1, 2])
    def test_outputs_equal_without_the_allocator_policy(self, tmp_path,
                                                        processes):
        """``cli.main`` pins glibc's allocator thresholds first; a run with
        that step replaced by a no-op writes the same bytes."""
        data, config = tmp_path / "data.jsonl", tmp_path / "run.cfg"
        save_dataset(tiny_corpus()[0], data)
        config.write_text(DESK_RUN + "batch_size=8\n", encoding="utf-8")
        script = """\
            import sys
            from vulngraph import cli, cpus
            processes, policy = int(sys.argv[1]), sys.argv[2]
            usable = cpus.usable_cpus
            cpus.usable_cpus = lambda: (processes, usable()[1])
            if policy == "off":
                cli._keep_freed_memory = lambda: None
            sys.exit(cli.main(sys.argv[3:]))
            """
        outputs = []
        for policy in ("on", "off"):
            out = tmp_path / policy
            done = run_python(script, processes, policy, "train", "--config",
                              config, "--data", data, "--out", out)
            assert done.returncode == 0, done.stderr
            outputs.append(written_outputs(out))
        assert outputs[0] == outputs[1]
