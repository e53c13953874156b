import numpy as np
import pytest

import vulngraph.trainer as trainer_module
from vulngraph import tensor
from vulngraph.corpus import FunctionRecord, select, split
from vulngraph.errors import ConfigError, DataError, TrainingError
from vulngraph.lexer import build_vocab
from vulngraph.model import ModelConfig, VulnModel
from vulngraph.objectives import FocalConfig
from vulngraph.synth import make_toy_corpus
from vulngraph.trainer import (TrainConfig, evaluate, label_index,
                               load_checkpoint, prepare_sample, save_checkpoint,
                               sweep_ensemble, train, _batch_loss,
                               format_sweep_table)

TINY_MODEL = dict(embed_dim=16, gcn_dim=12, num_classes=11)


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


def tiny_train_cfg(**overrides):
    base = dict(epochs=3, learning_rate=1e-3, batch_size=8, seed=2,
                focal=FocalConfig(alpha=0.25, delta=2.0))
    base.update(overrides)
    return TrainConfig(**base)


class TestLabelIndex:
    def test_benign_is_zero(self, catalog):
        record = FunctionRecord(id="b", source="x;", language="c")
        assert label_index(record, 11, catalog) == 0

    def test_multiclass_uses_catalog(self, catalog):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="CWE-119", vul_start=1, vul_end=1)
        assert label_index(record, 11, catalog) == 1
        record = FunctionRecord(id="v2", source="x;", language="c",
                                cwe="CWE-190", vul_start=1, vul_end=1)
        assert label_index(record, 11, catalog) == 10

    def test_binary_mode_collapses_labels(self, catalog):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="VULN", vul_start=1, vul_end=1)
        assert label_index(record, 2, catalog) == 1

    def test_classfree_label_needs_binary_model(self, catalog):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="VULN", vul_start=1, vul_end=1)
        with pytest.raises(DataError, match="binary"):
            label_index(record, 11, catalog)


class TestPrepareSample:
    def test_unlexable_text_past_the_window_is_truncated(self, catalog):
        # the unterminated literal lies past the window, so it is never lexed
        record = FunctionRecord(id="long", language="c", source=(
            "void f() {\n" + "x = 1;\n" * 200 + 'y = "never closed;\n}'))
        sample = prepare_sample(record, build_vocab([]), 11, catalog)
        assert sample.ids.shape == (512,)
        assert sample.adjacency.shape == (512, 512)


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

    def test_benign_batch_gives_zero_localization_gradient(self, catalog):
        records, ds = tiny_corpus()
        benign = [r for r in records if not r.is_vulnerable][:4]
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
        model, vocab = result.model, result.vocab
        samples = [prepare_sample(r, vocab, 11, catalog) for r in benign]
        model.zero_grad()
        loss = _batch_loss(model, samples, tiny_train_cfg())
        tensor.backward(loss)
        assert np.array_equal(model.loc_weight.grad,
                              np.zeros_like(model.loc_weight.grad))
        assert np.array_equal(model.loc_bias.grad,
                              np.zeros_like(model.loc_bias.grad))
        assert np.abs(model.cls_weight.grad).sum() > 0

    def test_sgd_toggle_runs(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(
            epochs=1, optimizer="sgd"))
        assert len(result.log) == 1

    def test_divergence_aborts_with_diagnostics(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train(records, ds, cfg, tiny_train_cfg(
                    epochs=6, learning_rate=1e160))

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
            if edit is None:
                (ckpt / name).unlink()
            else:
                edit(ckpt / name)
        with pytest.raises(DataError, match=message):
            load_checkpoint(ckpt)

    def test_per_epoch_and_best_checkpoints_written(self, tmp_path):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        train(records, ds, cfg,
              tiny_train_cfg(epochs=2, checkpoint_dir=str(tmp_path / "run")))
        assert (tmp_path / "run" / "epoch_001" / "params.npz").exists()
        assert (tmp_path / "run" / "epoch_002" / "params.npz").exists()
        assert (tmp_path / "run" / "best" / "params.npz").exists()


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

    def test_shared_mode_refuses_without_retraining(self, monkeypatch):
        records, ds = tiny_corpus()
        prepared = []
        original = trainer_module.prepare_sample
        monkeypatch.setattr(trainer_module, "prepare_sample",
                            lambda *args: prepared.append(1) or original(*args))
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        rows = sweep_ensemble(records, ds, [(0.5, 0.5), (0.0, 1.0)], cfg,
                              tiny_train_cfg(epochs=2, sweep_mode="shared"))
        assert len(rows) == 2
        # one training run, and the test split prepared once for all ratios
        assert len(prepared) == len(ds.train) + len(ds.val) + len(ds.test)

    def test_invalid_ratio_rejected(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        with pytest.raises(ConfigError, match="sum to 1"):
            sweep_ensemble(records, ds, [(0.5, 0.6)], cfg, tiny_train_cfg())
