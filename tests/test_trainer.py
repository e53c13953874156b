import dataclasses
import math
import mmap
import os
import pickle
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import vulngraph.lexer as lexer_module
import vulngraph.trainer as trainer_module
from vulngraph import cli, tensor
from vulngraph.corpus import (FunctionRecord, class_index, save_dataset,
                              select, split)
from vulngraph.errors import (ConfigError, DataError, GradientError,
                              TrainingError)
from vulngraph.lexer import build_vocab, tokenize
from vulngraph.model import ModelConfig, VulnModel, parameter_shapes
from vulngraph.objectives import FocalConfig
from vulngraph.semgraph import build_graph, model_inputs
from vulngraph.synth import make_toy_corpus
from vulngraph.runfiles import (_MODEL_KEYS, TrainConfig, _settings,
                                _training_settings, _typed, config_text,
                                load_checkpoint, parse_run_config,
                                save_checkpoint)
from vulngraph.trainer import (EncodedSample, evaluate, prepare_sample,
                               sweep_ensemble, train, _backward_batch,
                               format_sweep_table)

from conftest import (DESK_MODEL, LONG_SOURCE, backward_batch,
                      count_matrices, cpus_setup, run_cli, run_python)
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
    """The batch's mean loss on one tape over every sample, and the sums
    by parameter name, zeros until ``tensor.backward`` runs, that every
    sample's leaves add their gradients into.

    The oracle for ``_backward_batch``, which differentiates one sample at
    a time without a tape.
    """
    sums = {name: np.zeros(values.shape)
            for name, values in model.params.items()}
    total = None
    for sample in batch:
        nodes = model.forward_nodes(sample.ids, sample.operator)
        for name, node in nodes.leaves.items():
            node.grad = sums[name]
        loss = tape_sample_loss(nodes.class_logits, nodes.loc_pred, sample,
                                cfg)
        total = loss if total is None else tensor.add(total, loss)
    return tensor.scale(total, 1.0 / len(batch)), sums


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
    """The oracle's batch loss and every parameter's gradient by name."""
    loss, sums = one_tape_batch_loss(model, batch, cfg)
    tensor.backward(loss)
    return loss.item(), sums


def assert_same_params(a, b):
    """The two models' parameters have the same names and bits."""
    assert a.params.keys() == b.params.keys()
    for name, values in a.params.items():
        assert np.array_equal(values, b.params[name]), name


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLabelIndex:
    def test_benign_is_zero(self):
        record = FunctionRecord(id="b", source="x;", language="c")
        assert class_index(record, 11) == 0

    def test_multiclass_uses_catalog(self):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="CWE-119", vul_start=1, vul_end=1)
        assert class_index(record, 11) == 1
        record = FunctionRecord(id="v2", source="x;", language="c",
                                cwe="CWE-190", vul_start=1, vul_end=1)
        assert class_index(record, 11) == 10

    def test_binary_mode_collapses_labels(self):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="VULN", vul_start=1, vul_end=1)
        assert class_index(record, 2) == 1

    def test_classfree_label_needs_binary_model(self):
        record = FunctionRecord(id="v", source="x;", language="c",
                                cwe="VULN", vul_start=1, vul_end=1)
        with pytest.raises(DataError, match="binary"):
            class_index(record, 11)


def adam_oracle_step(values, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                     eps=1e-8):
    """The Adam update of ``values`` by ``grads``, arrays by name, as
    whole-array expressions, one temporary per term: the oracle of the
    in-place ``Adam.step``."""
    for i, (name, p) in enumerate(values.items()):
        g = grads[name]
        m[i] = beta1 * m[i] + (1 - beta1) * g
        v[i] = beta2 * v[i] + (1 - beta2) * g * g
        m_hat = m[i] / (1 - beta1 ** t)
        v_hat = v[i] / (1 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


#: ``TestAdam``'s model, whose 137 parameters lie at embedding 0-28,
#: input_proj 28-63, gcn_0 63-88, gcn_1 88-113, cls_weight 113-123,
#: cls_bias 123-125, loc_weight 125-135 and loc_bias 135-137.
ADAM_MODEL = ModelConfig(vocab_size=4, embed_dim=7, gcn_dim=5,
                         gcn_layers=2, num_classes=2)
#: Slice bounds over those 137 elements.
ADAM_SLICINGS = [
    [0, 137],  # one process: the whole vector
    [0, 70, 137],  # two: inside gcn_0, and inside the first slice's 4th block
    [0, 45, 91, 137],  # three: inside input_proj and gcn_1, and inside blocks
    [0, 20, 124, 125, 137],  # on a block's edge, inside cls_bias, one element
]


class TestAdam:
    def test_in_place_step_equals_the_whole_array_formula(self,
                                                         monkeypatch):
        # a small block, so that slices span several blocks and a
        # parameter spans several slices
        monkeypatch.setattr(trainer_module, "ADAM_BLOCK", 20)
        for bounds in ADAM_SLICINGS:
            rng = np.random.default_rng(5)
            model, values = trainer_module._shared_model(ADAM_MODEL, seed=5)
            state = trainer_module._shared((3, values.size))
            fast = model.params
            grads = trainer_module._views(
                state[0], parameter_shapes(ADAM_MODEL))
            slow = {name: a.copy() for name, a in fast.items()}
            slow_grads = {name: np.zeros(a.shape) for name, a in fast.items()}
            shapes = [a.shape for a in fast.values()]
            assert values.shape == (bounds[-1],)
            optimizers = [
                trainer_module.Adam(values, state, lr=0.01,
                                    part=slice(lo, hi))
                for lo, hi in zip(bounds, bounds[1:])]
            m = [np.zeros(s) for s in shapes]
            v = [np.zeros(s) for s in shapes]
            for t in range(1, 6):
                for name, a in fast.items():
                    grad = (rng.normal(size=a.shape)
                            * 10.0 ** rng.integers(-8, 3))
                    grad[rng.random(a.shape) < 0.3] = 0.0
                    grads[name][...] = grad
                    slow_grads[name][...] = grad
                for optimizer in optimizers:
                    optimizer.step()
                adam_oracle_step(slow, slow_grads, m, v, t, lr=0.01)
                for name, a in fast.items():
                    assert np.array_equal(a, slow[name]), (bounds, t, name)
                    assert not grads[name].any(), (bounds, t, name)
                for mine, theirs in zip(state[1:], (m, v)):
                    flat = np.concatenate([x.ravel() for x in theirs])
                    assert np.array_equal(mine, flat), (bounds, t)

    def test_empty_slice_steps_nothing(self):
        # a process gets an empty slice when the flat vector has fewer
        # elements than there are training processes
        values = np.arange(15.0)
        state = np.arange(45.0).reshape(3, 15)
        optimizer = trainer_module.Adam(values, state, 0.01, part=slice(3, 3))
        optimizer.step()
        assert np.array_equal(values, np.arange(15.0))
        assert np.array_equal(state, np.arange(45.0).reshape(3, 15))


class TestSharedState:
    def test_values_are_the_models_drawn_bit_for_bit(self):
        config = ModelConfig(vocab_size=30, embed_dim=16, gcn_dim=12,
                             gcn_layers=3, num_classes=5)
        model, values = trainer_module._shared_model(config, seed=3)
        drawn = VulnModel(config, seed=3)
        assert values.shape == (config.parameter_count,)
        assert values.tobytes() == np.concatenate(
            [a.ravel() for a in drawn.params.values()]).tobytes()
        assert model.params.keys() == drawn.params.keys()
        for name, ours in model.params.items():
            assert ours.shape == drawn.params[name].shape
            assert np.shares_memory(ours, values), name

    def test_trained_model_keeps_only_its_values(self):
        # the gradient sums and Adam's moments lie in a mapping of their
        # own, which the returned model does not reach: at embed 8 and
        # gcn 6 it kept 29,792 bytes mapped for 7,448 bytes of values
        records, _ = make_toy_corpus(0)
        cfg = ModelConfig(vocab_size=4, embed_dim=8, gcn_dim=6)
        model = train(records, split(records, seed=7), cfg,
                      tiny_train_cfg(epochs=1)).model
        mappings = []
        for values in model.params.values():
            while isinstance(values, np.ndarray):
                values = values.base
            mappings.append(values.obj)  # a memoryview of the mapping
        assert isinstance(mappings[0], mmap.mmap)
        assert all(mapping is mappings[0] for mapping in mappings)
        assert len(mappings[0]) == 8 * model.config.parameter_count

    def test_memory_check_counts_what_training_maps(self, monkeypatch,
                                                    use_cpus):
        # two processes hold 40 bytes a parameter: the float64 values,
        # gradient sums and two moments, and a float32 copy in each
        use_cpus(2)
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        vocab = build_vocab(tokenize(r.source)
                            for r in select(records, ds.train))
        count = dataclasses.replace(cfg, vocab_size=len(vocab)
                                    ).parameter_count
        sysconf, pages = os.sysconf, {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(
            name) or sysconf(name))
        shared = trainer_module._shared

        def unmapped(*args):
            raise AssertionError("training mapped memory before the check")

        monkeypatch.setattr(trainer_module, "_shared", unmapped)
        # more than the float64 values alone, which the check once counted
        pages["SC_PHYS_PAGES"] = 16 * count
        with pytest.raises(ConfigError, match="training hold"):
            train(records, ds, cfg, tiny_train_cfg(epochs=1))
        monkeypatch.setattr(trainer_module, "_shared", shared)
        pages["SC_PHYS_PAGES"] = 40 * count
        train(records, ds, cfg, tiny_train_cfg(epochs=1))

    def test_training_holds_no_heap_copy_of_the_parameters(self, use_cpus):
        # at these widths the parameters outweigh a tiny sample's arrays:
        # training traces about 12 bytes per parameter, mostly the float32
        # pass copy and one sample's contributions, and a heap copy of the
        # float64 values and their zero gradients 16 more
        use_cpus(1)
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, embed_dim=256, gcn_dim=256,
                          num_classes=11)
        train(records, ds, cfg, tiny_train_cfg(epochs=1))  # warm caches
        tracemalloc.start()
        try:
            result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        float64_bytes = 8 * result.model.config.parameter_count
        assert peak < 1.9 * float64_bytes, peak / float64_bytes


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
        stream = tokenize(LONG_SOURCE)
        graph = build_graph(stream)
        sample = prepare_sample(record, build_vocab([stream]), 11)
        n = stream.content_len
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
        assert_same_params(result.model,
                           VulnModel(result.model.config, seed=2))

    def test_deterministic_for_fixed_seed(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        a = train(records, ds, cfg, tiny_train_cfg())
        b = train(records, ds, cfg, tiny_train_cfg())
        assert [e["train_loss"] for e in a.log] == [
            e["train_loss"] for e in b.log]
        assert_same_params(a.model, b.model)

    def test_batch_past_the_split_trains_as_the_whole_split(self):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        whole = train(records, ds, cfg,
                      tiny_train_cfg(batch_size=len(ds.train)))
        huge = train(records, ds, cfg, tiny_train_cfg(batch_size=10**20))
        assert huge.log == whole.log
        assert_same_params(whole.model, huge.model)

    def test_loss_decreases_on_toy_corpus(self, toy_run):
        assert toy_run.log[-1]["train_loss"] < toy_run.log[0]["train_loss"]

    @pytest.mark.parametrize("dims", [
        DESK_MODEL, dict(DESK_MODEL, embed_dim=768, gcn_dim=512)],
        ids=["desk", "paper"])
    def test_float32_run_tracks_float64(self, monkeypatch, dims):
        """Two epochs whose passes run in float32, against the float64
        run of the same code: validation F1 and IoU are equal, and each
        loss is within 1e-5 of it, relative (measured: at most 1.3e-7)."""
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **dims)
        forward, dtypes = VulnModel.forward, set()

        def recording(self, ids, operator):
            dtypes.add((self.params["embedding"].dtype,
                        operator.weights.dtype))
            return forward(self, ids, operator)

        monkeypatch.setattr(VulnModel, "forward", recording)
        logs = {}
        for dtype in (np.float64, np.float32):
            monkeypatch.setattr(trainer_module, "COMPUTE_DTYPE", dtype)
            dtypes.clear()
            result = train(records, ds, cfg, tiny_train_cfg(epochs=2))
            assert dtypes == {(np.dtype(dtype), np.dtype(dtype))}
            assert {a.dtype for a in result.model.params.values()} == {
                np.dtype(np.float64)}
            logs[dtype] = result.log
        for e64, e32 in zip(logs[np.float64], logs[np.float32]):
            assert (e32["val_f1"], e32["val_iou"]) == (e64["val_f1"],
                                                       e64["val_iou"])
            for key in ("train_loss", "val_loss"):
                assert e32[key] == pytest.approx(e64[key], rel=1e-5), key

    def test_benign_batch_gives_zero_localization_gradient(self):
        records, ds = tiny_corpus()
        benign = [r for r in records if not r.is_vulnerable][:4]
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
        model, vocab = result.model, result.vocab
        samples = [prepare_sample(r, vocab, 11) for r in benign]
        _, grads = backward_batch(model, samples, tiny_train_cfg())
        assert np.array_equal(grads["loc_weight"],
                              np.zeros_like(grads["loc_weight"]))
        assert np.array_equal(grads["loc_bias"],
                              np.zeros_like(grads["loc_bias"]))
        assert np.abs(grads["cls_weight"]).sum() > 0

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
        value, grads = backward_batch(model, batch, tiny_train_cfg())
        assert value == loss
        assert grads.keys() == expected.keys()
        for name, grad in expected.items():
            assert np.array_equal(grads[name], grad), name
        assert np.abs(grads["loc_weight"]).sum() > 0

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

    def test_sample_peaks_under_ten_activation_arrays(self):
        # at gcn_dim 128 and 512 positions the n x gcn_dim arrays dominate;
        # a tape that holds every node, value and gradient until the walk
        # ends peaks near 17 of them, and the forward pass with the
        # backward over its arrays, held until the sample's turn, near 6
        vocab = build_vocab([tokenize(LONG_SOURCE)])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=16,
                                      gcn_dim=128), seed=1)
        sample = EncodedSample(
            *model_inputs(tokenize(LONG_SOURCE), vocab),
            label=3, line_count=LONG_SOURCE.count("\n") + 1,
            truth_range=(2, 5))
        array_bytes = sample.ids.size * 128 * 8
        grads = {name: np.zeros(values.shape)
                 for name, values in model.params.items()}
        tracemalloc.start()
        try:
            backward_batch(model, [sample], TrainConfig(), grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(grads["gcn_0"]).sum() > 0
        assert sample.ids.size == 512
        assert peak < 10 * array_bytes, peak / array_bytes

    def test_tokenizes_each_record_once(self, monkeypatch):
        records, ds = tiny_corpus()
        tokenized = count_tokenized(monkeypatch)
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        result = train(records, ds, cfg, tiny_train_cfg(epochs=1))
        used = select(records, ds.train) + select(records, ds.val)
        assert sorted(tokenized) == sorted(r.source for r in used)
        assert result.vocab.items() == \
            build_vocab(tokenize(r.source)
                        for r in select(records, ds.train)).items()

    def test_validation_records_no_tape(self, monkeypatch, tmp_path,
                                        use_cpus):
        # neither validation nor training: both run the one forward pass,
        # and nothing builds a tape value, not even a parameter
        use_cpus(1)  # the counters see the passes of this process
        records, ds = tiny_corpus()
        assert ds.val
        taped = count_passes(monkeypatch, "forward_nodes")
        passes = count_passes(monkeypatch, "forward")
        from_op = tensor.from_op
        nodes = []
        monkeypatch.setattr(tensor, "from_op",
                            lambda *args: nodes.append(1) or from_op(*args))
        matrices = count_matrices(monkeypatch, tmp_path)
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        train(records, ds, cfg, tiny_train_cfg(epochs=1))
        assert (taped, nodes, matrices()) == ([], [], 0)
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
        model_cfg = ModelConfig(vocab_size=99, embed_weight=0.25,
                                graph_weight=0.75)
        settings = _settings(config_text(model_cfg, cfg))
        assert ModelConfig(**_typed(settings, _MODEL_KEYS)) == model_cfg
        assert TrainConfig(**_training_settings(settings)) == cfg

    def test_key_given_twice_is_config_error(self):
        with pytest.raises(ConfigError, match=(
                "config line 3: key 'epochs' already given on line 1")):
            parse_run_config("epochs=5\n# later\nepochs=10\n")

    def test_focal_key_not_given_keeps_its_default(self):
        _, train_kwargs = parse_run_config("focal_delta=1.5\n")
        assert train_kwargs["focal"].alpha == FocalConfig().alpha
        assert train_kwargs["focal"].delta == 1.5


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

    def test_keeps_no_forward_output(self, monkeypatch, toy_run):
        """Each sample's forward output, with its n x gcn_dim arrays, is
        freed before the next sample runs, at any sample count."""
        forward = VulnModel.forward
        outputs, alive = [], []

        def tracking(self, ids, operator):
            alive.append(sum(ref() is not None for ref in outputs))
            out = forward(self, ids, operator)
            outputs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(VulnModel, "forward", tracking)
        for count in (3, 12):
            outputs.clear()
            alive.clear()
            records = select(toy_run.records, toy_run.split.train)[:count]
            evaluate(toy_run.model, records, toy_run.vocab)
            assert alive == [0] * count


class TestCheckpoint:
    def test_round_trip_reproduces_metrics_bit_exact(self, tmp_path, toy_run):
        records = select(toy_run.records, toy_run.split.train)[:8]
        before = evaluate(toy_run.model, records, toy_run.vocab)
        save_checkpoint(tmp_path / "ckpt", toy_run.model, toy_run.vocab)
        model, vocab = load_checkpoint(tmp_path / "ckpt")
        after = evaluate(model, records, vocab)
        assert before.to_json() == after.to_json()
        assert_same_params(toy_run.model, model)

    def test_config_txt_bytes(self, tmp_path):
        vocab = build_vocab([tokenize("int f(){return 0;}")])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=16,
                                      gcn_dim=12, embed_weight=0.25,
                                      graph_weight=0.75))
        save_checkpoint(tmp_path, model, vocab, TrainConfig(
            epochs=7, learning_rate=2.5e-4, batch_size=3, seed=11,
            focal=FocalConfig(0.4, 1.5)))
        assert (tmp_path / "config.txt").read_text(encoding="utf-8") == (
            "vocab_size=13\nembed_dim=16\ngcn_dim=12\ngcn_layers=2\n"
            "num_classes=11\nembed_weight=0.25\ngraph_weight=0.75\n"
            "epochs=7\nlearning_rate=0.00025\nbatch_size=3\nseed=11\n"
            "w_cls=1.0\nw_loc=1.0\noptimizer=adam\nmin_count=1\n"
            "focal_alpha=0.4\nfocal_delta=1.5\n")

    def test_earlier_config_format_loads(self, tmp_path, toy_run):
        records = select(toy_run.records, toy_run.split.train)[:8]
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, toy_run.model, toy_run.vocab)
        config = ckpt / "config.txt"
        config.write_text(config.read_text(encoding="utf-8")
                          + EARLIER_TRAIN_LINES, encoding="utf-8")
        model, vocab = load_checkpoint(ckpt)
        assert model.config == toy_run.model.config
        assert vocab.items() == toy_run.vocab.items()
        assert_same_params(toy_run.model, model)
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
        pytest.param("vocab.tsv", edit_lines(lambda lines: lines + ["x\t-5"]),
                     "malformed vocabulary line", id="negative-id"),
        pytest.param("vocab.tsv",
                     edit_lines(lambda lines: lines + ["<UNK>\t-1"]),
                     "malformed vocabulary line", id="negative-reserved-id"),
        pytest.param("vocab.tsv", edit_lines(lambda lines: lines[:5] + [
            lines[4].rsplit("\t", 1)[0] + "\t5"] + lines[6:]),
            r"vocab\.tsv:6: duplicate vocabulary entry", id="duplicate-entry"),
        pytest.param("config.txt", edit_lines(lambda lines: [
            l for l in lines if not l.startswith("embed_weight=")]),
            "missing keys embed_weight", id="no-model-key"),
        pytest.param("config.txt", set_key("gcn_dim", 7), "shape",
                     id="wrong-shape"),
        pytest.param("config.txt", set_key("gcn_layers", 1),
                     "unexpected parameters", id="extra-parameter"),
        pytest.param("config.txt", set_key("embed_dim", "wide"), "bad value",
                     id="bad-value"),
        pytest.param("config.txt", set_key("num_classes", 12),
                     "num_classes must be from 2 to 11, got 12",
                     id="classes-past-the-catalog"),
        pytest.param("config.txt",
                     edit_lines(lambda lines: lines + lines[2:3]),
                     "line 19: key 'gcn_dim' already given on line 3",
                     id="key-given-twice"),
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
            vocab = build_vocab(tokenize(r.source) for r in records)
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


def desk_run(**settings) -> str:
    """The desk-width run configuration of ``TestForkedTraining``, with
    ``settings`` in place of its own."""
    return "".join(f"{key}={value}\n" for key, value in {
        **DESK_MODEL, "epochs": 3, "learning_rate": 1e-3, "seed": 2,
        **settings}.items())


def train_outputs(tmp_path, name, settings):
    """log.jsonl bytes and each parameter's bytes of a ``vulngraph train``
    run over the tiny corpus, at ``desk_run(**settings)``."""
    data, config = tmp_path / "data.jsonl", tmp_path / f"{name}.cfg"
    if not data.exists():
        save_dataset(tiny_corpus()[0], data)
    config.write_text(desk_run(**settings), encoding="utf-8")
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

    @pytest.mark.parametrize("settings", [
        dict(batch_size=8), dict(batch_size=5), dict(batch_size=1),
        # float32 passes through the BLAS kernels of the benchmark's shapes
        dict(embed_dim=768, gcn_dim=512, epochs=1, batch_size=8)],
        ids=["uneven-last", "last-of-one", "one", "paper"])
    def test_outputs_equal_one_process(self, tmp_path, use_cpus, settings):
        use_cpus(1)
        serial = train_outputs(tmp_path, "p1", settings)
        for processes in (2, 3):
            use_cpus(processes)
            assert train_outputs(tmp_path, f"p{processes}",
                                 settings) == serial, processes
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
        # the sums that every process adds into
        grads = trainer_module._views(
            trainer_module._shared(model.config.parameter_count),
            parameter_shapes(model.config))

        def run(helpers):
            return _backward_batch(model, batch, tiny_train_cfg(), helpers,
                                   grads)

        with trainer_module._Helpers(processes, len(batch), run) as helpers:
            value = run(helpers)
        assert value == loss
        assert grads.keys() == expected.keys()
        for name, grad in expected.items():
            assert np.array_equal(grads[name], grad), name
        no_child_left()

    def test_each_result_is_freed_before_the_next_work(self):
        class Result:
            pass

        made, alive = [], []

        def work(j):
            alive.append([ref() is not None for ref in made])
            result = Result()
            made.append(weakref.ref(result))
            return result

        trainer_module._Helpers(1, 3).take_turns(
            3, work, lambda j, result: None)
        assert alive == [[], [False], [False, False]]

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

    def test_validation_error_text_equals_one_process(self, monkeypatch,
                                                      use_cpus):
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        vocab, samples, val_samples = trainer_module._prepare(
            records, ds, 11, 1)
        # the second validation sample runs in a helper
        target = val_samples[1].ids
        assert not any(np.array_equal(s.ids, target)
                       for s in samples + val_samples[:1])
        fail_in(monkeypatch, target)
        errors = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            with pytest.raises(TrainingError) as caught:
                trainer_module._fit(vocab, samples, val_samples, cfg,
                                    tiny_train_cfg())
            errors.append(str(caught.value))
            no_child_left()
        assert errors[0].startswith(
            "non-finite values in validation (non-finite values in the "
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

    def test_error_waits_for_its_turn(self, monkeypatch, use_cpus):
        """Samples 2 and 3 raise while sample 0 is still running; the
        error raised is sample 2's, as in one process."""
        records, ds = tiny_corpus()
        cfg = ModelConfig(vocab_size=4, **TINY_MODEL)
        train_cfg = tiny_train_cfg()
        vocab, samples, val_samples = trainer_module._prepare(
            records, ds, 11, 1)
        order = np.arange(len(samples))
        np.random.default_rng(train_cfg.seed).shuffle(order)
        first = [samples[i].ids for i in order[:4]]
        forward = VulnModel.forward

        def misbehaving(self, ids, operator):
            j = next((j for j, f in enumerate(first)
                      if np.array_equal(ids, f)), None)
            if j == 0:
                time.sleep(0.5)
            if j in (2, 3):
                raise GradientError(f"non-finite values in sample {j}")
            return forward(self, ids, operator)

        monkeypatch.setattr(VulnModel, "forward", misbehaving)
        errors = []
        for processes in (1, 2, 3):
            use_cpus(processes)
            with pytest.raises(TrainingError) as caught:
                trainer_module._fit(vocab, samples, val_samples, cfg,
                                    train_cfg)
            errors.append(str(caught.value))
            no_child_left()
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
        config.write_text(desk_run(batch_size=8), encoding="utf-8")
        done = run_cli("train", "--config", config, "--data", data, "--out",
                       tmp_path / "out", setup="""\
            import os
            from vulngraph import cpus
            from vulngraph.model import VulnModel
            cpus.usable_cpus = lambda: (2, True)
            parent, forward = os.getpid(), VulnModel.forward

            def dying(self, *args):
                if os.getpid() != parent:
                    os._exit(7)
                return forward(self, *args)

            VulnModel.forward = dying
            """)
        assert done.returncode == 3, done.stderr
        assert done.stderr == ("vulngraph: error: a training worker "
                               "process died: exit code 7\n")
        assert not (tmp_path / "out" / "log.jsonl").exists()

    def test_float32_overflow_exits_three_on_one_line(self, tmp_path):
        """A step that leaves the values finite in float64 but past
        float32's range ends training with exit 3 on one stderr line and
        no numpy warning, forked and in one process alike."""
        data, config = tmp_path / "data.jsonl", tmp_path / "run.cfg"
        save_dataset(tiny_corpus()[0], data)
        config.write_text(desk_run(learning_rate=1e39, batch_size=8),
                          encoding="utf-8")
        errors = []
        for processes in (1, 2):
            done = run_cli("train", "--config", config, "--data", data,
                           "--out", tmp_path / "out",
                           setup=cpus_setup(processes))
            assert done.returncode == 3, done.stderr
            errors.append(done.stderr)
        assert errors[1] == errors[0]
        assert errors[0].startswith(
            "vulngraph: error: non-finite values in forward pass (non-finite "
            "values in the input projection); epoch 1, batch 1, ")
        assert len(errors[0].splitlines()) == 1
        # the float64 values are finite: only their float32 copies are not
        assert "inf" not in errors[0].partition("parameter norms")[2]
        assert not (tmp_path / "out" / "log.jsonl").exists()

    def test_cli_import_loads_no_process_modules(self):
        done = run_python(
            "import sys, vulngraph.cli; "
            "print(sorted({'mmap', 'multiprocessing'} & set(sys.modules)))")
        assert done.stdout == "[]\n", done.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the platform sets no CPU affinity")
    def test_usable_cpus_are_the_affinity(self):
        """As ``taskset`` sets it: a process held to k CPUs uses k."""
        done = run_python("""\
            import os
            from vulngraph import cpus
            allowed = sorted(os.sched_getaffinity(0))
            for count in (1, len(allowed)):
                os.sched_setaffinity(0, allowed[:count])
                print(count, cpus.usable_cpus()[0])
            """)
        assert done.returncode == 0, done.stderr
        counts = [line.split() for line in done.stdout.splitlines()]
        assert len(counts) == 2
        assert all(held == usable for held, usable in counts), counts

    @pytest.mark.parametrize("processes", [1, 2])
    def test_outputs_equal_without_the_allocator_policy(self, tmp_path,
                                                        processes):
        """``cli.main`` pins glibc's allocator thresholds first; a run with
        that step replaced by a no-op writes the same bytes."""
        data, config = tmp_path / "data.jsonl", tmp_path / "run.cfg"
        save_dataset(tiny_corpus()[0], data)
        config.write_text(desk_run(batch_size=8), encoding="utf-8")
        outputs = []
        for policy in ("on", "off"):
            setup = cpus_setup(processes)
            if policy == "off":
                setup += ("from vulngraph import cli\n"
                          "cli._keep_freed_memory = lambda: None\n")
            out = tmp_path / policy
            done = run_cli("train", "--config", config, "--data", data,
                           "--out", out, setup=setup)
            assert done.returncode == 0, done.stderr
            outputs.append(written_outputs(out))
        assert outputs[0] == outputs[1]
