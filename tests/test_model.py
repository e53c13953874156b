import random

import numpy as np
import pytest

from vulngraph import tensor
from vulngraph.errors import ConfigError, GradientError, ShapeError
from vulngraph.lexer import (PAD_ID, STREAM_CAPACITY, build_vocab, encode,
                             tokenize)
from vulngraph.model import (ModelConfig, VulnModel, denormalize_lines, fuse,
                             normalize_line_range)
from vulngraph.semgraph import build_graph, model_inputs
from vulngraph.tensor import Matrix
from vulngraph.objectives import FocalConfig
from vulngraph.trainer import (EncodedSample, TrainConfig, _backward_batch,
                               _sample_gradients, parse_run_config)
from conftest import (HUB_SOURCE, LONG_SOURCE, dense_adjacency, fuzz_snippet,
                      operator_from_dense, poison, tiny_model_inputs)
from oracles import backward_node, relu, tape_sample_loss

SOURCE = "int f(){int a;return a+1;}"


def stream_ids(source=SOURCE):
    """The vocabulary and the ids of every stream position."""
    vocab = build_vocab([source])
    return vocab, np.asarray(encode(tokenize(source), vocab), dtype=np.int64)


def embedded_rows(model, ids):
    """H0: ``embed``'s distinct rows gathered back to every position."""
    projected, inverse = model.embed(ids)
    return projected[inverse]


class TestEmbed:
    def test_default_config_shape(self):
        vocab, ids = stream_ids()
        model = VulnModel(ModelConfig(vocab_size=len(vocab)), seed=0)
        projected, inverse = model.embed(ids)
        assert projected.shape == (np.unique(ids).size, 512)
        h0 = embedded_rows(model, ids)
        assert h0.shape == (len(tokenize(SOURCE).tokens), 512) == (16, 512)

    def test_single_token_difference_changes_one_row(self):
        vocab, ids = stream_ids()
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        other = ids.copy()
        other[3] = (ids[3] + 1) % len(vocab)
        delta = embedded_rows(model, ids) != embedded_rows(model, other)
        assert set(np.nonzero(delta.any(axis=1))[0]) == {3}

    def test_out_of_range_id(self):
        vocab, ids = stream_ids()
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        bad = ids.copy()
        bad[0] = len(vocab)
        with pytest.raises(ShapeError):
            model.embed(bad)


class TestGcn:
    def test_residual_identity_with_zero_weights(self):
        model, _, _, _, ids, operator = tiny_model_inputs(SOURCE)
        for w in model.gcn_weights:
            w.value.data[...] = 0.0
        h_n, _ = model.gcn_forward(*model.embed(ids), operator)
        assert np.array_equal(h_n, embedded_rows(model, ids))

    def test_identity_adjacency_acts_per_token(self):
        model, _, _, _, ids, _ = tiny_model_inputs(SOURCE)
        eye = operator_from_dense(np.eye(len(ids)))
        h_n, _ = model.gcn_forward(*model.embed(ids), eye)
        # reference: H <- H + relu(H @ W) per layer, no cross-token mixing
        ref = embedded_rows(model, ids)
        for w in model.gcn_weights:
            ref = ref + np.maximum(ref @ w.data, 0.0)
        np.testing.assert_allclose(h_n, ref, atol=1e-12)

    def test_deterministic_across_runs(self):
        out = []
        for _ in range(2):
            model, _, _, _, ids, operator = tiny_model_inputs(
                SOURCE, seed=5)
            h, _ = model.gcn_forward(*model.embed(ids), operator)
            out.append(h.copy())
        assert np.array_equal(out[0], out[1])

    def test_adjacency_shape_mismatch(self):
        model, _, _, _, ids, _ = tiny_model_inputs(SOURCE)
        shorter = build_graph(tokenize("a;")).operator
        with pytest.raises(ShapeError):
            model.gcn_forward(*model.embed(ids), shorter)


class TestFuse:
    def test_endpoints_bit_exact(self):
        a = np.random.default_rng(0).normal(size=6)
        b = np.random.default_rng(1).normal(size=6)
        np.testing.assert_array_equal(fuse(a, b, 1.0, 0.0), a)
        np.testing.assert_array_equal(fuse(a, b, 0.0, 1.0), b)

    def test_midpoint(self):
        a = np.array([2.0, 0.0])
        b = np.array([0.0, 2.0])
        np.testing.assert_array_equal(fuse(a, b, 0.5, 0.5), [1.0, 1.0])

    def test_linearity_in_inputs(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=5), rng.normal(size=5)
        scaled = fuse(3.0 * a, 3.0 * b, 0.3, 0.7)
        np.testing.assert_allclose(scaled, 3.0 * fuse(a, b, 0.3, 0.7))

    def test_weights_must_sum_to_one(self):
        a = np.array([1.0])
        with pytest.raises(ConfigError):
            fuse(a, a, 0.5, 0.6)
        with pytest.raises(ConfigError):
            fuse(a, a, -0.2, 1.2)


class TestHeads:
    def test_zero_weights_give_uniform_and_centered(self):
        model, _, _, _, ids, operator = tiny_model_inputs(SOURCE)
        for p in (model.cls_weight, model.cls_bias, model.loc_weight,
                  model.loc_bias):
            p.value.data[...] = 0.0
        out = model.forward(ids, operator)
        np.testing.assert_allclose(
            out.probabilities, np.full(model.config.num_classes,
                                       1.0 / model.config.num_classes))
        assert out.loc_pred == (0.5, 0.5)

    def test_benign_is_class_zero(self):
        model, _, _, _, ids, operator = tiny_model_inputs(SOURCE)
        model.cls_bias.value.data[0, 0] = 50.0
        out = model.forward(ids, operator)
        assert out.predicted_class == 0

    def test_loc_pred_in_open_unit_interval(self):
        for seed in range(3):
            model, _, _, _, ids, operator = tiny_model_inputs(
                SOURCE, seed=seed)
            out = model.forward(ids, operator)
            assert 0.0 < out.loc_pred[0] < 1.0
            assert 0.0 < out.loc_pred[1] < 1.0


class TestPooledEmbedding:
    def test_order_invariant_over_token_multiset(self):
        # documented stand-in limitation: the pooled embedding path only
        # sees the bag of tokens
        first = "a = b + c;"
        second = "c = b + a;"
        vocab = build_vocab([first])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        pooled = []
        for source in (first, second):
            stream = tokenize(source)
            ids = np.asarray(encode(stream, vocab))
            pooled.append(model.pooled_embedding(*model.embed(ids)))
        np.testing.assert_allclose(pooled[0], pooled[1], atol=1e-15)

    def test_single_payload_token_is_its_projection(self):
        source = ";"
        vocab = build_vocab([source])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        stream = tokenize(source)
        ids = np.asarray(encode(stream, vocab))
        pooled = model.pooled_embedding(*model.embed(ids[1:2]))
        expected = model.embedding.data[ids[1:2]] @ model.input_proj.data
        np.testing.assert_allclose(pooled, expected[0], atol=1e-15)


class TestMasking:
    def test_pad_embedding_never_changes_outputs(self):
        vocab = build_vocab([SOURCE])
        inputs = model_inputs(build_graph(tokenize(SOURCE)), vocab)
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=3)
        before = model.forward(*inputs)
        model.embedding.value.data[0, :] += 100.0  # the <PAD> row
        after = model.forward(*inputs)
        np.testing.assert_array_equal(before.class_logits, after.class_logits)
        assert before.loc_pred == after.loc_pred


class TestGradients:
    def test_full_model_gradient_check(self):
        model, _, _, _, ids, operator = tiny_model_inputs(
            SOURCE, num_classes=11, embed_dim=8, gcn_dim=6)
        assert len(ids) == 16
        self.check(model, ids, operator)

    def test_gradient_check_on_padded_neighbour_lists(self):
        # long enough for the padded lists, and a call row wider than them
        source = ("int f(int a, char *b) {\n" + "    a = a + 1;\n" * 16
                  + "    memcpy(" + ", ".join(["a"] * 12) + ");\n"
                  + "    return a;\n}")
        model, _, graph, _, ids, operator = tiny_model_inputs(
            source, num_classes=11, embed_dim=8, gcn_dim=6)
        assert operator.n > tensor.DENSE_ROWS
        assert np.diff(operator.start).max() > tensor.OPERATOR_WIDTH
        self.check(model, ids, operator)

    @staticmethod
    def check(model, ids, operator):
        """Finite differences of ``forward``'s loss against ``backward``."""
        cfg = FocalConfig(alpha=0.25, delta=2.0)

        def f():
            return backward_node(model, ids, operator, 3, (0.3, 0.7), cfg)

        report = tensor.grad_check(f, model.parameters(), tol=1e-4,
                                   max_coords_per_param=30,
                                   rng=np.random.default_rng(0))
        assert report.passed, report


class TestBackwardAgainstTape:
    """``backward``, as training adds it, against the tape of
    ``forward_nodes``: the loss and every parameter's gradient, bit for
    bit, added to sums that already hold earlier samples' gradients."""

    @pytest.mark.parametrize("fusion", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
    @pytest.mark.parametrize("num_classes", [2, 11])
    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_bit_equal_to_tape(self, gcn_layers, num_classes, fusion):
        rng = np.random.default_rng(gcn_layers * 100 + num_classes)
        # a dense operator, the 512-position window and a hub row that
        # runs past the padded neighbour lists into the remainder
        sources = [fuzz_snippet(random.Random(gcn_layers)), LONG_SOURCE,
                   HUB_SOURCE]
        vocab = build_vocab(sources)
        model = VulnModel(ModelConfig(
            vocab_size=len(vocab), embed_dim=16, gcn_dim=12,
            gcn_layers=gcn_layers, num_classes=num_classes,
            embed_weight=fusion[0], graph_weight=fusion[1]), seed=gcn_layers)
        for p in model.parameters():
            p.data[...] += rng.normal(scale=0.1, size=p.shape)
        cfg = TrainConfig(w_cls=0.7, w_loc=1.3, focal=FocalConfig(0.3, 1.5))
        shapes = []
        for k, source in enumerate(sources):
            ids, operator = model_inputs(build_graph(tokenize(source)), vocab)
            shapes.append((ids.size, np.diff(operator.start).max()))
            sample = EncodedSample(
                ids=ids, operator=operator, label=(0, 1, num_classes - 1)[k],
                line_count=source.count("\n") + 1,
                truth_range=None if k == 0 else (2, 3))
            earlier = [rng.normal(size=p.shape) for p in model.parameters()]
            for p, grad in zip(model.parameters(), earlier):
                p.grad[...] = grad
            nodes = model.forward_nodes(ids, operator)
            loss = tape_sample_loss(nodes.class_logits, nodes.loc_pred,
                                    sample, cfg)
            tensor.backward(tensor.scale(loss, 1.0 / 3.0))
            expected = [p.grad.tobytes() for p in model.parameters()]
            for hold in (False, True):
                for p, grad in zip(model.parameters(), earlier):
                    p.grad[...] = grad
                value, held = _sample_gradients(
                    model, sample, model.forward(ids, operator), cfg,
                    1.0 / 3.0, hold)
                assert bool(held) == hold
                for parameter, index, contribution in held:
                    parameter.grad[index] += contribution
                assert value == loss.item()
                for p, grad in zip(model.parameters(), expected):
                    assert p.grad.tobytes() == grad, (source[:20], hold,
                                                      p.name)
            # a held embedding contribution is one row per distinct id
            assert held[-1][0] is model.embedding
            assert held[-1][2].shape == (np.unique(ids).size, 16)
        (short, _), (long, _), (_, hub_row) = shapes
        assert short <= tensor.DENSE_ROWS and long == 512
        assert hub_row > tensor.OPERATOR_WIDTH


def tape_outputs(model, ids, operator):
    """``forward``'s fields as the tape computes them."""
    nodes = model.forward_nodes(ids, operator)
    return {"class_logits": nodes.class_logits.data[0],
            "loc_pred": nodes.loc_pred.data[0],
            "pooled_embed": nodes.pooled_embed.data[0],
            "pooled_graph": nodes.pooled_graph.data[0]}


def assert_matches_tape(out, tape):
    for name, expected in tape.items():
        assert np.array_equal(np.asarray(getattr(out, name)), expected), name


class TestTapeFreeForward:
    """``forward`` against its oracle, the tape of ``forward_nodes``."""

    @staticmethod
    def check(model, ids, operator, rng):
        assert_matches_tape(model.forward(ids, operator),
                            tape_outputs(model, ids, operator))
        payload = list(range(1, len(ids) - 1))
        some = rng.sample(payload, min(3, len(payload)))
        for positions in ([payload[0]], some, payload):
            occluded = ids.copy()
            occluded[positions] = PAD_ID
            assert_matches_tape(model.forward(occluded, operator),
                                tape_outputs(model, occluded, operator))

    @staticmethod
    def model_for(sources, gcn_layers, num_classes, fusion):
        vocab = build_vocab(sources)
        config = ModelConfig(vocab_size=len(vocab), embed_dim=10, gcn_dim=8,
                             gcn_layers=gcn_layers, num_classes=num_classes,
                             embed_weight=fusion[0], graph_weight=fusion[1])
        return VulnModel(config, seed=gcn_layers + num_classes).freeze(), vocab

    @pytest.mark.parametrize("fusion", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
    @pytest.mark.parametrize("num_classes", [2, 11])
    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_bit_equal_on_fuzz_corpus(self, gcn_layers, num_classes, fusion):
        rng = random.Random(gcn_layers * 100 + num_classes)
        sources = [fuzz_snippet(rng) for _ in range(3)]
        model, vocab = self.model_for(sources, gcn_layers, num_classes,
                                      fusion)
        for source in sources:
            inputs = model_inputs(build_graph(tokenize(source)), vocab)
            self.check(model, *inputs, rng)

    def test_bit_equal_on_truncated_function(self):
        assert tokenize(LONG_SOURCE).truncated
        model, vocab = self.model_for([LONG_SOURCE], 3, 11, (0.5, 0.5))
        inputs = model_inputs(build_graph(tokenize(LONG_SOURCE)), vocab)
        assert len(inputs[0]) == STREAM_CAPACITY
        self.check(model, *inputs, random.Random(0))

    def test_shape_errors(self):
        model, _, _, _, ids, _ = tiny_model_inputs(SOURCE)
        with pytest.raises(ShapeError):
            model.forward(ids, build_graph(tokenize("a;")).operator)
        with pytest.raises(ShapeError):
            model.forward(ids[:0], operator_from_dense(np.zeros((0, 0))))


def dense_tape(model, ids, adjacency):
    """The tape before the sparse operator and the distinct rows, kept as
    its oracle.

    Every position's embedding row is projected by W_in, each layer
    multiplies the dense n x n ``adjacency`` with H and then with W_l,
    and the pooled embedding is the rows' mean, projected. Returns the
    nodes that ``forward`` reports, by field name.
    """
    rows = tensor.gather_rows(model.embedding.value, ids)
    operator = Matrix(adjacency)
    h = tensor.matmul(rows, model.input_proj.value)
    for weight in model.gcn_weights:
        mixed = tensor.matmul(tensor.matmul(operator, h), weight.value)
        h = tensor.add(h, relu(mixed))
    pooled_graph = tensor.mean_rows(h)
    pooled_embed = tensor.matmul(tensor.mean_rows(rows),
                                 model.input_proj.value)
    fused = tensor.add(tensor.scale(pooled_embed, model.config.embed_weight),
                       tensor.scale(pooled_graph, model.config.graph_weight))
    class_logits = tensor.add(tensor.matmul(fused, model.cls_weight.value),
                              model.cls_bias.value)
    loc_pred = tensor.sigmoid(tensor.add(
        tensor.matmul(fused, model.loc_weight.value), model.loc_bias.value))
    return {"class_logits": class_logits, "loc_pred": loc_pred,
            "pooled_embed": pooled_embed, "pooled_graph": pooled_graph}


class TestDistinctProjection:
    """The sparse operator and the products over distinct ids, against
    ``dense_tape``."""

    @staticmethod
    def long_samples():
        """A fresh model, four long samples whose streams repeat ids, and
        their dense operators."""
        rng = random.Random(11)
        sources = [LONG_SOURCE]
        for _ in range(3):
            body = [line for _ in range(rng.randint(8, 16))
                    for line in fuzz_snippet(rng).splitlines()[1:-2]]
            sources.append("int fn(int a, char *buf) {\n" + "\n".join(body)
                           + "\n    return a;\n}")
        vocab = build_vocab(sources)
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=16,
                                      gcn_dim=12), seed=4)
        samples, denses = [], []
        for k, source in enumerate(sources):
            graph = build_graph(tokenize(source))
            ids, operator = model_inputs(graph, vocab)
            assert 4 * np.unique(ids).size < ids.size
            samples.append(EncodedSample(
                ids=ids, operator=operator, label=3 * k,
                line_count=source.count("\n") + 1,
                truth_range=(2, 5) if k else None))
            denses.append(dense_adjacency(graph))
        return model, samples, denses

    def test_forward_matches_dense_oracle(self):
        model, samples, denses = self.long_samples()
        for sample, adjacency in zip(samples, denses):
            out = model.forward(sample.ids, sample.operator)
            dense = dense_tape(model, sample.ids, adjacency)
            for name, node in dense.items():
                np.testing.assert_allclose(np.asarray(getattr(out, name)),
                                           node.data[0], rtol=1e-12,
                                           err_msg=name)

    def test_batch_gradients_match_dense_oracle(self):
        model, samples, denses = self.long_samples()
        cfg = TrainConfig()
        _backward_batch(model, samples, cfg)
        distinct = {p.name: p.grad.copy() for p in model.parameters()}
        model.zero_grad()
        for sample, adjacency in zip(samples, denses):
            dense = dense_tape(model, sample.ids, adjacency)
            loss = tape_sample_loss(dense["class_logits"], dense["loc_pred"],
                                    sample, cfg)
            tensor.backward(tensor.scale(loss, 1.0 / len(samples)))
        for p in model.parameters():
            # relative to the gradient's scale: an entry that sums terms of
            # both signs keeps only the absolute rounding of those terms
            scale = np.abs(p.grad).max()
            assert scale > 0.0, p.name
            np.testing.assert_allclose(distinct[p.name], p.grad, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=p.name)

    def test_projection_runs_over_distinct_ids(self, monkeypatch):
        """W_in and W_1 multiply the distinct rows; W_2 multiplies all n."""
        model, samples, _ = self.long_samples()
        matmul = tensor.matmul
        weights = [model.input_proj, *model.gcn_weights]
        left_rows = []

        def recording(a, b):
            for weight in weights:
                if b is weight.value:
                    left_rows.append((weight.name, a.rows))
            return matmul(a, b)

        monkeypatch.setattr(tensor, "matmul", recording)
        for sample in samples:
            left_rows.clear()
            model.forward_nodes(sample.ids, sample.operator)
            distinct = np.unique(sample.ids).size
            assert left_rows == [("input_proj", distinct),
                                 ("gcn_0", distinct),
                                 ("gcn_1", sample.ids.size)]


class TestNonFiniteForward:
    @pytest.mark.parametrize("damage", ["nan", "overflow"])
    def test_forward_raises_gradient_error(self, damage):
        model, _, _, _, ids, operator = tiny_model_inputs(SOURCE)
        poison(model, damage)
        with pytest.raises(GradientError, match="non-finite"):
            model.forward(ids, operator)

    def test_nan_is_not_cut_by_relu(self):
        # a NaN passes through the relu, and the layer check must see it
        model, _, _, _, ids, operator = tiny_model_inputs(SOURCE)
        for w in model.gcn_weights:
            w.data[...] = -1.0
        model.gcn_weights[-1].data[0, 0] = np.nan
        with pytest.raises(GradientError, match="gcn_1"):
            model.forward(ids, operator)

    def test_relu_does_not_hide_a_negative_overflow(self):
        # every pre-activation overflows to -inf and every relu reads 0,
        # so H stays finite; the pass, training's path through it and the
        # tape must still raise
        model, _, _, _, ids, _ = tiny_model_inputs(SOURCE)
        model.embedding.data[...] = 1.0
        model.input_proj.data[...] = 1.0
        for w in model.gcn_weights:
            w.data[...] = -1.0
        huge = operator_from_dense(np.full((ids.size, ids.size), 1e308))
        with pytest.raises(GradientError, match="gcn_0"):
            model.forward(ids, huge)
        sample = EncodedSample(ids=ids, operator=huge, label=1, line_count=1,
                               truth_range=(1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GradientError, match="gcn_0"):
                _backward_batch(model, [sample], TrainConfig())
        with pytest.raises(GradientError):
            model.forward_nodes(ids, huge)


class TestDenormalize:
    def test_near_endpoints_clamp(self):
        assert denormalize_lines((1e-9, 1.0 - 1e-9), 10) == (1, 10)

    def test_single_line(self):
        assert denormalize_lines((0.5, 0.5), 1) == (1, 1)

    def test_inverted_pair_swaps(self):
        assert denormalize_lines((0.74, 0.25), 8) == (2, 6)

    def test_round_trips_normalization(self):
        for line_count in (1, 3, 7, 20):
            for start in range(1, line_count + 1):
                for end in range(start, line_count + 1):
                    fractions = normalize_line_range(start, end, line_count)
                    assert denormalize_lines(fractions, line_count) == (start, end)


class TestConfigAndCheckpoint:
    def test_config_text_round_trip(self):
        cfg = ModelConfig(vocab_size=99, embed_dim=32, gcn_dim=16,
                          gcn_layers=3, num_classes=2, embed_weight=0.4,
                          graph_weight=0.6)
        model_kwargs, train_kwargs = parse_run_config(cfg.to_text())
        assert ModelConfig(**model_kwargs) == cfg
        assert train_kwargs == {}

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, gcn_layers=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, embed_weight=0.7, graph_weight=0.7)

    def test_npz_round_trip_reproduces_outputs(self, tmp_path):
        model, _, _, _, ids, operator = tiny_model_inputs(SOURCE, seed=2)
        path = tmp_path / "m.npz"
        model.save_npz(path)
        restored = VulnModel.load_npz(path, model.config)
        a = model.forward(ids, operator)
        b = restored.forward(ids, operator)
        assert np.array_equal(a.class_logits, b.class_logits)
        assert a.loc_pred == b.loc_pred

    def test_binary_mode(self):
        model, _, _, _, ids, operator = tiny_model_inputs(
            SOURCE, num_classes=2)
        out = model.forward(ids, operator)
        assert out.class_logits.shape == (2,)
