import random

import numpy as np
import pytest

from vulngraph import tensor
from vulngraph.errors import ConfigError, GradientError, ShapeError
from vulngraph.lexer import STREAM_CAPACITY, build_vocab, encode, tokenize
from vulngraph.model import (ModelConfig, VulnModel, denormalize_lines, fuse,
                             normalize_line_range)
from vulngraph.semgraph import build_graph, model_inputs
from vulngraph.tensor import Matrix
from vulngraph.trainer import parse_run_config
from conftest import LONG_SOURCE, fuzz_snippet, poison, tiny_model_inputs

SOURCE = "int f(){int a;return a+1;}"


def stream_ids(source=SOURCE):
    """The vocabulary and the ids of every stream position."""
    vocab = build_vocab([source])
    return vocab, np.asarray(encode(tokenize(source), vocab), dtype=np.int64)


class TestEmbed:
    def test_default_config_shape(self):
        vocab, ids = stream_ids()
        model = VulnModel(ModelConfig(vocab_size=len(vocab)), seed=0)
        h0 = model.embed(ids)
        assert h0.shape == (len(tokenize(SOURCE).tokens), 768) == (16, 768)

    def test_single_token_difference_changes_one_row(self):
        vocab, ids = stream_ids()
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        other = ids.copy()
        other[3] = (ids[3] + 1) % len(vocab)
        delta = model.embed(ids).data != model.embed(other).data
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
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        for w in model.gcn_weights:
            w.value.data[...] = 0.0
        h0 = model.embed(ids)
        h_n, _ = model.gcn_forward(h0, adjacency)
        projected = tensor.matmul(h0, model.input_proj.value)
        assert np.array_equal(h_n.data, projected.data)

    def test_identity_adjacency_acts_per_token(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        eye = np.eye(len(ids))
        h0 = model.embed(ids)
        h_n, _ = model.gcn_forward(h0, eye)
        # reference: H <- H + relu(H @ W) per layer, no cross-token mixing
        ref = h0.data @ model.input_proj.data
        for w in model.gcn_weights:
            ref = ref + np.maximum(ref @ w.data, 0.0)
        np.testing.assert_allclose(h_n.data, ref, atol=1e-12)

    def test_deterministic_across_runs(self):
        out = []
        for _ in range(2):
            model, _, _, _, ids, adjacency = tiny_model_inputs(
                SOURCE, seed=5)
            _, pooled = model.gcn_forward(model.embed(ids), adjacency)
            out.append(pooled.data.copy())
        assert np.array_equal(out[0], out[1])

    def test_adjacency_shape_mismatch(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        with pytest.raises(ShapeError):
            model.gcn_forward(model.embed(ids), adjacency[:3, :3])


class TestFuse:
    def test_endpoints_bit_exact(self):
        a = Matrix(np.random.default_rng(0).normal(size=(1, 6)))
        b = Matrix(np.random.default_rng(1).normal(size=(1, 6)))
        np.testing.assert_array_equal(fuse(a, b, 1.0, 0.0).data, a.data)
        np.testing.assert_array_equal(fuse(a, b, 0.0, 1.0).data, b.data)

    def test_midpoint(self):
        a = Matrix([[2.0, 0.0]])
        b = Matrix([[0.0, 2.0]])
        np.testing.assert_array_equal(fuse(a, b, 0.5, 0.5).data, [[1.0, 1.0]])

    def test_linearity_in_inputs(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        scaled = fuse(Matrix(3.0 * a), Matrix(3.0 * b), 0.3, 0.7).data
        np.testing.assert_allclose(
            scaled, 3.0 * fuse(Matrix(a), Matrix(b), 0.3, 0.7).data)

    def test_weights_must_sum_to_one(self):
        a = Matrix([[1.0]])
        with pytest.raises(ConfigError):
            fuse(a, a, 0.5, 0.6)
        with pytest.raises(ConfigError):
            fuse(a, a, -0.2, 1.2)


class TestHeads:
    def test_zero_weights_give_uniform_and_centered(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        for p in (model.cls_weight, model.cls_bias, model.loc_weight,
                  model.loc_bias):
            p.value.data[...] = 0.0
        out = model.forward(ids, adjacency)
        np.testing.assert_allclose(
            out.probabilities, np.full(model.config.num_classes,
                                       1.0 / model.config.num_classes))
        assert out.loc_pred == (0.5, 0.5)

    def test_benign_is_class_zero(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        model.cls_bias.value.data[0, 0] = 50.0
        out = model.forward(ids, adjacency)
        assert out.predicted_class == 0

    def test_loc_pred_in_open_unit_interval(self):
        for seed in range(3):
            model, _, _, _, ids, adjacency = tiny_model_inputs(
                SOURCE, seed=seed)
            out = model.forward(ids, adjacency)
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
            pooled.append(model.pooled_embedding(model.embed(ids)).data)
        np.testing.assert_allclose(pooled[0], pooled[1], atol=1e-15)

    def test_single_payload_token_is_its_projection(self):
        source = ";"
        vocab = build_vocab([source])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        stream = tokenize(source)
        ids = np.asarray(encode(stream, vocab))
        pooled = model.pooled_embedding(model.embed(ids[1:2]))
        expected = model.embed(ids).data[1:2] @ model.input_proj.data
        np.testing.assert_allclose(pooled.data, expected, atol=1e-15)


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
        from vulngraph.objectives import FocalConfig, focal_loss, mse_loss

        model, _, _, _, ids, adjacency = tiny_model_inputs(
            SOURCE, num_classes=11, embed_dim=8, gcn_dim=6)
        assert len(ids) == 16
        cfg = FocalConfig(alpha=0.25, delta=2.0)

        def f():
            nodes = model.forward_nodes(ids, adjacency)
            loss = focal_loss(nodes.class_logits, 3, cfg)
            return tensor.add(loss, mse_loss(nodes.loc_pred, (0.3, 0.7)))

        report = tensor.grad_check(f, model.parameters(), tol=1e-4,
                                   max_coords_per_param=30,
                                   rng=np.random.default_rng(0))
        assert report.passed, report


def tape_outputs(model, ids, adjacency):
    """``forward``'s fields as the tape computes them."""
    h0 = model.embed(ids)
    _, pooled_graph = model.gcn_forward(h0, adjacency)
    pooled_embed = model.pooled_embedding(h0)
    fused = fuse(pooled_embed, pooled_graph, model.config.embed_weight,
                 model.config.graph_weight)
    nodes = model.forward_nodes(ids, adjacency)
    return {"class_logits": nodes.class_logits.data[0],
            "loc_pred": nodes.loc_pred.data[0],
            "pooled_embed": pooled_embed.data[0],
            "pooled_graph": pooled_graph.data[0],
            "fused": fused.data[0]}


def occluded_tape_outputs(model, ids, adjacency, positions, baseline):
    """The tape on occluded inputs: PAD ids, and for "zero" a PAD row of 0.

    Model inputs hold no PAD, so zeroing the PAD row of a copy touches
    the occluded positions only.
    """
    ids = ids.copy()
    ids[positions] = 0
    if baseline == "zero":
        clone = VulnModel(model.config)
        clone.load_values({p.name: p.data for p in model.parameters()})
        clone.embedding.data[0] = 0.0
        model = clone
    return tape_outputs(model, ids, adjacency)


def assert_matches_tape(out, tape):
    for name, expected in tape.items():
        assert np.array_equal(np.asarray(getattr(out, name)), expected), name


class TestTapeFreeForward:
    """``forward`` against its oracle, the tape of ``forward_nodes``."""

    @staticmethod
    def check(model, ids, adjacency, rng):
        assert_matches_tape(model.forward(ids, adjacency),
                            tape_outputs(model, ids, adjacency))
        payload = list(range(1, len(ids) - 1))
        some = rng.sample(payload, min(3, len(payload)))
        for positions in ([payload[0]], some, payload):
            for baseline in ("pad", "zero"):
                out = model.forward(ids, adjacency, occlude=positions,
                                    occlusion_baseline=baseline)
                assert_matches_tape(out, occluded_tape_outputs(
                    model, ids, adjacency, positions, baseline))

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

    def test_fusion_override_matches_configured_model(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        twin = VulnModel(ModelConfig(**{**vars(model.config),
                                        "embed_weight": 0.2,
                                        "graph_weight": 0.8}))
        twin.load_values({p.name: p.data for p in model.parameters()})
        out = model.forward(ids, adjacency, fusion=(0.2, 0.8))
        assert_matches_tape(out, tape_outputs(twin, ids, adjacency))
        with pytest.raises(ConfigError):
            model.forward(ids, adjacency, fusion=(0.5, 0.6))

    def test_shape_errors(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        with pytest.raises(ShapeError):
            model.forward(ids, adjacency[:3, :3])
        with pytest.raises(ShapeError):
            model.forward(ids[:0], adjacency[:0, :0])
        with pytest.raises(ConfigError, match="baseline"):
            model.forward(ids, adjacency, occlude=[1],
                          occlusion_baseline="mean")


class TestNonFiniteForward:
    @pytest.mark.parametrize("damage", ["nan", "overflow"])
    def test_forward_raises_gradient_error(self, damage):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        poison(model, damage)
        with pytest.raises(GradientError, match="non-finite"):
            model.forward(ids, adjacency)

    def test_nan_is_not_cut_by_relu(self):
        # the tape's relu maps NaN to 0; the check must still see it
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        for w in model.gcn_weights:
            w.data[...] = -1.0
        model.gcn_weights[-1].data[0, 0] = np.nan
        with pytest.raises(GradientError, match="gcn_1"):
            model.forward(ids, adjacency)


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
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE, seed=2)
        path = tmp_path / "m.npz"
        model.save_npz(path)
        restored = VulnModel.load_npz(path, model.config)
        a = model.forward(ids, adjacency)
        b = restored.forward(ids, adjacency)
        assert np.array_equal(a.class_logits, b.class_logits)
        assert a.loc_pred == b.loc_pred

    def test_with_fusion_shares_parameters(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(SOURCE)
        out = model.forward(ids, adjacency, fusion=(1.0, 0.0))
        np.testing.assert_array_equal(out.fused, out.pooled_embed)
        # the override re-fuses the model's own pooled features
        configured = model.forward(ids, adjacency)
        np.testing.assert_array_equal(out.pooled_embed,
                                      configured.pooled_embed)
        np.testing.assert_array_equal(out.pooled_graph,
                                      configured.pooled_graph)
        assert (model.config.embed_weight, model.config.graph_weight) == (
            0.5, 0.5)

    def test_binary_mode(self):
        model, _, _, _, ids, adjacency = tiny_model_inputs(
            SOURCE, num_classes=2)
        out = model.forward(ids, adjacency)
        assert out.class_logits.shape == (2,)
