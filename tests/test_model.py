import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vulngraph import runfiles, tensor
from vulngraph.errors import ConfigError, GradientError, ShapeError
from vulngraph.lexer import (PAD_ID, STREAM_CAPACITY, build_vocab, encode,
                             tokenize)
from vulngraph.model import (ModelConfig, VulnModel, denormalize_lines, fuse,
                             normalize_line_range)
from vulngraph.semgraph import build_graph, model_inputs
from vulngraph.tensor import Matrix, leaf
from vulngraph.objectives import FocalConfig
from vulngraph.runfiles import (_MODEL_KEYS, TrainConfig, _settings,
                                _training_settings, _typed, config_text)
from vulngraph.trainer import EncodedSample, _sample_loss
from conftest import (DESK_CHECKPOINT, HUB_SOURCE, LONG_SOURCE,
                      backward_batch, dense_adjacency, fuzz_snippet,
                      gcn_weights, operator_from_dense, poison,
                      tiny_model_inputs)
from oracles import backward_node, grad_check, tape_sample_loss

SOURCE = "int f(){int a;return a+1;}"


def stream_ids(source=SOURCE):
    """The vocabulary and the ids of every stream position."""
    vocab = build_vocab([tokenize(source)])
    return vocab, np.asarray(encode(tokenize(source), vocab), dtype=np.int64)


def embedded(model, ids):
    """``embed``'s distinct rows, and each position's index in them."""
    projected, _, inverse = model.embed(ids)
    return projected, inverse


def embedded_rows(model, ids):
    """H0: ``embed``'s distinct rows gathered back to every position."""
    projected, inverse = embedded(model, ids)
    return projected[inverse]


class TestEmbed:
    def test_default_config_shape(self):
        vocab, ids = stream_ids()
        model = VulnModel(ModelConfig(vocab_size=len(vocab)), seed=0)
        projected, distinct, inverse = model.embed(ids)
        assert np.array_equal(distinct[inverse], ids)
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
        model, _, _, ids, operator = tiny_model_inputs(SOURCE)
        for w in gcn_weights(model):
            w[...] = 0.0
        h_n, _ = model.gcn_forward(*embedded(model, ids), operator)
        assert np.array_equal(h_n, embedded_rows(model, ids))

    def test_identity_adjacency_acts_per_token(self):
        model, _, _, ids, _ = tiny_model_inputs(SOURCE)
        eye = operator_from_dense(np.eye(len(ids)))
        h_n, _ = model.gcn_forward(*embedded(model, ids), eye)
        # reference: H <- H + relu(H @ W) per layer, no cross-token mixing
        ref = embedded_rows(model, ids)
        for w in gcn_weights(model):
            ref = ref + np.maximum(ref @ w, 0.0)
        np.testing.assert_allclose(h_n, ref, atol=1e-12)

    def test_deterministic_across_runs(self):
        out = []
        for _ in range(2):
            model, _, _, ids, operator = tiny_model_inputs(
                SOURCE, seed=5)
            h, _ = model.gcn_forward(*embedded(model, ids), operator)
            out.append(h.copy())
        assert np.array_equal(out[0], out[1])

    def test_adjacency_shape_mismatch(self):
        model, _, _, ids, _ = tiny_model_inputs(SOURCE)
        shorter = build_graph(tokenize("a;"))
        with pytest.raises(ShapeError):
            model.gcn_forward(*embedded(model, ids), shorter)


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
        model, _, _, ids, operator = tiny_model_inputs(SOURCE)
        for name in ("cls_weight", "cls_bias", "loc_weight", "loc_bias"):
            model.params[name][...] = 0.0
        out = model.forward(ids, operator)
        np.testing.assert_allclose(
            out.probabilities, np.full(model.config.num_classes,
                                       1.0 / model.config.num_classes))
        assert out.loc_pred == (0.5, 0.5)

    def test_benign_is_class_zero(self):
        model, _, _, ids, operator = tiny_model_inputs(SOURCE)
        model.params["cls_bias"][0, 0] = 50.0
        out = model.forward(ids, operator)
        assert out.predicted_class == 0

    def test_loc_pred_in_open_unit_interval(self):
        for seed in range(3):
            model, _, _, ids, operator = tiny_model_inputs(
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
        vocab = build_vocab([tokenize(first)])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        pooled = []
        for source in (first, second):
            stream = tokenize(source)
            ids = np.asarray(encode(stream, vocab))
            pooled.append(model.pooled_embedding(*embedded(model, ids)))
        np.testing.assert_allclose(pooled[0], pooled[1], atol=1e-15)

    def test_single_payload_token_is_its_projection(self):
        source = ";"
        vocab = build_vocab([tokenize(source)])
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=0)
        stream = tokenize(source)
        ids = np.asarray(encode(stream, vocab))
        pooled = model.pooled_embedding(*embedded(model, ids[1:2]))
        expected = (model.params["embedding"][ids[1:2]]
                    @ model.params["input_proj"])
        np.testing.assert_allclose(pooled, expected[0], atol=1e-15)


class TestMasking:
    def test_pad_embedding_never_changes_outputs(self):
        vocab = build_vocab([tokenize(SOURCE)])
        inputs = model_inputs(tokenize(SOURCE), vocab)
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=8,
                                      gcn_dim=6), seed=3)
        before = model.forward(*inputs)
        model.params["embedding"][0, :] += 100.0  # the <PAD> row
        after = model.forward(*inputs)
        np.testing.assert_array_equal(before.class_logits, after.class_logits)
        assert before.loc_pred == after.loc_pred


class TestGradients:
    def test_full_model_gradient_check(self):
        model, _, _, ids, operator = tiny_model_inputs(
            SOURCE, num_classes=11, embed_dim=8, gcn_dim=6)
        assert len(ids) == 16
        self.check(model, ids, operator)

    def test_gradient_check_on_padded_neighbour_lists(self):
        # long enough for the padded lists, and a call row wider than them
        source = ("int f(int a, char *b) {\n" + "    a = a + 1;\n" * 16
                  + "    memcpy(" + ", ".join(["a"] * 12) + ");\n"
                  + "    return a;\n}")
        model, _, _, ids, operator = tiny_model_inputs(
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

        report = grad_check(f, model.params, tol=1e-4,
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
        self.assert_bit_equal(gcn_layers, num_classes, fusion, gcn_dim=12)

    def test_bit_equal_to_tape_past_one_segment_block(self):
        # backward's segment sums and the tape's gather push add more
        # than one block of columns
        assert 80 > tensor.SEGMENT_BLOCK
        self.assert_bit_equal(2, 11, (0.5, 0.5), gcn_dim=80)

    @staticmethod
    def assert_bit_equal(gcn_layers, num_classes, fusion, gcn_dim):
        rng = np.random.default_rng(gcn_layers * 100 + num_classes)
        # a dense operator, the 512-position window and a hub row that
        # runs past the padded neighbour lists into the remainder
        sources = [fuzz_snippet(random.Random(gcn_layers)), LONG_SOURCE,
                   HUB_SOURCE]
        vocab = build_vocab(map(tokenize, sources))
        model = VulnModel(ModelConfig(
            vocab_size=len(vocab), embed_dim=16, gcn_dim=gcn_dim,
            gcn_layers=gcn_layers, num_classes=num_classes,
            embed_weight=fusion[0], graph_weight=fusion[1]), seed=gcn_layers)
        for values in model.params.values():
            values[...] += rng.normal(scale=0.1, size=values.shape)
        cfg = TrainConfig(w_cls=0.7, w_loc=1.3, focal=FocalConfig(0.3, 1.5))
        shapes = []
        for k, source in enumerate(sources):
            ids, operator = model_inputs(tokenize(source), vocab)
            shapes.append((ids.size, np.diff(operator.start).max()))
            sample = EncodedSample.of(
                ids, operator, np.float64, label=(0, 1, num_classes - 1)[k],
                line_count=source.count("\n") + 1,
                truth_range=None if k == 0 else (2, 3))
            earlier = {name: rng.normal(size=values.shape)
                       for name, values in model.params.items()}
            nodes = model.forward_nodes(ids, operator)
            for name, node in nodes.leaves.items():
                node.grad = earlier[name].copy()
            loss = tape_sample_loss(nodes.class_logits, nodes.loc_pred,
                                    sample, cfg)
            tensor.backward(tensor.scale(loss, 1.0 / 3.0))
            expected = {name: node.grad.tobytes()
                        for name, node in nodes.leaves.items()}
            sums = {name: grad.copy() for name, grad in earlier.items()}
            out = model.forward(ids, operator)
            value, class_grad, loc_grad = _sample_loss(
                out.class_logits, out.loc_pred, sample, cfg, 1.0 / 3.0)
            held = []
            model.backward(out, class_grad, loc_grad,
                           lambda *c: held.append(c))
            for name, index, contribution in held:
                sums[name][index] += contribution
            assert value == loss.item()
            assert sums.keys() == expected.keys()
            for name, grad in sums.items():
                assert grad.tobytes() == expected[name], (source[:20], name)
            # a held embedding contribution is one row per distinct id
            assert held[-1][0] == "embedding"
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
        vocab = build_vocab(map(tokenize, sources))
        config = ModelConfig(vocab_size=len(vocab), embed_dim=10, gcn_dim=8,
                             gcn_layers=gcn_layers, num_classes=num_classes,
                             embed_weight=fusion[0], graph_weight=fusion[1])
        return VulnModel(config, seed=gcn_layers + num_classes), vocab

    @pytest.mark.parametrize("fusion", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
    @pytest.mark.parametrize("num_classes", [2, 11])
    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_bit_equal_on_fuzz_corpus(self, gcn_layers, num_classes, fusion):
        rng = random.Random(gcn_layers * 100 + num_classes)
        sources = [fuzz_snippet(rng) for _ in range(3)]
        model, vocab = self.model_for(sources, gcn_layers, num_classes,
                                      fusion)
        for source in sources:
            inputs = model_inputs(tokenize(source), vocab)
            self.check(model, *inputs, rng)

    def test_bit_equal_on_truncated_function(self):
        assert tokenize(LONG_SOURCE).truncated
        model, vocab = self.model_for([LONG_SOURCE], 3, 11, (0.5, 0.5))
        inputs = model_inputs(tokenize(LONG_SOURCE), vocab)
        assert len(inputs[0]) == STREAM_CAPACITY
        self.check(model, *inputs, random.Random(0))

    def test_shape_errors(self):
        model, _, _, ids, _ = tiny_model_inputs(SOURCE)
        with pytest.raises(ShapeError):
            model.forward(ids, build_graph(tokenize("a;")))
        with pytest.raises(ShapeError):
            model.forward(ids[:0], operator_from_dense(np.zeros((0, 0))))


def dense_tape(model, ids, adjacency):
    """The tape before the sparse operator and the distinct rows, kept as
    its oracle.

    Every position's embedding row is projected by W_in, each layer
    multiplies the dense n x n ``adjacency`` with H and then with W_l,
    and the pooled embedding is the rows' mean, projected. Returns the
    nodes that ``forward`` reports, by field name, and the leaves by
    parameter name.
    """
    leaves = {name: leaf(values) for name, values in model.params.items()}
    rows = tensor.gather_rows(leaves["embedding"], ids)
    operator = Matrix(adjacency)
    h = tensor.matmul(rows, leaves["input_proj"])
    for layer in range(model.config.gcn_layers):
        mixed = tensor.matmul(tensor.matmul(operator, h),
                              leaves[f"gcn_{layer}"])
        h = tensor.add(h, tensor.relu(mixed))
    pooled_graph = tensor.mean_rows(h)
    pooled_embed = tensor.matmul(tensor.mean_rows(rows), leaves["input_proj"])
    fused = tensor.add(tensor.scale(pooled_embed, model.config.embed_weight),
                       tensor.scale(pooled_graph, model.config.graph_weight))
    class_logits = tensor.add(tensor.matmul(fused, leaves["cls_weight"]),
                              leaves["cls_bias"])
    loc_pred = tensor.sigmoid(tensor.add(
        tensor.matmul(fused, leaves["loc_weight"]), leaves["loc_bias"]))
    return {"class_logits": class_logits, "loc_pred": loc_pred,
            "pooled_embed": pooled_embed, "pooled_graph": pooled_graph}, leaves


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
        vocab = build_vocab(map(tokenize, sources))
        model = VulnModel(ModelConfig(vocab_size=len(vocab), embed_dim=16,
                                      gcn_dim=12), seed=4)
        samples, denses = [], []
        for k, source in enumerate(sources):
            stream = tokenize(source)
            ids, operator = model_inputs(stream, vocab)
            assert 4 * np.unique(ids).size < ids.size
            samples.append(EncodedSample.of(
                ids, operator, np.float64, label=3 * k,
                line_count=source.count("\n") + 1,
                truth_range=(2, 5) if k else None))
            denses.append(dense_adjacency(stream))
        return model, samples, denses

    def test_forward_matches_dense_oracle(self):
        model, samples, denses = self.long_samples()
        for sample, adjacency in zip(samples, denses):
            out = model.forward(sample.ids, sample.operator())
            dense, _ = dense_tape(model, sample.ids, adjacency)
            for name, node in dense.items():
                np.testing.assert_allclose(np.asarray(getattr(out, name)),
                                           node.data[0], rtol=1e-12,
                                           err_msg=name)

    def test_batch_gradients_match_dense_oracle(self):
        model, samples, denses = self.long_samples()
        cfg = TrainConfig()
        _, distinct = backward_batch(model, samples, cfg)
        # every sample's leaves add into one sum per parameter
        sums = {name: np.zeros(values.shape)
                for name, values in model.params.items()}
        for sample, adjacency in zip(samples, denses):
            dense, leaves = dense_tape(model, sample.ids, adjacency)
            for name, node in leaves.items():
                node.grad = sums[name]
            loss = tape_sample_loss(dense["class_logits"], dense["loc_pred"],
                                    sample, cfg)
            tensor.backward(tensor.scale(loss, 1.0 / len(samples)))
        for name, grad in sums.items():
            # relative to the gradient's scale: an entry that sums terms of
            # both signs keeps only the absolute rounding of those terms
            scale = np.abs(grad).max()
            assert scale > 0.0, name
            np.testing.assert_allclose(distinct[name], grad, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=name)

    def test_projection_runs_over_distinct_ids(self, monkeypatch):
        """W_in and W_1 multiply the distinct rows; W_2 multiplies all n."""
        model, samples, _ = self.long_samples()
        matmul = tensor.matmul
        weights = {name: model.params[name]
                   for name in ("input_proj", "gcn_0", "gcn_1")}
        left_rows = []

        def recording(a, b):
            for name, weight in weights.items():
                if b.data is weight:
                    left_rows.append((name, a.rows))
            return matmul(a, b)

        monkeypatch.setattr(tensor, "matmul", recording)
        for sample in samples:
            left_rows.clear()
            model.forward_nodes(sample.ids, sample.operator())
            distinct = np.unique(sample.ids).size
            assert left_rows == [("input_proj", distinct),
                                 ("gcn_0", distinct),
                                 ("gcn_1", sample.ids.size)]



def fill_source(lines):
    """A straight-line function of ``lines`` statements, 14 tokens each."""
    return ("int fill(char *buf, int n) {\n"
            + "".join(f"    buf[{i}] = n + {i} * buf[n];\n"
                      for i in range(lines))
            + "    return n;\n}")


def float32_copy(model):
    """``model`` with its values cast to float32, as training runs it."""
    return VulnModel(model.config, values={
        name: values.astype(np.float32)
        for name, values in model.params.items()})


def float32_sample(sample):
    """``sample`` with its entries cast to float32, as training stores
    them."""
    return replace(sample, weights=sample.weights.astype(np.float32),
                   mirror=sample.mirror.astype(np.float32))


def sample_gradients(model, sample):
    """Each parameter's gradient of the sample's loss, with backward's
    contributions added into float64 zeros as training adds them, and
    each contribution's dtype."""
    grads = {name: np.zeros(values.shape)
             for name, values in model.params.items()}
    dtypes = {}

    def add(name, index, contribution):
        dtypes[name] = contribution.dtype
        grads[name][index] += contribution

    out = model.forward(sample.ids, sample.operator())
    _, class_grad, loc_grad = _sample_loss(out.class_logits, out.loc_pred,
                                           sample, TrainConfig())
    model.backward(out, class_grad, loc_grad, add)
    return grads, dtypes


class TestFloat32Pass:
    """The float32 pass that training runs, against the float64 run of
    the same code, its oracle."""

    @staticmethod
    def long_samples(embed_dim, gcn_dim):
        """A fresh model and five samples of 300 to 510 tokens, the first
        benign: straight-line functions, the hub and fuzzed functions."""
        rng = random.Random(5)
        sources = [fill_source(22), fill_source(33), HUB_SOURCE]
        while len(sources) < 5:
            body = [line for _ in range(8)
                    for line in fuzz_snippet(rng).splitlines()[1:-2]]
            source = ("int fn(int a, char *buf) {\n" + "\n".join(body)
                      + "\n    return a;\n}")
            if 300 <= tokenize(source).content_len <= 510:
                sources.append(source)
        vocab = build_vocab(map(tokenize, sources))
        model = VulnModel(ModelConfig(vocab_size=len(vocab),
                                      embed_dim=embed_dim, gcn_dim=gcn_dim),
                          seed=6)
        samples = []
        for k, source in enumerate(sources):
            ids, operator = model_inputs(tokenize(source), vocab)
            assert 300 <= ids.size <= 512
            samples.append(EncodedSample.of(
                ids, operator, np.float64, label=2 * k,
                line_count=source.count("\n") + 1,
                truth_range=(2, 4) if k else None))
        return model, samples

    def test_every_array_and_contribution_is_float32(self):
        model, samples = self.long_samples(64, 48)
        single = float32_copy(model)
        for sample in samples:
            sample = float32_sample(sample)
            out = single.forward(sample.ids, sample.operator())
            arrays = [out.class_logits, out.pooled_embed, out.pooled_graph,
                      out._projected, *out._mixed]
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
            _, dtypes = sample_gradients(single, sample)
            names = [name for name in model.params
                     if sample.truth_range or not name.startswith("loc_")]
            assert dtypes == dict.fromkeys(names, np.dtype(np.float32))

    @pytest.mark.parametrize("embed_dim, gcn_dim", [(64, 48), (768, 512)],
                             ids=["desk", "paper"])
    def test_gradients_within_one_percent_of_float64(self, embed_dim,
                                                     gcn_dim):
        # the gate is |g32 - g64| <= 1e-2 |g64| per parameter and sample;
        # most parameters come within about 1e-6, and a relu mask that
        # flips between the two passes moves gcn_0 the most
        model, samples = self.long_samples(embed_dim, gcn_dim)
        single = float32_copy(model)
        for k, sample in enumerate(samples):
            expected, _ = sample_gradients(model, sample)
            got, _ = sample_gradients(single, float32_sample(sample))
            for name, g64 in expected.items():
                error = np.linalg.norm(got[name] - g64)
                assert error <= 1e-2 * np.linalg.norm(g64), (k, name, error)


class TestNonFiniteForward:
    @pytest.mark.parametrize("damage", ["nan", "overflow"])
    def test_forward_raises_gradient_error(self, damage):
        model, _, _, ids, operator = tiny_model_inputs(SOURCE)
        poison(model, damage)
        with pytest.raises(GradientError, match="non-finite"):
            model.forward(ids, operator)

    def test_nan_is_not_cut_by_relu(self):
        # a NaN passes through the relu, and the layer check must see it
        model, _, _, ids, operator = tiny_model_inputs(SOURCE)
        for w in gcn_weights(model):
            w[...] = -1.0
        gcn_weights(model)[-1][0, 0] = np.nan
        with pytest.raises(GradientError, match="gcn_1"):
            model.forward(ids, operator)

    def test_relu_does_not_hide_a_negative_overflow(self):
        # every pre-activation overflows to -inf and every relu reads 0,
        # so H stays finite; the pass, training's path through it and the
        # tape must still raise
        model, _, _, ids, _ = tiny_model_inputs(SOURCE)
        model.params["embedding"][...] = 1.0
        model.params["input_proj"][...] = 1.0
        for w in gcn_weights(model):
            w[...] = -1.0
        huge = operator_from_dense(np.full((ids.size, ids.size), 1e308))
        with pytest.raises(GradientError, match="gcn_0"):
            model.forward(ids, huge)
        sample = EncodedSample.of(ids, huge, np.float64, label=1,
                                  line_count=1, truth_range=(1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GradientError, match="gcn_0"):
                backward_batch(model, [sample], TrainConfig())
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
        settings = _settings(config_text(cfg))
        assert ModelConfig(**_typed(settings, _MODEL_KEYS)) == cfg
        assert _training_settings(settings) == {}

    def test_parameter_count_is_the_parameters_size(self):
        cfg = ModelConfig(vocab_size=99, embed_dim=32, gcn_dim=16,
                          gcn_layers=3, num_classes=2)
        assert cfg.parameter_count == sum(
            values.size for values in VulnModel(cfg).params.values())

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, gcn_layers=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, embed_weight=0.7, graph_weight=0.7)
        for num_classes in (1, 12):  # benign and the ten CWE classes at most
            message = f"num_classes must be from 2 to 11, got {num_classes}"
            with pytest.raises(ConfigError, match=message):
                ModelConfig(vocab_size=10, num_classes=num_classes)

    def test_model_allocates_nothing_beyond_its_values(self):
        # a model holds no gradient: with a zero one per parameter, the
        # desk checkpoint's model traced 121,236 bytes for its 119,272
        # bytes of values, and loading the checkpoint 259,453
        runfiles.load_checkpoint(DESK_CHECKPOINT)  # warm caches
        tracemalloc.start()
        try:
            model, _ = runfiles.load_checkpoint(DESK_CHECKPOINT)
            loaded = tracemalloc.get_traced_memory()[0]
            values = dict(model.params)
            before = tracemalloc.get_traced_memory()[0]
            again = VulnModel(model.config, values=values)
            given = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        value_bytes = sum(a.nbytes for a in values.values())
        assert value_bytes == 8 * model.config.parameter_count
        assert all(again.params[name] is a for name, a in values.items())
        assert given < 0.05 * value_bytes, given
        # the values, and the vocabulary and the archive's bookkeeping
        assert loaded < 1.5 * value_bytes, loaded / value_bytes

    def test_npz_round_trip_reproduces_outputs(self, tmp_path):
        model, _, _, ids, operator = tiny_model_inputs(SOURCE, seed=2)
        path = tmp_path / "m.npz"
        runfiles.save_params(path, model.params)
        restored = VulnModel(model.config, values=runfiles.load_params(path))
        a = model.forward(ids, operator)
        b = restored.forward(ids, operator)
        assert np.array_equal(a.class_logits, b.class_logits)
        assert a.loc_pred == b.loc_pred

    def test_binary_mode(self):
        model, _, _, ids, operator = tiny_model_inputs(
            SOURCE, num_classes=2)
        out = model.forward(ids, operator)
        assert out.class_logits.shape == (2,)
