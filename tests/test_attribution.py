import random
from types import SimpleNamespace

import numpy as np
import pytest

from vulngraph.attribution import (ORACLE_MAX_TOKENS, aggregate_lines,
                                   attribute_tokens, attribution_dump,
                                   localize, normalize_scores,
                                   select_root_cause, shapley_oracle)
from vulngraph.errors import AttributionError, ConfigError
from vulngraph.lexer import STREAM_CAPACITY, build_vocab, lex, tokenize
from vulngraph.model import ModelConfig, VulnModel
from vulngraph.semgraph import build_graph, model_inputs
from conftest import (LONG_SOURCE, attribute, fuzz_snippet, spearman,
                      tiny_model_inputs)


class AdditiveStub:
    """Model whose target probability is linear in token presence.

    p(class 0) = base + sum of per-position weights of the non-occluded
    payload positions; class 0 stays the argmax so the predicted class
    is stable under occlusion.
    """

    frozen = True

    def __init__(self, stream, weights: dict[int, float], base: float = 0.6):
        self.stream = stream
        self.weights = weights
        self.base = base

    def forward(self, ids, adjacency, occlude=None,
                occlusion_baseline="pad"):
        present = set(range(1, self.stream.content_len - 1))
        if occlude is not None:
            present -= set(int(i) for i in occlude)
        p = self.base + sum(self.weights.get(i, 0.0) for i in present)
        return SimpleNamespace(probabilities=np.array([p, 1.0 - p]))


class ForwardLoop:
    """A model view without ``occluded_probabilities``: attribution then
    runs one full forward per occluded position, the fast path's oracle."""

    frozen = True

    def __init__(self, model):
        self.forward = model.forward


def stub_setup(source="a = b + c;"):
    stream = tokenize(source)
    vocab = build_vocab([source])
    graph = build_graph(stream)
    return stream, vocab, graph


class TestOcclusion:
    def test_constant_model_scores_zero(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("a = b + 1;")
        for p in model.parameters():
            p.value.data[...] = 0.0
        attribution = attribute(model, stream, graph, vocab)
        assert np.array_equal(attribution.token_scores,
                              np.zeros_like(attribution.token_scores))
        assert attribution.baseline == pytest.approx(
            1.0 / model.config.num_classes)

    def test_linear_surrogate_recovers_coefficients_exactly(self):
        stream, vocab, graph = stub_setup()
        payload = range(1, stream.content_len - 1)
        weights = {i: 0.01 * (i + 1) for i in payload}
        stub = AdditiveStub(stream, weights)
        attribution = attribute(stub, stream, graph, vocab)
        for i in payload:
            assert attribution.token_scores[i] == pytest.approx(
                weights[i], abs=1e-12)
        assert attribution.baseline == pytest.approx(stub.base, abs=1e-12)

    def test_special_positions_never_scored(self, toy_run):
        record = next(r for r in toy_run.records if r.is_vulnerable)
        stream = tokenize(record.source)
        graph = build_graph(stream)
        attribution = attribute(toy_run.model, stream, graph, toy_run.vocab)
        assert attribution.token_scores[0] == 0.0
        assert attribution.token_scores[stream.content_len - 1] == 0.0
        assert attribution.token_scores.shape == (stream.content_len,)

    def test_deterministic(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("x = y; y = x;")
        a = attribute(model, stream, graph, vocab)
        b = attribute(model, stream, graph, vocab)
        assert np.array_equal(a.token_scores, b.token_scores)
        assert a.line_scores == b.line_scores

    def test_requires_frozen_model(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("a;")
        model.frozen = False
        with pytest.raises(AttributionError, match="frozen"):
            attribute(model, stream, graph, vocab)

    def test_zero_baseline_config(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("a = b;")
        attribution = attribute(model, stream, graph, vocab,
                                baseline="zero")
        assert attribution.token_scores.shape[0] == len(stream.tokens)


class TestIncrementalOcclusion:
    @staticmethod
    def model_for(sources, gcn_layers, num_classes, fusion):
        vocab = build_vocab(sources)
        config = ModelConfig(vocab_size=len(vocab), embed_dim=10, gcn_dim=8,
                             gcn_layers=gcn_layers, num_classes=num_classes,
                             embed_weight=fusion[0], graph_weight=fusion[1])
        return VulnModel(config, seed=gcn_layers + num_classes).freeze(), vocab

    @staticmethod
    def assert_matches_loop(model, vocab, source, baseline):
        stream = tokenize(source)
        graph = build_graph(stream)
        fast = attribute(model, stream, graph, vocab, baseline=baseline)
        loop = attribute(ForwardLoop(model), stream, graph, vocab,
                         baseline=baseline)
        assert fast.target_class == loop.target_class
        assert fast.baseline == loop.baseline
        np.testing.assert_allclose(fast.token_scores, loop.token_scores,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fusion", [(1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("num_classes", [2, 11])
    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_matches_forward_loop_on_fuzz_corpus(self, gcn_layers,
                                                 num_classes, fusion):
        rng = random.Random(gcn_layers * 100 + num_classes)
        sources = [fuzz_snippet(rng) for _ in range(3)]
        model, vocab = self.model_for(sources, gcn_layers, num_classes,
                                      fusion)
        for source in sources:
            for baseline in ("pad", "zero"):
                self.assert_matches_loop(model, vocab, source, baseline)

    @pytest.mark.parametrize("baseline", ["pad", "zero"])
    def test_matches_forward_loop_on_truncated_function(self, baseline):
        assert len(lex(LONG_SOURCE)) > 600
        assert tokenize(LONG_SOURCE).truncated
        model, vocab = self.model_for([LONG_SOURCE], 3, 11, (0.5, 0.5))
        self.assert_matches_loop(model, vocab, LONG_SOURCE, baseline)

    def test_two_forwards_whatever_the_length(self, monkeypatch):
        """The caller's base pass plus at most one inside attribution."""
        model, vocab = self.model_for([LONG_SOURCE], 2, 11, (0.5, 0.5))
        forward = VulnModel.forward
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(VulnModel, "forward", counting)
        for source in ("a = b;", LONG_SOURCE):
            stream = tokenize(source)
            inputs = model_inputs(build_graph(stream), vocab)
            base = model.forward(*inputs)
            calls.clear()
            attribute_tokens(model, stream, inputs, base)
            assert len(calls) <= 1

    def test_unknown_baseline_is_config_error(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("a = b;")
        with pytest.raises(ConfigError, match="baseline"):
            attribute(model, stream, graph, vocab, baseline="mean")

    def test_non_finite_probability_is_attribution_error(self):
        model, stream, graph, vocab, ids, adjacency = \
            tiny_model_inputs("a = b;")
        model.gcn_weights[0].data[0, 0] = np.nan
        with pytest.raises(AttributionError, match="not finite"):
            model.occluded_probabilities(ids, adjacency, 0, [1, 2])


class TestShapleyOracle:
    def test_single_token_game(self):
        stream, vocab, graph = stub_setup(";")
        assert stream.content_len == 3
        stub = AdditiveStub(stream, {1: 0.2})
        values = shapley_oracle(stub, stream, graph, vocab)
        assert values[1] == pytest.approx(0.2, abs=1e-12)

    def test_symmetric_tokens_get_equal_values(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("w w;", seed=4)
        # identical token text at two payload positions plus symmetric
        # handling: swap-invariance of the stub makes values equal
        stub = AdditiveStub(stream, {1: 0.05, 2: 0.05, 3: 0.01})
        values = shapley_oracle(stub, stream, graph, vocab)
        assert values[1] == pytest.approx(values[2], abs=1e-12)

    def test_additive_game_equals_marginals(self):
        stream, vocab, graph = stub_setup("a = b;")
        weights = {i: 0.02 * i for i in range(1, stream.content_len - 1)}
        stub = AdditiveStub(stream, weights)
        values = shapley_oracle(stub, stream, graph, vocab)
        occlusion = attribute(stub, stream, graph, vocab)
        np.testing.assert_allclose(values, occlusion.token_scores, atol=1e-12)

    def test_efficiency_on_real_model(self):
        model, stream, graph, vocab, ids, adjacency = tiny_model_inputs(
            "p->q = r;", seed=8)
        values = shapley_oracle(model, stream, graph, vocab)
        probabilities = model.forward(ids, adjacency).probabilities
        target = int(np.argmax(probabilities))
        full = probabilities[target]
        payload = list(range(1, stream.content_len - 1))
        empty = model.forward(ids, adjacency,
                              occlude=payload).probabilities[target]
        assert values.sum() == pytest.approx(full - empty, abs=1e-9)

    def test_payload_cap(self):
        source = " ".join(f"x{i};" for i in range(10))  # 20 payload tokens
        stream, vocab, graph = stub_setup(source)
        assert stream.content_len - 2 > ORACLE_MAX_TOKENS
        model, *_ = tiny_model_inputs("a;")
        with pytest.raises(AttributionError, match="cap"):
            shapley_oracle(model, stream, graph, vocab)

    def test_rank_agreement_with_occlusion(self):
        correlations = []
        for seed in range(6):
            model, stream, graph, vocab, *_ = tiny_model_inputs(
                "buf[i] = c;", seed=seed)
            occlusion = attribute(model, stream, graph, vocab)
            oracle = shapley_oracle(model, stream, graph, vocab)
            payload = slice(1, stream.content_len - 1)
            correlations.append(spearman(occlusion.token_scores[payload],
                                         oracle[payload]))
        assert float(np.mean(correlations)) >= 0.9


class TestAggregation:
    def test_sums_by_line(self):
        stream = tokenize("a b\nc")
        scores = np.zeros(len(stream.tokens))
        scores[1], scores[2], scores[3] = 0.2, 0.3, -0.1
        assert aggregate_lines(scores, stream) == pytest.approx(
            {1: 0.5, 2: -0.1})

    def test_zero_scores_zero_lines(self):
        stream = tokenize("a;\nb;")
        scores = np.zeros(len(stream.tokens))
        line_scores = aggregate_lines(scores, stream)
        assert set(line_scores) == {1, 2}
        assert all(v == 0.0 for v in line_scores.values())

    def test_tokenless_lines_absent(self):
        stream = tokenize("a;\n\n\nb;")
        line_scores = aggregate_lines(np.ones(len(stream.tokens)), stream)
        assert set(line_scores) == {1, 4}


class TestRootCause:
    def test_argmax_before_predicted_start(self):
        rc = select_root_cause({2: 0.1, 3: 0.9, 4: 0.2}, predicted_start=4,
                               line_count=5)
        assert rc.line == 3
        assert not rc.fallback_used

    def test_empty_candidate_set_falls_back(self):
        rc = select_root_cause({2: 0.4, 3: 0.1}, predicted_start=2,
                               line_count=4)
        assert rc.fallback_used
        assert rc.line == 2

    def test_nonpositive_candidates_fall_back(self):
        rc = select_root_cause({2: -0.5, 3: -0.1, 5: 0.9}, predicted_start=4,
                               line_count=6)
        assert rc.fallback_used
        assert rc.line == 5

    def test_declaration_line_never_selected(self):
        rc = select_root_cause({1: 99.0, 2: 0.1, 3: 0.05}, predicted_start=4,
                               line_count=4)
        assert rc.line == 2

    def test_ties_pick_smallest_line(self):
        rc = select_root_cause({2: 0.5, 3: 0.5}, predicted_start=5,
                               line_count=5)
        assert rc.line == 2

    def test_single_line_function_rejected(self):
        with pytest.raises(AttributionError):
            select_root_cause({1: 1.0}, predicted_start=1, line_count=1)

    def test_only_declaration_tokens_rejected(self):
        with pytest.raises(AttributionError, match="declaration"):
            select_root_cause({1: 1.0}, predicted_start=2, line_count=3)


class TestLocalize:
    def test_range_and_root_cause(self):
        where = localize((0.5 / 4, 2.5 / 4), {2: 0.4, 3: 0.1}, line_count=4)
        assert where.vul_lines == (1, 3)
        assert where.root_cause.line == 2
        assert where.problem is None

    def test_unavailable_root_cause_says_why(self):
        where = localize((0.5, 0.5), {1: 1.0}, line_count=1)
        assert where.vul_lines == (1, 1)
        assert where.root_cause is None
        assert "single-line" in where.problem


class TestNormalize:
    def test_endpoints(self):
        assert normalize_scores({1: -1.0, 2: 1.0}) == {1: 0.0, 2: 1.0}

    def test_constant_maps_to_half(self):
        assert normalize_scores({1: 3.0, 2: 3.0}) == {1: 0.5, 2: 0.5}

    def test_order_preserved(self):
        raw = {1: 0.3, 2: -0.2, 3: 0.9, 4: 0.0}
        normalized = normalize_scores(raw)
        assert max(raw, key=raw.get) == max(normalized, key=normalized.get)

    def test_empty_rejected(self):
        with pytest.raises(AttributionError):
            normalize_scores({})


class TestDump:
    def test_dump_schema(self):
        model, stream, graph, vocab, *_ = tiny_model_inputs("a = b;\nb = 1;")
        attribution = attribute(model, stream, graph, vocab)
        rc = select_root_cause(attribution.line_scores,
                               predicted_start=3, line_count=2)
        payload = attribution_dump(attribution, rc)
        assert set(payload) == {"token_scores", "line_scores", "root_cause",
                                "phi0", "target_class"}
        assert isinstance(payload["token_scores"], list)
        assert len(payload["token_scores"]) == STREAM_CAPACITY
        n = stream.content_len
        assert payload["token_scores"][:n] == list(attribution.token_scores)
        assert payload["token_scores"][n:] == [0.0] * (STREAM_CAPACITY - n)
        assert set(payload["root_cause"]) == {"line", "score", "fallback_used"}
