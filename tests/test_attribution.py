import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from vulngraph.attribution import (aggregate_lines, attribute_tokens,
                                   attribution_dump, baseline, localize,
                                   normalize_scores, select_root_cause)
from vulngraph.errors import AttributionError
from vulngraph.lexer import PAD_ID, STREAM_CAPACITY, build_vocab, lex, tokenize
import vulngraph.model as model_module
from vulngraph.model import ModelConfig, VulnModel
from vulngraph.semgraph import model_inputs
from vulngraph.tensor import SEGMENT_BLOCK
from conftest import (HUB_SOURCE, LONG_SOURCE, attribute, fuzz_snippet,
                      operator_from_dense, spearman, tiny_model_inputs)
from oracles import ORACLE_MAX_TOKENS, occluded_by_forward_loop, shapley_oracle


class AdditiveStub:
    """Model whose target probability is linear in token presence.

    p(class 0) = base + sum of per-position weights of the payload
    positions that do not hold PAD_ID (occluded ones do); class 0 stays
    the argmax so the predicted class is stable under occlusion.
    """

    occluded_probabilities = occluded_by_forward_loop

    def __init__(self, stream, weights: dict[int, float], base: float = 0.6):
        self.stream = stream
        self.weights = weights
        self.base = base

    def forward(self, ids, operator):
        present = [i for i in range(1, self.stream.content_len - 1)
                   if ids[i] != PAD_ID]
        p = self.base + sum(self.weights.get(i, 0.0) for i in present)
        return SimpleNamespace(probabilities=np.array([p, 1.0 - p]),
                               ids=ids, operator=operator)


class ForwardLoop:
    """A model view whose attribution runs one full forward per occluded
    position, the fast path's oracle."""

    occluded_probabilities = occluded_by_forward_loop

    def __init__(self, model):
        self.forward = model.forward


def stub_setup(source="a = b + c;"):
    stream = tokenize(source)
    return stream, build_vocab([stream])


def phi0(model, stream, vocab):
    """``baseline`` on the stream's inputs and base forward."""
    inputs = model_inputs(stream, vocab)
    return baseline(model, stream, model.forward(*inputs))


class TestOcclusion:
    def test_constant_model_scores_zero(self):
        model, stream, vocab, *_ = tiny_model_inputs("a = b + 1;")
        for values in model.params.values():
            values[...] = 0.0
        attribution = attribute(model, stream, vocab)
        assert np.array_equal(attribution.token_scores,
                              np.zeros_like(attribution.token_scores))
        assert phi0(model, stream, vocab) == pytest.approx(
            1.0 / model.config.num_classes)

    def test_linear_surrogate_recovers_coefficients_exactly(self):
        stream, vocab = stub_setup()
        payload = range(1, stream.content_len - 1)
        weights = {i: 0.01 * (i + 1) for i in payload}
        stub = AdditiveStub(stream, weights)
        attribution = attribute(stub, stream, vocab)
        for i in payload:
            assert attribution.token_scores[i] == pytest.approx(
                weights[i], abs=1e-12)
        assert phi0(stub, stream, vocab) == pytest.approx(
            stub.base, abs=1e-12)

    def test_special_positions_never_scored(self, toy_run):
        record = next(r for r in toy_run.records if r.is_vulnerable)
        stream = tokenize(record.source)
        attribution = attribute(toy_run.model, stream, toy_run.vocab)
        assert attribution.token_scores[0] == 0.0
        assert attribution.token_scores[stream.content_len - 1] == 0.0
        assert attribution.token_scores.shape == (stream.content_len,)

    def test_deterministic(self):
        model, stream, vocab, *_ = tiny_model_inputs("x = y; y = x;")
        a = attribute(model, stream, vocab)
        b = attribute(model, stream, vocab)
        assert np.array_equal(a.token_scores, b.token_scores)
        assert a.line_scores == b.line_scores


class TestIncrementalOcclusion:
    @staticmethod
    def model_for(sources, gcn_layers, num_classes, fusion, gcn_dim=8):
        vocab = build_vocab(map(tokenize, sources))
        config = ModelConfig(vocab_size=len(vocab), embed_dim=10,
                             gcn_dim=gcn_dim,
                             gcn_layers=gcn_layers, num_classes=num_classes,
                             embed_weight=fusion[0], graph_weight=fusion[1])
        return VulnModel(config, seed=gcn_layers + num_classes), vocab

    @staticmethod
    def assert_matches_loop(model, vocab, source):
        stream = tokenize(source)
        fast = attribute(model, stream, vocab)
        loop = attribute(ForwardLoop(model), stream, vocab)
        assert fast.target_class == loop.target_class
        assert phi0(model, stream, vocab) == phi0(
            ForwardLoop(model), stream, vocab)
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
            self.assert_matches_loop(model, vocab, source)

    def test_matches_forward_loop_on_truncated_function(self):
        assert len(lex(LONG_SOURCE)) > 600
        assert tokenize(LONG_SOURCE).truncated
        model, vocab = self.model_for([LONG_SOURCE], 3, 11, (0.5, 0.5))
        self.assert_matches_loop(model, vocab, LONG_SOURCE)

    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_matches_forward_loop_on_one_token(self, gcn_layers):
        model, vocab = self.model_for(["x"], gcn_layers, 11, (0.5, 0.5))
        assert tokenize("x").content_len == 3
        self.assert_matches_loop(model, vocab, "x")

    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_matches_forward_loop_on_hub(self, gcn_layers):
        model, vocab = self.model_for([HUB_SOURCE], gcn_layers, 11,
                                      (0.5, 0.5))
        stream = tokenize(HUB_SOURCE)
        assert not stream.truncated and stream.content_len > 500
        self.assert_matches_loop(model, vocab, HUB_SOURCE)

    def test_matches_forward_loop_on_hub_past_one_segment_block(self):
        # the changed rows' segment sums add more than one block of columns
        assert 80 > SEGMENT_BLOCK
        model, vocab = self.model_for([HUB_SOURCE], 2, 11, (0.5, 0.5),
                                      gcn_dim=80)
        self.assert_matches_loop(model, vocab, HUB_SOURCE)

    @pytest.mark.parametrize("gcn_layers", [1, 2, 3])
    def test_chunk_size_does_not_change_the_result(self, gcn_layers,
                                                    monkeypatch):
        # a 60-argument hub ahead of sparse code, inside the window
        source = ("int mixed(char *buf, int n) {\n    memcpy("
                  + ", ".join(f"a{i}" for i in range(60)) + ");\n"
                  + "".join(f"    buf[{i}] = n + {i} * buf[n];\n"
                            for i in range(25))
                  + "    return n;\n}")
        model, vocab = self.model_for([source], gcn_layers, 11, (0.5, 0.5))
        stream = tokenize(source)
        assert not stream.truncated
        loop = attribute(ForwardLoop(model), stream, vocab)
        payload = stream.content_len - 2
        pooled_shifts = model_module._pooled_shifts
        chunks = []

        def counting(*args):
            chunks.append(1)
            return pooled_shifts(*args)

        monkeypatch.setattr(model_module, "_pooled_shifts", counting)
        for budget, expected_chunks in ((1, payload), (10**6, 1)):
            monkeypatch.setattr(model_module, "OCCLUSION_CHUNK_PAIRS", budget)
            chunks.clear()
            fast = attribute(model, stream, vocab)
            assert len(chunks) == expected_chunks
            np.testing.assert_allclose(fast.token_scores, loop.token_scores,
                                       rtol=0, atol=1e-12)

    def test_matches_forward_without_self_loops(self):
        model, stream, vocab, ids, _ = tiny_model_inputs(
            "a = b + c; d = a;")
        n = ids.size
        rng = np.random.default_rng(5)
        linked = rng.random((n, n)) < 0.2
        linked |= linked.T
        np.fill_diagonal(linked, False)
        operator = operator_from_dense(rng.random((n, n)) * linked)
        base = model.forward(ids, operator)
        target = int(np.argmax(base.probabilities))
        payload = list(range(1, n - 1))
        fast = model.occluded_probabilities(base, target, payload)
        loop = [model.forward(np.where(np.arange(n) == p, PAD_ID, ids),
                              operator).probabilities[target]
                for p in payload]
        np.testing.assert_allclose(fast, loop, rtol=0, atol=1e-12)

    def test_hub_memory_is_bounded(self):
        """As one chunk this call peaks at about 520 MiB; chunked, at 4."""
        vocab = build_vocab([tokenize(HUB_SOURCE)])
        config = ModelConfig(vocab_size=len(vocab), embed_dim=16, gcn_dim=64,
                             gcn_layers=3)
        model = VulnModel(config, seed=1)
        stream = tokenize(HUB_SOURCE)
        inputs = model_inputs(stream, vocab)
        base = model.forward(*inputs)
        payload = range(1, stream.content_len - 1)
        tracemalloc.start()
        try:
            model.occluded_probabilities(base, 0, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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
            inputs = model_inputs(stream, vocab)
            base = model.forward(*inputs)
            calls.clear()
            attribute_tokens(model, stream, base)
            assert len(calls) <= 1

    def test_non_finite_probability_is_attribution_error(self):
        model, stream, vocab, ids, operator = \
            tiny_model_inputs("a = b;")
        base = model.forward(ids, operator)
        model.params["gcn_0"][0, 0] = np.nan
        with pytest.raises(AttributionError, match="not finite"):
            model.occluded_probabilities(base, 0, [1, 2])


class TestShapleyOracle:
    def test_single_token_game(self):
        stream, vocab = stub_setup(";")
        assert stream.content_len == 3
        stub = AdditiveStub(stream, {1: 0.2})
        values = shapley_oracle(stub, stream, vocab)
        assert values[1] == pytest.approx(0.2, abs=1e-12)

    def test_symmetric_tokens_get_equal_values(self):
        model, stream, vocab, *_ = tiny_model_inputs("w w;", seed=4)
        # identical token text at two payload positions plus symmetric
        # handling: swap-invariance of the stub makes values equal
        stub = AdditiveStub(stream, {1: 0.05, 2: 0.05, 3: 0.01})
        values = shapley_oracle(stub, stream, vocab)
        assert values[1] == pytest.approx(values[2], abs=1e-12)

    def test_additive_game_equals_marginals(self):
        stream, vocab = stub_setup("a = b;")
        weights = {i: 0.02 * i for i in range(1, stream.content_len - 1)}
        stub = AdditiveStub(stream, weights)
        values = shapley_oracle(stub, stream, vocab)
        occlusion = attribute(stub, stream, vocab)
        np.testing.assert_allclose(values, occlusion.token_scores, atol=1e-12)

    def test_efficiency_on_real_model(self):
        model, stream, vocab, ids, operator = tiny_model_inputs(
            "p->q = r;", seed=8)
        values = shapley_oracle(model, stream, vocab)
        probabilities = model.forward(ids, operator).probabilities
        target = int(np.argmax(probabilities))
        full = probabilities[target]
        occluded = ids.copy()
        occluded[1:stream.content_len - 1] = PAD_ID
        empty = model.forward(occluded, operator).probabilities[target]
        assert values.sum() == pytest.approx(full - empty, abs=1e-9)

    def test_payload_cap(self):
        source = " ".join(f"x{i};" for i in range(10))  # 20 payload tokens
        stream, vocab = stub_setup(source)
        assert stream.content_len - 2 > ORACLE_MAX_TOKENS
        model, *_ = tiny_model_inputs("a;")
        with pytest.raises(AttributionError, match="cap"):
            shapley_oracle(model, stream, vocab)

    def test_rank_agreement_with_occlusion(self):
        correlations = []
        for seed in range(6):
            model, stream, vocab, *_ = tiny_model_inputs(
                "buf[i] = c;", seed=seed)
            occlusion = attribute(model, stream, vocab)
            oracle = shapley_oracle(model, stream, vocab)
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
                               span=(1, 5))
        assert rc.line == 3
        assert not rc.fallback_used

    def test_empty_candidate_set_falls_back(self):
        rc = select_root_cause({2: 0.4, 3: 0.1}, predicted_start=2,
                               span=(1, 4))
        assert rc.fallback_used
        assert rc.line == 2

    def test_nonpositive_candidates_fall_back(self):
        rc = select_root_cause({2: -0.5, 3: -0.1, 5: 0.9}, predicted_start=4,
                               span=(1, 6))
        assert rc.fallback_used
        assert rc.line == 5

    def test_declaration_line_never_selected(self):
        rc = select_root_cause({1: 99.0, 2: 0.1, 3: 0.05}, predicted_start=4,
                               span=(1, 4))
        assert rc.line == 2

    def test_ties_pick_smallest_line(self):
        rc = select_root_cause({2: 0.5, 3: 0.5}, predicted_start=5,
                               span=(1, 5))
        assert rc.line == 2

    def test_single_line_function_rejected(self):
        with pytest.raises(AttributionError):
            select_root_cause({1: 1.0}, predicted_start=1, span=(1, 1))

    def test_only_declaration_tokens_rejected(self):
        with pytest.raises(AttributionError, match="declaration"):
            select_root_cause({1: 1.0}, predicted_start=2, span=(1, 3))

    @pytest.mark.parametrize("scores, predicted_start, line", [
        ({40: 99.0, 41: 0.1, 42: 0.05}, 43, 41),
        ({40: 99.0, 41: -1.0, 43: 0.2}, 41, 43),
        ({40: 99.0, 41: 0.1}, 40, 41),
    ], ids=["before-range", "fallback", "range-at-first-line"])
    def test_span_first_line_never_selected(self, scores, predicted_start,
                                            line):
        """Past a file's line 1 the declaration is the span's first line,
        and no other line is it."""
        rc = select_root_cause(scores, predicted_start, span=(40, 43))
        assert rc.line == line

    def test_only_span_first_line_tokens_rejected(self):
        with pytest.raises(AttributionError, match="declaration"):
            select_root_cause({40: 1.0, 44: 2.0}, predicted_start=42,
                              span=(40, 43))


class TestLocalize:
    def test_range_and_root_cause(self):
        where = localize((0.5 / 4, 2.5 / 4), {2: 0.4, 3: 0.1}, span=(1, 4))
        assert where.vul_lines == (1, 3)
        assert where.root_cause.line == 2
        assert where.problem is None

    def test_range_over_a_span_past_line_1(self):
        where = localize((0.5 / 4, 2.5 / 4), {41: 0.4, 42: 0.1},
                         span=(40, 43))
        assert where.vul_lines == (40, 42)
        assert where.root_cause.line == 41

    def test_unavailable_root_cause_says_why(self):
        where = localize((0.5, 0.5), {1: 1.0}, span=(1, 1))
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
        model, stream, vocab, *_ = tiny_model_inputs("a = b;\nb = 1;")
        attribution = attribute(model, stream, vocab)
        rc = select_root_cause(attribution.line_scores,
                               predicted_start=3, span=(1, 2))
        payload = attribution_dump(attribution, rc,
                                   phi0(model, stream, vocab))
        assert set(payload) == {"token_scores", "line_scores", "root_cause",
                                "phi0", "target_class"}
        assert isinstance(payload["token_scores"], list)
        assert len(payload["token_scores"]) == STREAM_CAPACITY
        n = stream.content_len
        assert payload["token_scores"][:n] == list(attribution.token_scores)
        assert payload["token_scores"][n:] == [0.0] * (STREAM_CAPACITY - n)
        assert set(payload["root_cause"]) == {"line", "score", "fallback_used"}
