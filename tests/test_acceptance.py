"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

import numpy as np

from vulngraph.attribution import attribute_tokens, select_root_cause
from vulngraph.corpus import select, split
from vulngraph.lexer import PAD_ID, build_vocab, tokenize
from vulngraph.model import ModelConfig, denormalize_lines, fuse
from vulngraph.objectives import FocalConfig, focal_loss, iou_1d
from vulngraph.scanner import scan
from vulngraph.semgraph import build_graph
from vulngraph.synth import make_toy_corpus
from vulngraph.runfiles import TrainConfig, save_checkpoint
from vulngraph.trainer import evaluate, prepare_sample, sweep_ensemble
from conftest import (attribute, dense_adjacency, dense_counts, families,
                      fuzz_snippet, gcn_weights, spearman, tiny_model_inputs,
                      to_dense)
from oracles import backward_node, grad_check, shapley_oracle


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_gradient_audit():
    started = time.time()
    worst = 0.0
    for seed in range(5):
        model, _, _, ids, operator = tiny_model_inputs(
            "int f(){int a;return a+1;}", seed=seed, num_classes=11,
            embed_dim=8, gcn_dim=6)
        assert len(ids) == 16
        cfg = FocalConfig(alpha=0.25, delta=2.0)
        target = 1 + seed % 10

        def f():  # the loss of ``forward``, differentiated by ``backward``
            return backward_node(model, ids, operator, target, (0.25, 0.75),
                                 cfg)

        check = grad_check(f, model.params, h=1e-5, tol=1e-4,
                           max_coords_per_param=25,
                           rng=np.random.default_rng(seed))
        worst = max(worst, check.max_rel_error)
    elapsed = time.time() - started
    report(1, "gradient audit", worst < 1e-4 and elapsed < 5.0,
           f"max rel error {worst:.2e} over 5 seeds in {elapsed:.2f}s")


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(0)
    ce_cfg = FocalConfig(alpha=1.0, delta=0.0)
    max_diff = 0.0
    for _ in range(100):
        logits = rng.normal(scale=4.0, size=7)
        target = int(rng.integers(0, 7))
        z = logits - logits.max()
        cross_entropy = float(np.log(np.exp(z).sum()) - z[target])
        loss, _ = focal_loss(logits, target, ce_cfg)
        max_diff = max(max_diff, abs(loss - cross_entropy))

    derived_cfg = FocalConfig(alpha=0.25, delta=2.0)
    derived, _ = focal_loss(np.log([0.9, 0.1]), 0, derived_cfg)
    expected = 0.25 * (0.1 ** 2) * -math.log(0.9)  # = 2.634e-4
    derived_diff = abs(derived - expected)
    report(2, "loss identities",
           max_diff <= 1e-12 and derived_diff <= 1e-9,
           f"CE max diff {max_diff:.2e}, derived point diff {derived_diff:.2e}")


def test_criterion_3_iou_oracle_equivalence():
    def bitmask_oracle(a, b):
        sa = set(range(a[0], a[1] + 1))
        sb = set(range(b[0], b[1] + 1))
        return len(sa & sb) / len(sa | sb)

    ranges = [(s, e) for s in range(1, 13) for e in range(s, 13)]
    pairs = 0
    for a in ranges:
        for b in ranges:
            assert iou_1d(a, b) == bitmask_oracle(a, b), (a, b)
            pairs += 1
    derived_ok = iou_1d((5, 10), (3, 7)) == 0.375
    report(3, "IoU oracle equivalence", derived_ok,
           f"exact match on {pairs} ordered pairs incl. (5,10)x(3,7)=0.375")


def test_criterion_4_residual_identity_and_fusion_endpoints():
    residual_ok = True
    for seed in range(3):
        source = fuzz_snippet(random.Random(seed))
        model, _, _, ids, operator = tiny_model_inputs(
            source, seed=seed)
        for w in gcn_weights(model):
            w[...] = 0.0
        projected, _, inverse = model.embed(ids)
        h_n, _ = model.gcn_forward(projected, inverse, operator)
        residual_ok &= np.array_equal(h_n, projected[inverse])

    rng = np.random.default_rng(1)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    endpoints_ok = (np.array_equal(fuse(a, b, 1.0, 0.0), a)
                    and np.array_equal(fuse(a, b, 0.0, 1.0), b))
    report(4, "residual identity / fusion endpoints",
           residual_ok and endpoints_ok,
           f"residual bit-equal: {residual_ok}, endpoints bit-exact: "
           f"{endpoints_ok}")


def test_criterion_5_attribution_soundness():
    snippets = ["a = b + c;", "p->q = r;", "buf[i] = x;", "free(p);",
                "x = y; y = x;", "if(a){b=1;}", "return n;", "w = 2;"]

    worst_efficiency = 0.0
    correlations = []
    for seed in range(20):
        source = snippets[seed % len(snippets)]
        model, stream, vocab, ids, operator = tiny_model_inputs(
            source, seed=seed)
        payload = list(range(1, stream.content_len - 1))
        assert len(payload) <= 10
        values = shapley_oracle(model, stream, vocab)
        probabilities = model.forward(ids, operator).probabilities
        target = int(np.argmax(probabilities))
        full = probabilities[target]
        occluded = ids.copy()
        occluded[payload] = PAD_ID
        empty = model.forward(occluded, operator).probabilities[target]
        worst_efficiency = max(worst_efficiency,
                               abs(values.sum() - (full - empty)))
        occlusion = attribute(model, stream, vocab)
        window = slice(1, stream.content_len - 1)
        correlations.append(spearman(occlusion.token_scores[window],
                                     values[window]))
    mean_corr = float(np.mean(correlations))

    # linear surrogate: occlusion must recover the coefficients exactly
    from test_attribution import AdditiveStub
    stream = tokenize("a = b + c;")
    vocab = build_vocab([stream])
    coefficients = {i: 0.01 * (i + 1)
                    for i in range(1, stream.content_len - 1)}
    stub = AdditiveStub(stream, coefficients)
    recovered = attribute(stub, stream, vocab)
    linear_ok = all(
        abs(recovered.token_scores[i] - coefficients[i]) < 1e-12
        for i in coefficients)

    report(5, "attribution soundness",
           worst_efficiency <= 1e-9 and mean_corr >= 0.9 and linear_ok,
           f"efficiency gap {worst_efficiency:.1e}, mean Spearman "
           f"{mean_corr:.3f} over 20 instances, linear recovery {linear_ok}")


def test_criterion_6_overfit_sanity(toy_run):
    train_records = select(toy_run.records, toy_run.split.train)
    metrics = evaluate(toy_run.model, train_records, toy_run.vocab)

    vulnerable = [r for r in train_records if r.is_vulnerable]
    hits = 0
    for record in vulnerable:
        stream = tokenize(record.source)
        sample = prepare_sample(record, toy_run.vocab, 11)
        inputs = (sample.ids, sample.operator)
        out = toy_run.model.forward(*inputs)
        predicted_start, _ = denormalize_lines(out.loc_pred,
                                               record.line_count)
        attribution = attribute_tokens(toy_run.model, stream, out)
        root = select_root_cause(attribution.line_scores, predicted_start,
                                 record.span)
        hits += root.line == toy_run.truth[record.id].root_line
    root_rate = hits / len(vulnerable)

    ok = (metrics.accuracy >= 0.95
          and metrics.mean_iou is not None and metrics.mean_iou >= 0.80
          and toy_run.elapsed_seconds < 60.0
          and root_rate >= 0.70)
    report(6, "overfit sanity",
           ok,
           f"train acc {metrics.accuracy:.3f}, mean IoU "
           f"{metrics.mean_iou:.3f}, trained in "
           f"{toy_run.elapsed_seconds:.1f}s (200 epochs), root-cause match "
           f"{hits}/{len(vulnerable)} = {root_rate:.2f}")


def test_criterion_7_sweep_mechanics():
    records, _ = make_toy_corpus(seed=5)
    dataset_split = split(records, seed=5)
    model_cfg = ModelConfig(vocab_size=4, embed_dim=16, gcn_dim=12,
                            num_classes=11)
    train_cfg = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=8, seed=5)
    ratios = [(w, round(1.0 - w, 12)) for w in (0.2, 0.4, 0.5, 0.6, 0.8)]
    first = sweep_ensemble(records, dataset_split, ratios, model_cfg, train_cfg)
    second = sweep_ensemble(records, dataset_split, ratios, model_cfg,
                            train_cfg)
    columns_ok = all(
        set(row) == {"embed_weight", "graph_weight", "iou", "accuracy", "f1",
                     "precision", "recall"} for row in first)
    report(7, "sweep mechanics",
           len(first) == 5 and columns_ok and first == second,
           f"{len(first)} rows, columns complete: {columns_ok}, "
           f"bit-reproducible: {first == second}")


def test_criterion_8_graph_invariants():
    rng = random.Random(123)
    checked = 0
    for _ in range(200):
        stream = tokenize(fuzz_snippet(rng))
        operator = build_graph(stream)
        active = stream.content_len
        counts = dense_counts(stream)
        assert np.array_equal(counts, counts.T), "counts not symmetric"
        adjacency = to_dense(operator)
        shape = (active, active)
        assert operator.n == active and adjacency.shape == shape, \
            "operator not content_len x content_len"
        assert np.array_equal(adjacency, dense_adjacency(stream)), \
            "operator does not normalize the symmetric counts"
        row_sums = adjacency.sum(axis=1)
        assert np.all(np.abs(row_sums - 1.0) <= 1e-12), "rows not stochastic"
        assert all((src < active).all() and (dst < active).all()
                   for src, dst in families(stream).values()), \
            "edge into PAD"
        checked += 1
    report(8, "graph invariants", checked == 200,
           f"{checked}/200 fuzz snippets satisfied symmetry, row-stochastic "
           "rows, and a content_len x content_len operator")


def test_criterion_9_scan_determinism(tmp_path, toy_run):
    src = tmp_path / "tree"
    src.mkdir()
    train_records = select(toy_run.records, toy_run.split.train)
    chosen = ([r for r in train_records if r.is_vulnerable][:3]
              + [r for r in train_records if not r.is_vulnerable][:3])
    for i, record in enumerate(chosen):
        (src / f"unit{i}.c").write_text(record.source + "\n", encoding="utf-8")
    checkpoint = tmp_path / "ckpt"
    save_checkpoint(checkpoint, toy_run.model, toy_run.vocab)

    def run(out, jobs):
        scan(src, toy_run.model, toy_run.vocab, out, jobs=jobs)
        return {p.name: p.read_bytes()
                for p in sorted(out.glob("*")) if p.is_file()}

    runs = [run(tmp_path / "o1", 1), run(tmp_path / "o2", 1),
            run(tmp_path / "o3", 4)]
    identical = runs[0] == runs[1] == runs[2]
    report(9, "scan determinism", identical,
           f"{len(runs[0])} output files byte-identical across two runs "
           "and worker counts 1 and 4")
