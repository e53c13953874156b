"""Regenerate the desk-width fixture checkpoint the benchmark runs on.

The scan-triage and explain-long workloads analyze with a fixed,
committed checkpoint, so that later changes to training arithmetic do
not move their numbers. This script trains it once on
``make_toy_corpus(seed=0)`` (all 32 records, desk widths 64/48, 200
Adam epochs) and rewrites ``fixture/desk/`` and ``fixture/desk.sha256``.

    python3 perfbench/make_fixture.py

Only rerun it on purpose: a new checkpoint changes what the benchmark
measures, so the change that commits it must say so.
"""

from __future__ import annotations

import sys

import common

common.pin_threads()
common.use_checkout_source()

from vulngraph.corpus import DatasetSplit  # noqa: E402
from vulngraph.model import ModelConfig  # noqa: E402
from vulngraph.objectives import FocalConfig  # noqa: E402
from vulngraph.synth import make_toy_corpus  # noqa: E402
from vulngraph.trainer import TrainConfig, save_checkpoint, train  # noqa: E402


def main() -> int:
    records, _ = make_toy_corpus(seed=0)
    every = tuple(r.id for r in records)
    result = train(records, DatasetSplit(train=every, val=(), test=(), seed=0),
                   ModelConfig(vocab_size=4, embed_dim=64, gcn_dim=48,
                               gcn_layers=2, num_classes=11),
                   TrainConfig(epochs=200, learning_rate=1e-3, batch_size=8,
                               seed=7, focal=FocalConfig(0.25, 2.0),
                               optimizer="adam", min_count=1))
    save_checkpoint(common.FIXTURE_DIR, result.model, result.vocab)
    digest = common.fixture_digest()
    common.FIXTURE_DIGEST_FILE.write_text(digest + "\n", encoding="utf-8")
    print(f"final train_loss {result.log[-1]['train_loss']:.6f}")
    print(f"fixture sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
