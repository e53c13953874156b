"""Paths, digests and thread pinning shared by the benchmark's modules."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_DIR = HERE / "fixture" / "desk"
FIXTURE_DIGEST_FILE = HERE / "fixture" / "desk.sha256"
FIXTURE_FILES = ("config.txt", "params.npz", "vocab.tsv")

#: Thread-pool sizes pinned before numpy loads, so that ``scan --jobs 2``
#: never runs more compute threads than the two cores it is sized for.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    """Pin the BLAS/OpenMP pools to one thread; call before importing numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    os.environ.update(PINNED_THREADS)


def use_checkout_source() -> None:
    """Import vulngraph from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "vulngraph" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no vulngraph sources under {SRC}")
    sys.path.insert(0, str(SRC))


def sha256_files(paths) -> str:
    """One digest over (name, bytes) of each file, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def fixture_digest() -> str:
    return sha256_files(FIXTURE_DIR / name for name in FIXTURE_FILES)


def check_fixture() -> str:
    """Digest of the committed checkpoint; raises if it was altered."""
    expected = FIXTURE_DIGEST_FILE.read_text(encoding="utf-8").strip()
    actual = fixture_digest()
    if actual != expected:
        raise SystemExit(
            f"benchmark: fixture checkpoint digest {actual} does not match "
            f"{FIXTURE_DIGEST_FILE.name} ({expected}); regenerate it with "
            f"perfbench/make_fixture.py")
    return actual
