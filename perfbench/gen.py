"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes. Sizes are fixed schedules and only the content varies with
the seed, so that throughput is comparable across seeds. Lengths are
counted with ``lexer.lex``, which has no cap; ``tokenize`` stops at the
510-token payload window, so a loop growing a function until
``tokenize`` reports a target beyond 510 would never end.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from vulngraph.corpus import FunctionRecord, save_dataset
from vulngraph.lexer import lex
from vulngraph.synth import make_toy_corpus

# -- scan-triage: a tree of toy-shaped functions -----------------------------

SCAN_CORPORA = 24  # make_toy_corpus(per_class=1, benign=28): 32 functions each
SCAN_PER_FILE = 8
SCAN_DIRS = ("net", "fs", "mm", "lib")
SCAN_HEADER = ("#include <stdlib.h>", "#include <string.h>", "")


@dataclass(frozen=True)
class Planted:
    """Ground truth for one function, in file coordinates."""

    cwe: str | None  # None when benign
    root_line: int | None
    vul_lines: tuple[int, int] | None


@dataclass(frozen=True)
class ScanTree:
    root: Path
    n_functions: int
    n_files: int
    truth: dict[tuple[str, int], Planted]  # (relative file, start line)


def make_scan_tree(out: Path, seed: int) -> ScanTree:
    """About 768 short functions, 8 per file, 1 in 8 planted vulnerable."""
    rng = random.Random(f"scan-{seed}")
    pool: list[tuple[FunctionRecord, int | None]] = []
    for k in range(SCAN_CORPORA):
        records, truth = make_toy_corpus(seed=rng.randrange(2**31),
                                         per_class=1, benign=28)
        for record in records:
            planted = truth.get(record.id)
            pool.append((record, planted.root_line if planted else None))
    rng.shuffle(pool)

    truth_map: dict[tuple[str, int], Planted] = {}
    n_files = 0
    for start in range(0, len(pool), SCAN_PER_FILE):
        index = start // SCAN_PER_FILE
        rel = f"{SCAN_DIRS[index % len(SCAN_DIRS)]}/unit_{index:03d}.c"
        lines = list(SCAN_HEADER)
        for record, root_line in pool[start:start + SCAN_PER_FILE]:
            first = len(lines) + 1
            lines.extend(record.source.split("\n"))
            lines.append("")
            shift = first - 1
            truth_map[(rel, first)] = Planted(
                cwe=record.cwe,
                root_line=None if root_line is None else shift + root_line,
                vul_lines=None if record.cwe is None else
                (shift + record.vul_start, shift + record.vul_end))
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines), encoding="utf-8")
        n_files += 1
    return ScanTree(root=out, n_functions=len(pool), n_files=n_files,
                    truth=truth_map)


# -- long functions with planted shapes ---------------------------------------

_SHAPES = {
    "CWE-119": ("    char *dst_{u} = malloc({n});",
                ("    strcpy(dst_{u}, input);", "    dst_{u}[count] = total;")),
    "CWE-476": ("    char *slot_{u} = find_entry(input);",
                ("    *slot_{u} = count;", "    slot_{u}[1] = total;")),
    "CWE-190": ("    int span_{u} = count * {n}096;",
                ("    int cell_{u} = span_{u} + count;",
                 "    put_item(cell_{u}, span_{u});")),
    "CWE-416": ("    free(input);",
                ("    input[0] = (char) total;", "    copy_bytes(input, count);")),
}

_FILLER = (
    "    int v{k} = count + {n};",
    "    if (v{k} > {n}) {{ v{k} = v{k} - 1; }}",
    "    for (int i{k} = 0; i{k} < count; i{k}++) {{ total += i{k}; }}",
    "    while (v{k} > {n}) {{ v{k} = v{k} / 2; }}",
    "    buf[{n}] = (char) v{k};",
    "    total = total + v{k} * {n};",
    "    log_value(\"step {n}\", v{k});",
    "    if (total < v{k}) {{ total = v{k}; }} else {{ v{k} = total; }}",
)
_SHORT_FILLER = "    v{k}++;"  # 3 tokens, to land within 2 of a target


def _ntokens(line: str) -> int:
    return len(lex(line))


@dataclass(frozen=True)
class LongFunction:
    name: str
    source: str
    payload_tokens: int  # counted with lex, before any truncation
    cwe: str | None
    vul_lines: tuple[int, int] | None  # function coordinates


def make_long_function(rng: random.Random, name: str, target: int,
                       cwe: str | None) -> LongFunction:
    """A function of at least ``target`` lexed tokens, truth planted early.

    The planted root and vulnerable lines sit within the first ~120
    tokens, so they stay inside the window even when the function is
    truncated.
    """
    uid = f"{rng.randrange(10**6):06d}"
    lines = [f"int {name}(char *input, int count) {{",
             "    int total = 0;", "    char buf[64];"]
    declared: list[int] = []
    serial = 0

    def filler() -> str:
        nonlocal serial
        template = _FILLER[0] if not declared else rng.choice(_FILLER)
        if template is _FILLER[0]:
            declared.append(serial)
            k = serial
            serial += 1
        else:
            k = rng.choice(declared)
        return template.format(k=k, n=rng.randrange(1, 60))

    for _ in range(rng.randint(2, 4)):
        lines.append(filler())
    vul = None
    if cwe is not None:
        root, sinks = _SHAPES[cwe]
        lines.append(root.format(u=uid, n=rng.randrange(2, 9)))
        for _ in range(rng.randint(0, 2)):
            lines.append(filler())
        vul = (len(lines) + 1, len(lines) + len(sinks))
        lines.extend(s.format(u=uid) for s in sinks)
    tail = ["    return total;", "}"]
    count = sum(_ntokens(line) for line in lines + tail)
    while count < target:
        if target - count > 24:
            line = filler()
        else:
            line = _SHORT_FILLER.format(k=rng.choice(declared))
        lines.append(line)
        count += _ntokens(line)
    lines.extend(tail)
    return LongFunction(name=name, source="\n".join(lines),
                        payload_tokens=count, cwe=cwe, vul_lines=vul)


def _length_schedule(low: int, high: int, n: int) -> list[int]:
    return [round(low + (high - low) * i / (n - 1)) for i in range(n)]


EXPLAIN_COUNT = 12
EXPLAIN_LENGTHS = (200, 640)  # the top third exceeds the 510-token window
_CLASS_CYCLE = ("CWE-119", "CWE-476", "CWE-190", "CWE-416", None)


def make_explain_set(out: Path, seed: int) -> list[tuple[Path, LongFunction]]:
    """One long function per file, all files in one directory."""
    rng = random.Random(f"explain-{seed}")
    out.mkdir(parents=True, exist_ok=True)
    made = []
    for i, target in enumerate(_length_schedule(*EXPLAIN_LENGTHS,
                                                EXPLAIN_COUNT)):
        fn = make_long_function(rng, f"handle_{i:02d}", target,
                                _CLASS_CYCLE[i % len(_CLASS_CYCLE)])
        path = out / f"long_{i:02d}.c"
        path.write_text(fn.source + "\n", encoding="utf-8")
        made.append((path, fn))
    return made


TRAIN_COUNT = 24
TRAIN_LENGTHS = (300, 510)
_TRAIN_CLASSES = ("CWE-119", "CWE-476", "CWE-190", "CWE-416", None, None)


def make_train_set(path: Path, seed: int) -> list[FunctionRecord]:
    """Labeled long functions as JSONL; ids do not depend on the seed.

    Fixed ids keep the train/val/test split, and so the number of
    training samples, the same for every seed.
    """
    rng = random.Random(f"train-{seed}")
    records = []
    for i, target in enumerate(_length_schedule(*TRAIN_LENGTHS, TRAIN_COUNT)):
        fn = make_long_function(rng, f"train_{i:02d}", target,
                                _TRAIN_CLASSES[i % len(_TRAIN_CLASSES)])
        records.append(FunctionRecord(
            id=f"train_{i:02d}", source=fn.source, language="c", cwe=fn.cwe,
            vul_start=fn.vul_lines[0] if fn.vul_lines else None,
            vul_end=fn.vul_lines[1] if fn.vul_lines else None))
    path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(records, path)
    return records


def tree_digest(root: Path) -> str:
    """sha256 over (relative path, bytes) of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def write_config(path: Path, **settings) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in settings.items()),
                    encoding="utf-8")
