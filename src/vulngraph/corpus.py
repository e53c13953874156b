"""Dataset ingestion: labeled C/C++ function records, splits, class labels.

The on-disk format is JSONL, one record per line:

    {"id": str, "source": str, "language": "c"|"cpp", "cwe": str|null,
     "vul_start": int|null, "vul_end": int|null,
     "file": str|null, "file_start_line": int|null}

Newlines inside "source" are LF-normalized on load. A record is benign
iff "cwe" is null; labeled records must carry a valid 1-based inclusive
line range. Corpora without per-class labels (detection-only) use the
special label "VULN", which maps to the positive class of a binary model.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError

#: Label used by detection-only corpora that mark functions vulnerable
#: without naming a weakness class.
BINARY_VULNERABLE_LABEL = "VULN"


def line_count(source: str) -> int:
    """Number of newline-separated lines in a source string."""
    return source.count("\n") + 1


#: Record field -> (type, whether null is allowed); bool is no int here.
#: The JSONL keys are these fields; a field that cannot be null must be
#: given.
_FIELD_TYPES = {
    "id": (str, False), "source": (str, False), "language": (str, False),
    "cwe": (str, True), "file": (str, True), "vul_start": (int, True),
    "vul_end": (int, True), "file_start_line": (int, True),
}


@dataclass(frozen=True)
class FunctionRecord:
    """One C/C++ function with optional vulnerability labels.

    ``vul_start``/``vul_end`` are 1-based line indices into ``source``,
    inclusive on both ends. ``file``/``file_start_line`` record where the
    function came from when it was cut out of a larger file.
    """

    id: str
    source: str
    language: str
    cwe: str | None = None
    vul_start: int | None = None
    vul_end: int | None = None
    file: str | None = None
    file_start_line: int | None = None

    @property
    def is_vulnerable(self) -> bool:
        return self.cwe is not None

    @property
    def line_count(self) -> int:
        return line_count(self.source)

    @property
    def span(self) -> tuple[int, int]:
        """First and last line in its file; from 1 if not cut from one."""
        first = self.file_start_line or 1
        return first, first + self.line_count - 1

    def validate(self) -> None:
        """Check the record invariants, raising DataError on violation."""
        for name, (kind, nullable) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and nullable:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                expected = "a string" if kind is str else "an integer"
                raise DataError(
                    f"record {self.id!r}: {name} must be {expected}"
                    f"{' or null' if nullable else ''}, got {value!r}")
        if not self.id:
            raise DataError("record with empty id")
        if not self.source.strip():
            raise DataError(f"record {self.id!r}: source is blank")
        if self.language not in ("c", "cpp"):
            raise DataError(
                f"record {self.id!r}: language must be 'c' or 'cpp', "
                f"got {self.language!r}"
            )
        if self.file_start_line is not None and self.file_start_line < 1:
            raise DataError(f"record {self.id!r}: file_start_line must be "
                            f">= 1, got {self.file_start_line}")
        if self.cwe is None:
            if self.vul_start is not None or self.vul_end is not None:
                raise DataError(
                    f"record {self.id!r}: benign records must not carry "
                    "a vulnerable line range"
                )
            return
        if self.vul_start is None or self.vul_end is None:
            raise DataError(
                f"record {self.id!r}: labeled records need vul_start and vul_end"
            )
        if not (1 <= self.vul_start <= self.vul_end <= self.line_count):
            raise DataError(
                f"record {self.id!r}: invalid line range "
                f"[{self.vul_start}, {self.vul_end}] for a "
                f"{self.line_count}-line function"
            )
        if self.cwe != BINARY_VULNERABLE_LABEL and self.cwe not in _CWE_INDEX:
            raise DataError(
                f"record {self.id!r}: unknown label {self.cwe!r}; "
                f"expected one of {sorted(_CWE_INDEX)} or "
                f"{BINARY_VULNERABLE_LABEL!r}"
            )


#: Each class's label and description, in class-index order: 0 is
#: benign, and 1..10 are the weakness classes a multiclass model tells
#: apart.
CLASSES: tuple[tuple[str, str], ...] = (
    ("none", "No vulnerability detected."),
    ("CWE-119",
     "Improper Restriction of Operations within the Bounds of a Memory "
     "Buffer. The code reads or writes outside the buffer it operates on."),
    ("CWE-264",
     "Permissions, Privileges, and Access Controls. The code fails to "
     "enforce intended privilege or access-control boundaries."),
    ("CWE-125",
     "Out-of-bounds Read. The code reads data past the end, or before "
     "the beginning, of the intended buffer."),
    ("CWE-200",
     "Exposure of Sensitive Information. The code makes sensitive data "
     "available to an actor who should not have access to it."),
    ("CWE-416",
     "Use After Free. The code references memory after it has been "
     "freed, which can corrupt state or crash the process."),
    ("CWE-399",
     "Resource Management Errors. The code mishandles the creation, "
     "use, or release of a system resource."),
    ("CWE-20",
     "Improper Input Validation. The code uses input without checking "
     "it, letting malformed data alter control or data flow."),
    ("CWE-476",
     "NULL Pointer Dereference. The code dereferences a pointer it "
     "expects to be valid but that may be NULL."),
    ("CWE-189",
     "Numeric Errors. The code performs an improper calculation or "
     "conversion of numbers, producing unsafe values."),
    ("CWE-190",
     "Integer Overflow or Wraparound. The code performs arithmetic that "
     "can exceed the type's range and wrap to an unexpected value."),
)

#: Class 1 of a binary model, which every vulnerable record maps to.
_BINARY_VULNERABLE = (
    BINARY_VULNERABLE_LABEL,
    "Vulnerability detected. This model distinguishes vulnerable from "
    "benign code only; no weakness class is available.")

_CWE_INDEX = {cwe: index for index, (cwe, _) in enumerate(CLASSES) if index}


def class_index(record: FunctionRecord, num_classes: int) -> int:
    """The class of a valid record under a ``num_classes`` model: 0
    benign, 1 for any label in binary mode (``num_classes`` 2), else the
    label's index in ``CLASSES``.

    Raises DataError, naming the record, for the class-free label in a
    multiclass model and for a class the model does not have.
    """
    if record.cwe is None:
        return 0
    if num_classes == 2:
        return 1
    if record.cwe == BINARY_VULNERABLE_LABEL:
        raise DataError(
            f"record {record.id!r} carries the class-free label "
            f"{BINARY_VULNERABLE_LABEL!r}; use a binary (num_classes=2) model"
        )
    index = _CWE_INDEX[record.cwe]
    if index >= num_classes:
        raise DataError(
            f"record {record.id!r}: label {record.cwe!r} is class {index}; "
            f"a {num_classes}-class model has classes 0..{num_classes - 1}")
    return index


def class_label(index: int, num_classes: int) -> tuple[str, str]:
    """(label, description) of class ``index`` of a ``num_classes`` model:
    ``CLASSES[index]``, or the class-free ``VULN`` for class 1 of a binary
    model."""
    if num_classes == 2 and index == 1:
        return _BINARY_VULNERABLE
    return CLASSES[index]


def normalize_newlines(text: str) -> str:
    """``text`` with CRLF and lone CR line endings made LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_dataset(path: str | Path) -> list[FunctionRecord]:
    """Load and validate a JSONL dataset, preserving record order."""
    records: list[FunctionRecord] = []
    seen_ids: set[str] = set()
    path = Path(path)
    try:
        # not splitlines(): save_dataset leaves U+2028 and U+0085 raw
        lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON: past the "
                            f"parser's limits on nesting or integer digits"
                            ) from exc
        if not isinstance(raw, dict):
            raise DataError(f"{path}:{lineno}: record must be a JSON object")
        unknown = raw.keys() - _FIELD_TYPES
        if unknown:
            raise DataError(
                f"{path}:{lineno}: unknown field(s) {sorted(unknown)}"
            )
        for key, (_, nullable) in _FIELD_TYPES.items():
            if not nullable and key not in raw:
                raise DataError(f"{path}:{lineno}: missing field {key!r}")
        # validate rejects a source that is not a string
        if isinstance(raw["source"], str):
            raw["source"] = normalize_newlines(raw["source"])
        record = FunctionRecord(**raw)
        record.validate()
        if record.id in seen_ids:
            raise DataError(f"{path}:{lineno}: duplicate id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    return records


def save_dataset(records: Iterable[FunctionRecord], path: str | Path) -> None:
    """Write records back out in the JSONL interchange format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record), ensure_ascii=False))
            fh.write("\n")


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test id sequences covering a dataset exactly."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


def split(records: Sequence[FunctionRecord], seed: int) -> DatasetSplit:
    """Shuffle ids with ``seed`` and partition 80:10:10.

    When the count does not divide evenly, leftover records go to train,
    then val, then test (largest-remainder rounding).
    """
    if len(records) < 10:
        raise DataError(
            f"need at least 10 records to split, got {len(records)}"
        )
    ids = [r.id for r in records]
    rng = random.Random(seed)
    rng.shuffle(ids)
    n = len(ids)
    sizes = [int(n * 0.8), int(n * 0.1), int(n * 0.1)]
    for i in range(n - sum(sizes)):
        sizes[i % 3] += 1
    train = tuple(ids[:sizes[0]])
    val = tuple(ids[sizes[0]:sizes[0] + sizes[1]])
    test = tuple(ids[sizes[0] + sizes[1]:])
    return DatasetSplit(train=train, val=val, test=test, seed=seed)


def select(records: Sequence[FunctionRecord],
           ids: Iterable[str]) -> list[FunctionRecord]:
    """Records for the given ids, in the ids' order."""
    by_id = {r.id: r for r in records}
    try:
        return [by_id[i] for i in ids]
    except KeyError as exc:
        raise DataError(f"split references unknown record id {exc}") from exc
