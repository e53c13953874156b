"""Dataset ingestion: labeled C/C++ function records, splits, CWE catalog.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError

#: Label used by detection-only corpora that mark functions vulnerable
#: without naming a weakness class.
BINARY_VULNERABLE_LABEL = "VULN"


def line_count(source: str) -> int:
    """Number of newline-separated lines in a source string."""
    return source.count("\n") + 1


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

    def validate(self, catalog: "CweCatalog | None" = None) -> None:
        """Check the record invariants, raising DataError on violation."""
        if not self.id:
            raise DataError("record with empty id")
        if not self.source.strip():
            raise DataError(f"record {self.id!r}: source is blank")
        if self.language not in ("c", "cpp"):
            raise DataError(
                f"record {self.id!r}: language must be 'c' or 'cpp', "
                f"got {self.language!r}"
            )
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
        if catalog is not None and self.cwe != BINARY_VULNERABLE_LABEL:
            if self.cwe not in catalog:
                raise DataError(
                    f"record {self.id!r}: unknown label {self.cwe!r}; "
                    f"expected one of {sorted(catalog.ids())} or "
                    f"{BINARY_VULNERABLE_LABEL!r}"
                )


class CweCatalog:
    """The ten weakness classes the classifier distinguishes.

    Class index 0 is reserved for "benign"; indices 1..10 map one-to-one
    onto the catalog entries below.
    """

    _ENTRIES: tuple[tuple[str, str], ...] = (
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

    def __init__(self) -> None:
        self._index = {cwe: i + 1 for i, (cwe, _) in enumerate(self._ENTRIES)}
        self._description = dict(self._ENTRIES)
        self._by_index = {i + 1: cwe for i, (cwe, _) in enumerate(self._ENTRIES)}

    def __contains__(self, cwe_id: str) -> bool:
        return cwe_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> tuple[str, ...]:
        return tuple(cwe for cwe, _ in self._ENTRIES)

    def class_index(self, cwe_id: str) -> int:
        """Class index 1..10 for a catalog entry."""
        if cwe_id not in self._index:
            raise DataError(
                f"unknown CWE {cwe_id!r}; valid ids: {', '.join(self.ids())}"
            )
        return self._index[cwe_id]

    def cwe_for_index(self, index: int) -> str:
        if index not in self._by_index:
            raise DataError(f"no CWE mapped to class index {index}")
        return self._by_index[index]

    def describe(self, cwe_id: str) -> str:
        if cwe_id not in self._description:
            raise DataError(
                f"unknown CWE {cwe_id!r}; valid ids: {', '.join(self.ids())}"
            )
        return self._description[cwe_id]


_DEFAULT_CATALOG = CweCatalog()


def default_catalog() -> CweCatalog:
    return _DEFAULT_CATALOG


def describe_cwe(cwe_id: str) -> str:
    """Static description for a catalog CWE id."""
    return _DEFAULT_CATALOG.describe(cwe_id)


_RECORD_KEYS = {
    "id", "source", "language", "cwe", "vul_start", "vul_end",
    "file", "file_start_line",
}


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_dataset(path: str | Path,
                 catalog: CweCatalog | None = None) -> list[FunctionRecord]:
    """Load and validate a JSONL dataset, preserving record order."""
    catalog = catalog or _DEFAULT_CATALOG
    records: list[FunctionRecord] = []
    seen_ids: set[str] = set()
    path = Path(path)
    try:
        # not splitlines(): save_dataset leaves U+2028 and U+0085 raw
        lines = path.read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise DataError(f"{path}:{lineno}: record must be a JSON object")
        unknown = set(raw) - _RECORD_KEYS
        if unknown:
            raise DataError(
                f"{path}:{lineno}: unknown field(s) {sorted(unknown)}"
            )
        try:
            record = FunctionRecord(
                id=raw["id"],
                source=_normalize_newlines(raw["source"]),
                language=raw["language"],
                cwe=raw.get("cwe"),
                vul_start=raw.get("vul_start"),
                vul_end=raw.get("vul_end"),
                file=raw.get("file"),
                file_start_line=raw.get("file_start_line"),
            )
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing field {exc}") from exc
        record.validate(catalog)
        if record.id in seen_ids:
            raise DataError(f"{path}:{lineno}: duplicate id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    return records


def record_to_json(record: FunctionRecord) -> dict:
    return {
        "id": record.id,
        "source": record.source,
        "language": record.language,
        "cwe": record.cwe,
        "vul_start": record.vul_start,
        "vul_end": record.vul_end,
        "file": record.file,
        "file_start_line": record.file_start_line,
    }


def save_dataset(records: Iterable[FunctionRecord], path: str | Path) -> None:
    """Write records back out in the JSONL interchange format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_json(record), ensure_ascii=False))
            fh.write("\n")


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test id sequences covering a dataset exactly."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int

    def all_ids(self) -> set[str]:
        return set(self.train) | set(self.val) | set(self.test)


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
