"""Repository scanning: extract C/C++ functions, analyze, emit reports.

Function extraction is lexical: a definition is a top-level
``identifier ( ... ) {`` with braces balanced to the matching close.
Matching runs over lexer tokens, so braces inside string or character
literals cannot confuse it. K&R-style definitions and macro-generated
functions are known misses of this approach.

Every analyzed function yields a report with the four developer-facing
outputs: the predicted class, its static description, the vulnerable
line range, and the root-cause line, all in file coordinates.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import cpus
from .attribution import attribute_tokens, localize, normalize_scores
from .corpus import (BINARY_VULNERABLE_LABEL, FunctionRecord, default_catalog,
                     normalize_newlines)
from .errors import ConfigError, DataError, LexError, VulnGraphError
from .lexer import Token, TokenKind, Vocabulary, closers, lex, tokenize
from .model import VulnModel
from .semgraph import build_graph, model_inputs

logger = logging.getLogger(__name__)

SOURCE_EXTENSIONS = {".c", ".h", ".cc", ".cpp", ".hpp"}
_CPP_EXTENSIONS = {".cc", ".cpp", ".hpp"}

_BINARY_DESCRIPTION = (
    "Vulnerability detected. This model distinguishes vulnerable from "
    "benign code only; no weakness class is available."
)


@dataclass
class AnalysisReport:
    """Developer-facing result for one function."""

    function_id: str
    file: str | None
    span: tuple[int, int]  # file coordinates, inclusive
    predicted_cwe: str  # "none" when benign, else a CWE id or "VULN"
    confidence: float
    description: str
    vul_lines: tuple[int, int] | None = None
    root_cause_line: int | None = None
    line_attributions: dict[int, float] | None = None
    truncated: bool = False
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def unanalyzable(self) -> bool:
        return self.error is not None

    def to_json_dict(self) -> dict:
        return {
            "function_id": self.function_id,
            "file": self.file,
            "span": list(self.span),
            "predicted_cwe": self.predicted_cwe,
            "confidence": self.confidence,
            "description": self.description,
            "vul_lines": None if self.vul_lines is None else list(self.vul_lines),
            "root_cause_line": self.root_cause_line,
            "line_attributions": None if self.line_attributions is None else {
                str(line): score
                for line, score in sorted(self.line_attributions.items())},
            "truncated": self.truncated,
            "warnings": self.warnings,
            "error": self.error,
        }


def extract_functions(root: str | Path,
                      skipped: list[str] | None = None
                      ) -> list[FunctionRecord]:
    """Walk a source tree and cut out every function definition.

    Records are ordered by (relative path, start line). A file that
    cannot be read, lexed or balanced is skipped with a warning rather
    than failing the walk, and its relative path is appended to
    ``skipped``.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"scan root {root} is not a readable directory")
    records: list[FunctionRecord] = []
    files = sorted(p for p in root.rglob("*")
                   if p.is_file() and p.suffix in SOURCE_EXTENSIONS)
    for path in files:
        rel_path = path.relative_to(root).as_posix()
        found = file_functions(path, rel_path)
        if found is not None:
            records.extend(found)
        elif skipped is not None:
            skipped.append(rel_path)
    return records


def file_functions(path: Path, rel_path: str) -> list[FunctionRecord] | None:
    """Every function definition in one source file, ordered by start line.

    ``rel_path`` names the file in function ids and reports. CRLF and
    lone CR line endings read as LF. A file that cannot be read, lexed
    or balanced gives None, with a warning.
    """
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
        return _functions_in_file(normalize_newlines(text), rel_path)
    except OSError as exc:
        logger.warning("skipping unreadable file %s: %s", rel_path, exc)
    except LexError as exc:
        logger.warning("skipping unlexable file %s: %s", rel_path, exc)
    return None


def _functions_in_file(text: str,
                       rel_path: str) -> list[FunctionRecord] | None:
    tokens = lex(text)
    lines = text.split("\n")
    language = "cpp" if Path(rel_path).suffix in _CPP_EXTENSIONS else "c"
    directive_lines = _directive_lines(tokens)
    parens = closers(tokens, "(", ")")
    braces = closers(tokens, "{", "}")
    records: list[FunctionRecord] = []
    depth = 0
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if depth == 0 and tok.kind is TokenKind.IDENTIFIER \
                and tok.line not in directive_lines \
                and i + 1 < n and tokens[i + 1].text == "(":
            close = parens.get(i + 1)
            if close is not None and close + 1 < n \
                    and tokens[close + 1].text == "{":
                end = braces.get(close + 1)
                if end is None:
                    logger.warning(
                        "skipping %s: unbalanced braces after line %d",
                        rel_path, tokens[close + 1].line)
                    return None
                start_line = _declaration_start(tokens, i, directive_lines)
                end_line = tokens[end].line
                source = "\n".join(lines[start_line - 1:end_line])
                records.append(FunctionRecord(
                    id=f"{rel_path}:{start_line}:{tok.text}",
                    source=source,
                    language=language,
                    file=rel_path,
                    file_start_line=start_line,
                ))
                i = end + 1
                continue
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth = max(0, depth - 1)
        i += 1
    return records


def _directive_lines(tokens: Sequence[Token]) -> set[int]:
    """Lines whose first token is '#', i.e. preprocessor directives."""
    first_on_line: dict[int, str] = {}
    for tok in tokens:
        first_on_line.setdefault(tok.line, tok.text)
    return {line for line, text in first_on_line.items() if text == "#"}


def _declaration_start(tokens: Sequence[Token], name_pos: int,
                       directive_lines: set[int]) -> int:
    """First line of the declaration: scan back over return-type tokens."""
    start = name_pos
    while start - 1 >= 0:
        prev = tokens[start - 1]
        if prev.line in directive_lines:
            break
        if prev.kind in (TokenKind.KEYWORD, TokenKind.IDENTIFIER) \
                or prev.text in ("*", "&"):
            start -= 1
        else:
            break
    return tokens[start].line


def _span(record: FunctionRecord) -> tuple[int, int]:
    """First and last line of the function in file coordinates."""
    first = record.file_start_line or 1
    return first, first + record.line_count - 1


def _unanalyzable(record: FunctionRecord, error: str) -> AnalysisReport:
    return AnalysisReport(
        function_id=record.id, file=record.file, span=_span(record),
        predicted_cwe="none", confidence=0.0,
        description="unanalyzable", error=error)


def analyze(record: FunctionRecord, model: VulnModel,
            vocab: Vocabulary) -> AnalysisReport:
    """Run the full pipeline on one function.

    Lexing failures produce a report marked unanalyzable instead of
    raising, so a single pathological function cannot stop a scan.
    """
    span = _span(record)
    offset = span[0] - 1
    try:
        stream = tokenize(record.source)
        graph = build_graph(stream)
    except (LexError, DataError) as exc:
        return _unanalyzable(record, str(exc))

    inputs = model_inputs(graph, vocab)
    output = model.forward(*inputs)
    probabilities = output.probabilities
    predicted = output.predicted_class
    report = AnalysisReport(
        function_id=record.id, file=record.file, span=span,
        predicted_cwe="none", confidence=float(probabilities[predicted]),
        description="No vulnerability detected.", truncated=stream.truncated)
    if stream.truncated:
        report.warnings.append(
            "function exceeded the 512-token window; lines beyond it "
            "cannot be localized")
    if predicted == 0:
        return report

    if model.config.num_classes == 2:
        report.predicted_cwe = BINARY_VULNERABLE_LABEL
        report.description = _BINARY_DESCRIPTION
    else:
        catalog = default_catalog()
        report.predicted_cwe = catalog.cwe_for_index(predicted)
        report.description = catalog.describe(report.predicted_cwe)

    attribution = attribute_tokens(model, stream, inputs, output)
    where = localize(output.loc_pred, attribution.line_scores,
                     record.line_count)
    local_start, local_end = where.vul_lines
    report.vul_lines = (offset + local_start, offset + local_end)
    if attribution.line_scores:  # empty for a source without tokens
        normalized = normalize_scores(attribution.line_scores)
        report.line_attributions = {offset + line: score
                                    for line, score in normalized.items()}
    if where.root_cause is None:
        report.warnings.append(f"root cause unavailable: {where.problem}")
        return report
    report.root_cause_line = offset + where.root_cause.line
    if where.root_cause.fallback_used:
        report.warnings.append(
            "no positively-scored line before the predicted range; "
            "root cause fell back to the best line overall")
    return report


@dataclass
class ScanSummary:
    n_files: int
    n_functions: int
    counts: dict[str, int]
    skipped: list[str]  # files left out, as in ``extract_functions``

    def to_json_dict(self) -> dict:
        return {
            "n_files": self.n_files,
            "n_functions": self.n_functions,
            "counts": dict(sorted(self.counts.items())),
            "skipped": self.skipped,
        }

    def to_table(self) -> str:
        lines = [f"{'Predicted':<12} {'Count':>6}", "-" * 19]
        for cwe, count in sorted(self.counts.items()):
            lines.append(f"{cwe:<12} {count:>6}")
        lines.append("-" * 19)
        lines.append(f"{'total':<12} {self.n_functions:>6}")
        return "\n".join(lines) + "\n"


def _report_filename(report: AnalysisReport, suffix: str) -> str:
    base = (report.file or report.function_id).replace("/", "__")
    return f"{base}__L{report.span[0]}{suffix}"


def scan(root: str | Path, model: VulnModel, vocab: Vocabulary,
         out: str | Path, fmt: str = "json", jobs: int = 1) -> ScanSummary:
    """Analyze every function under ``root`` and write one report each.

    Reports land in ``out`` ordered by (path, start line), together with
    summary.json counting functions per predicted class and listing the
    files that extraction skipped. ``jobs`` > 1 analyzes in worker
    processes started by fork, at most one per usable CPU; where fork
    is unavailable the scan warns and runs serially. Output is
    deterministic: rerunning on an unchanged tree with the same frozen
    model reproduces byte-identical files regardless of ``jobs``.
    """
    if fmt not in ("json", "text"):
        raise DataError(f"unknown report format {fmt!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    skipped: list[str] = []
    records = extract_functions(root, skipped)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    workers = _worker_count(jobs, len(records)) if jobs > 1 else 1
    if workers > 1:
        reports = _analyze_in_workers(records, workers, model, vocab)
    else:
        reports = [_run(record, model, vocab) for record in records]

    counts: dict[str, int] = {}
    for record, report in zip(records, reports):
        counts[report.predicted_cwe] = counts.get(report.predicted_cwe, 0) + 1
        if fmt == "json":
            payload = json.dumps(report.to_json_dict(), indent=2,
                                 sort_keys=True)
            (out / _report_filename(report, ".json")).write_text(
                payload + "\n", encoding="utf-8")
        else:
            (out / _report_filename(report, ".txt")).write_text(
                render_report(report, record.source),
                encoding="utf-8")

    summary = ScanSummary(
        n_files=len({r.file for r in records if r.file}),
        n_functions=len(records),
        counts=counts,
        skipped=skipped,
    )
    (out / "summary.json").write_text(
        json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (out / "summary.txt").write_text(summary.to_table(), encoding="utf-8")
    return summary


def _run(record: FunctionRecord, model: VulnModel,
         vocab: Vocabulary) -> AnalysisReport:
    """``analyze`` with crash isolation: an exception becomes the report."""
    try:
        return analyze(record, model, vocab)
    except Exception as exc:  # crash isolation: report, keep scanning
        return _unanalyzable(record, f"{type(exc).__name__}: {exc}")


#: (model, vocab) of a scan worker, set once by ``_init_worker``.
_worker_state: tuple[VulnModel, Vocabulary] | None = None


def _init_worker(model: VulnModel, vocab: Vocabulary) -> None:
    global _worker_state
    _worker_state = (model, vocab)


def _run_in_worker(record: FunctionRecord) -> AnalysisReport:
    return _run(record, *_worker_state)


def _worker_count(jobs: int, n_records: int) -> int:
    """Processes a scan may fork: one per usable CPU and record at most,
    or 1 (serial) where the platform cannot fork."""
    count, can_fork = cpus.usable_cpus()
    if not can_fork:
        logger.warning("scan --jobs needs the fork start method, which "
                       "this platform lacks; analyzing serially")
        return 1
    return min(jobs, count, n_records)


def _chunk_size(n_records: int, workers: int) -> int:
    """Records per task: 32, or fewer so that a small tree still reaches
    every worker."""
    return min(32, -(-n_records // workers))


def _analyze_in_workers(records: list[FunctionRecord], workers: int,
                        model: VulnModel, vocab: Vocabulary
                        ) -> list[AnalysisReport]:
    """Reports in record order, from ``workers`` forked processes.

    Forked workers inherit the model and vocabulary through the
    initializer's arguments, so only records and reports are pickled.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(model, vocab)) as pool:
            return list(pool.map(_run_in_worker, records,
                                 chunksize=_chunk_size(len(records), workers)))
    except BrokenProcessPool as exc:
        raise VulnGraphError(f"a scan worker process died: {exc}") from exc


def render_report(report: AnalysisReport, source: str | None = None) -> str:
    """Human-readable report: four labeled blocks plus a marked excerpt."""
    lines = [
        f"Function:        {report.function_id}",
        f"Classification:  {report.predicted_cwe}"
        f" (confidence {report.confidence:.2f})",
    ]
    if report.vul_lines is not None:
        lines.append(f"Vulnerable Line(s): {report.vul_lines[0]}"
                     f"-{report.vul_lines[1]}")
    else:
        lines.append("Vulnerable Line(s): none")
    lines.append(f"Description:     {report.description}")
    if report.root_cause_line is not None:
        lines.append(f"Root Cause:      line {report.root_cause_line}")
    else:
        lines.append("Root Cause:      none")
    for warning in report.warnings:
        lines.append(f"Warning:         {warning}")
    if report.error:
        lines.append(f"Error:           {report.error}")
    if source is not None:
        lines.append("")
        for i, text in enumerate(source.split("\n")):
            file_line = report.span[0] + i
            marker = ">>>" if file_line == report.root_cause_line else "   "
            lines.append(f"{marker} {file_line:4d} | {text}")
    return "\n".join(lines) + "\n"
