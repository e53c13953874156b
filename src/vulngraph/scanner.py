"""Repository scanning: extract C/C++ functions, analyze, emit reports.

Function extraction is lexical: a definition is a top-level
``identifier ( ... ) {`` with braces balanced to the matching close.
Matching runs over lexer tokens, so braces inside string or character
literals cannot confuse it. K&R-style definitions and macro-generated
functions are known misses of this approach. Each file is lexed once:
a function's token stream is the file's tokens on the function's lines,
which keep their file lines. ``analyze`` refuses a stream with a token
outside its function's lines.

A scan's unit of work is one file: extraction, analysis and rendering
of its reports, in a forked worker when ``scan`` runs with ``jobs`` > 1.
The scanning process only writes what the tasks return, in file order.

A function's ``Analysis`` is rendered as a report or an ``attribute``
dump. A report gives the four developer-facing outputs: the predicted
class, its static description, the vulnerable line range, and the
root-cause line, all in file coordinates, as a dump's lines are.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from . import cpus
from .attribution import (Attribution, Localization, attribute_tokens,
                          attribution_dump, baseline, localize,
                          normalize_scores)
from .corpus import FunctionRecord, class_label, normalize_newlines
from .errors import ConfigError, DataError, LexError, VulnGraphError
from .lexer import (Token, TokenKind, TokenStream, Vocabulary, closers, lex,
                    tokenize)
from .model import ForwardOutput, VulnModel
from .semgraph import model_inputs

logger = logging.getLogger(__name__)

SOURCE_EXTENSIONS = {".c", ".h", ".cc", ".cpp", ".hpp"}
_CPP_EXTENSIONS = {".cc", ".cpp", ".hpp"}

_line = attrgetter("line")


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
        # Not ``asdict``: it deep-copies every field, and took 68 µs
        # against this dict's 7 µs on a report of 19 attributed lines
        # (Python 3.11); a scan-triage pass writes 768 reports.
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
    records: list[FunctionRecord] = []
    for path, rel_path in _source_files(root):
        found, reason = file_functions(path, rel_path)
        records.extend(record for record, _ in found)
        if reason is not None:
            logger.warning("skipping %s", reason)
            if skipped is not None:
                skipped.append(rel_path)
    return records


def _source_files(root: str | Path) -> list[tuple[Path, str]]:
    """(path, path relative to ``root``) of every source file, sorted."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"scan root {root} is not a readable directory")
    files = sorted(p for p in root.rglob("*")
                   if p.is_file() and p.suffix in SOURCE_EXTENSIONS)
    return [(path, path.relative_to(root).as_posix()) for path in files]


def file_functions(path: Path, rel_path: str
                   ) -> tuple[list[tuple[FunctionRecord, TokenStream]],
                              str | None]:
    """Every function definition in one source file, ordered by start
    line, each with its token stream; and why the file was skipped.

    ``rel_path`` names the file in function ids, reports and the reason.
    CRLF and lone CR line endings read as LF. A file that cannot be
    read, lexed or balanced gives no functions and a reason that names
    it, such as ``unlexable file a.c: line 2: unterminated string
    literal``; for any other file the reason is None.
    """
    try:
        # newline="" keeps CR, so that normalize_newlines is the one rule
        with path.open(encoding="utf-8", errors="replace", newline="") as f:
            text = f.read()
        return _functions_in_file(normalize_newlines(text), rel_path), None
    except OSError as exc:
        return [], f"unreadable file {rel_path}: {exc}"
    except LexError as exc:
        return [], f"unlexable file {rel_path}: {exc}"
    except DataError as exc:
        return [], f"{rel_path}: {exc}"


def _functions_in_file(text: str, rel_path: str
                       ) -> list[tuple[FunctionRecord, TokenStream]]:
    """The file's functions, each streamed from the one lex of ``text``.

    A function's stream holds the file's tokens on the function's lines,
    with their file lines. That is ``tokenize(record.source,
    record.span[0])`` unless a comment or literal crosses the function's
    first or last line.
    """
    tokens = lex(text)
    lines = text.split("\n")
    language = "cpp" if Path(rel_path).suffix in _CPP_EXTENSIONS else "c"
    directive_lines = _directive_lines(tokens)
    parens = closers(tokens, "(", ")")
    braces = closers(tokens, "{", "}")
    found: list[tuple[FunctionRecord, TokenStream]] = []
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
                    raise DataError(f"unbalanced braces after line "
                                    f"{tokens[close + 1].line}")
                start = _declaration_start(tokens, i, directive_lines)
                start_line = tokens[start].line
                end_line = tokens[end].line
                record = FunctionRecord(
                    id=f"{rel_path}:{start_line}:{tok.text}",
                    source="\n".join(lines[start_line - 1:end_line]),
                    language=language,
                    file=rel_path,
                    file_start_line=start_line,
                )
                first = bisect_left(tokens, start_line, hi=start, key=_line)
                last = bisect_right(tokens, end_line, lo=end, key=_line)
                found.append((record, TokenStream.of(tokens[first:last])))
                i = end + 1
                continue
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth = max(0, depth - 1)
        i += 1
    return found


def _directive_lines(tokens: Sequence[Token]) -> set[int]:
    """Lines whose first token is '#', i.e. preprocessor directives."""
    first_on_line: dict[int, str] = {}
    for tok in tokens:
        first_on_line.setdefault(tok.line, tok.text)
    return {line for line, text in first_on_line.items() if text == "#"}


def _declaration_start(tokens: Sequence[Token], name_pos: int,
                       directive_lines: set[int]) -> int:
    """Position of the declaration's first token: scan back over
    return-type tokens."""
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
    return start


@dataclass(eq=False)
class Analysis:
    """One function's forward pass, and its attribution and localization
    once asked for: a report asks only for a vulnerable prediction's, a
    dump always. A function that cannot be lexed or graphed has no pass,
    and ``error`` says why, in file lines."""

    record: FunctionRecord
    model: VulnModel
    stream: TokenStream | None = None
    output: ForwardOutput | None = None
    error: str | None = None

    @cached_property
    def attribution(self) -> Attribution:
        return attribute_tokens(self.model, self.stream, self.output)

    @cached_property
    def localization(self) -> Localization | None:
        """None for a benign prediction."""
        return (localize(self.output.loc_pred, self.attribution.line_scores,
                         self.record.span)
                if self.output.predicted_class else None)

    def report(self) -> AnalysisReport:
        """The developer-facing report; marked unanalyzable on ``error``."""
        record, output = self.record, self.output
        report = AnalysisReport(
            function_id=record.id, file=record.file, span=record.span,
            predicted_cwe="none", confidence=0.0, description="unanalyzable",
            error=self.error)
        if self.error is not None:
            return report
        predicted = output.predicted_class
        report.predicted_cwe, report.description = class_label(
            predicted, self.model.config.num_classes)
        report.confidence = float(output.probabilities[predicted])
        report.truncated = self.stream.truncated
        if report.truncated:
            report.warnings.append(
                "function exceeded the 512-token window; lines beyond it "
                "cannot be localized")
        where = self.localization
        if where is None:
            return report
        report.vul_lines = where.vul_lines
        line_scores = self.attribution.line_scores
        if line_scores:  # empty for a source without tokens
            report.line_attributions = normalize_scores(line_scores)
        if where.root_cause is None:
            report.warnings.append(f"root cause unavailable: {where.problem}")
            return report
        report.root_cause_line = where.root_cause.line
        if where.root_cause.fallback_used:
            report.warnings.append(
                "no positively-scored line before the predicted range; "
                "root cause fell back to the best line overall")
        return report

    def dump(self) -> dict:
        """The ``attribute`` dump, with the report's root cause; a
        DataError naming the function on ``error``."""
        if self.error is not None:
            raise DataError(f"function {self.record.id!r}: {self.error}")
        where = self.localization
        dump = attribution_dump(
            self.attribution, None if where is None else where.root_cause,
            baseline(self.model, self.stream, self.output))
        dump["function_id"] = self.record.id
        return dump


def _analysis(record: FunctionRecord, model: VulnModel, vocab: Vocabulary,
              stream: TokenStream | None = None) -> Analysis:
    """From the stream cut from the record's file, or else from its source
    tokenized at its first line."""
    try:
        if stream is None:
            stream = tokenize(record.source, record.span[0])
        inputs = model_inputs(stream, vocab)
    except DataError as exc:
        return Analysis(record, model, error=str(exc))
    return Analysis(record, model, stream, model.forward(*inputs))


def analyze(record: FunctionRecord, model: VulnModel, vocab: Vocabulary,
            stream: TokenStream | None = None) -> AnalysisReport:
    """Run the full pipeline on one function.

    ``stream`` is the record's stream as ``file_functions`` cut it, when
    already made; else the source is tokenized here from
    ``record.span[0]``. A stream with a token outside the span is a
    DataError, as its lines would not be the function's. A function that
    cannot be lexed or graphed gets a report marked unanalyzable instead
    of raising, so a single pathological function cannot stop a scan;
    its error gives the line in file coordinates, as the span does.
    """
    first, last = record.span
    payload = () if stream is None else stream.payload()
    if payload and not first <= payload[0].line <= payload[-1].line <= last:
        raise DataError(
            f"function {record.id!r} is on lines {first}-{last}, its stream "
            f"on lines {payload[0].line}-{payload[-1].line}")
    return _analysis(record, model, vocab, stream).report()


def file_analyses(path: str | Path, model: VulnModel, vocab: Vocabulary,
                  function: str | None = None) -> Iterator[Analysis]:
    """The analysis of each function of one file, or of the one named
    ``function``, each computed as it is taken. Ids name the file by its
    base name. A missing file, a file that ``scan`` skips and a file
    without such a function are a DataError before any analysis."""
    source_path = Path(path)
    if not source_path.is_file():
        raise DataError(f"no such file: {path}")
    found, reason = (file_functions(source_path, source_path.name)
                     if source_path.suffix in SOURCE_EXTENSIONS else ([], None))
    if reason is not None:
        raise DataError(reason)
    if function is not None:
        found = [(record, stream) for record, stream in found
                 if record.id.endswith(f":{function}")]
        if not found:
            raise DataError(f"no function named {function!r} in {path}")
    if not found:
        raise DataError(f"no function definitions found in {path}")
    return (_analysis(record, model, vocab, stream)
            for record, stream in found)


@dataclass
class ScanSummary:
    n_files: int
    n_functions: int
    counts: dict[str, int]  # per predicted class, and "unanalyzable"
    skipped: list[str]  # files left out, as in ``extract_functions``

    def to_table(self) -> str:
        lines = [f"{'Predicted':<12} {'Count':>6}", "-" * 19]
        for cwe, count in sorted(self.counts.items()):
            lines.append(f"{cwe:<12} {count:>6}")
        lines.append("-" * 19)
        lines.append(f"{'total':<12} {self.n_functions:>6}")
        return "\n".join(lines) + "\n"


#: Report file suffix per report format.
_SUFFIXES = {"json": ".json", "text": ".txt"}


def _report_base(rel_path: str) -> str:
    """What a file's report names start with; line and suffix follow."""
    return rel_path.replace("/", "__")


def _check_report_names(files: list[tuple[Path, str]]) -> None:
    """Two files whose reports would share names are a DataError.

    A base ends in a source extension, so it is followed by the line
    and the rank on that line only, and only equal bases clash.
    """
    seen: dict[str, str] = {}
    for _, rel_path in files:
        base = _report_base(rel_path)
        if base in seen:
            raise DataError(f"{seen[base]} and {rel_path} would both write "
                            f"reports named {base}__L<line>")
        seen[base] = rel_path


def scan(root: str | Path, model: VulnModel, vocab: Vocabulary,
         out: str | Path, fmt: str = "json", jobs: int = 1) -> ScanSummary:
    """Analyze every function under ``root`` and write one report each.

    Reports land in ``out`` ordered by (path, start line), together with
    summary.json counting functions per predicted class or as
    "unanalyzable", and listing the files that extraction skipped. Each
    source file is one task: its functions are cut from one lex of the
    file, analyzed and rendered.
    ``jobs`` > 1 runs the tasks in worker processes started by fork, at
    most one per usable CPU; where fork is unavailable the scan warns
    and runs serially. This process writes every report, logs every
    warning and writes the summary, in file order. Output is
    deterministic: rerunning on an unchanged tree with the same model
    reproduces byte-identical files regardless of ``jobs``.
    """
    if fmt not in _SUFFIXES:
        raise DataError(f"unknown report format {fmt!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    files = _source_files(root)
    _check_report_names(files)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    counts: dict[str, int] = {}
    skipped: list[str] = []
    n_files = n_functions = 0
    results = _scan_files(files, model, vocab, fmt, jobs)
    for (_, rel_path), (reports, reason) in zip(files, results, strict=True):
        if reason is not None:
            logger.warning("skipping %s", reason)
            skipped.append(rel_path)
        n_files += bool(reports)
        n_functions += len(reports)
        for report in reports:
            counts[report.counted_as] = counts.get(report.counted_as, 0) + 1
            (out / report.name).write_text(report.text, encoding="utf-8")

    summary = ScanSummary(n_files=n_files, n_functions=n_functions,
                          counts=counts, skipped=skipped)
    (out / "summary.json").write_text(
        json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (out / "summary.txt").write_text(summary.to_table(), encoding="utf-8")
    return summary


class _Rendered(NamedTuple):
    """One report as a scan writes it."""

    name: str  # file name in the output directory
    text: str
    counted_as: str  # the predicted class, or "unanalyzable"


def _scan_file(path: Path, rel_path: str, model: VulnModel,
               vocab: Vocabulary, fmt: str
               ) -> tuple[list[_Rendered], str | None]:
    """One scan task: the file's rendered reports and why the file was
    skipped, as ``file_functions`` gives it.

    A report is named after its function's start line; a later function
    that starts on the same line adds its rank there, as in ``__L1_2``.
    """
    found, reason = file_functions(path, rel_path)
    reports = []
    starts: Counter[int] = Counter()
    for record, stream in found:
        try:
            report = analyze(record, model, vocab, stream)
        except Exception as exc:  # crash isolation: report, keep scanning
            report = Analysis(record, model,
                              error=f"{type(exc).__name__}: {exc}").report()
        if fmt == "json":
            text = json.dumps(report.to_json_dict(), indent=2,
                              sort_keys=True) + "\n"
        else:
            text = render_report(report, record.source)
        line = report.span[0]
        starts[line] += 1
        rank = "" if starts[line] == 1 else f"_{starts[line]}"
        name = f"{_report_base(rel_path)}__L{line}{rank}{_SUFFIXES[fmt]}"
        reports.append(_Rendered(
            name, text,
            "unanalyzable" if report.unanalyzable else report.predicted_cwe))
    return reports, reason


def _scan_files(files: list[tuple[Path, str]], model: VulnModel,
                vocab: Vocabulary, fmt: str, jobs: int
                ) -> Iterator[tuple[list[_Rendered], str | None]]:
    """``_scan_file`` of each file, in file order."""
    workers = _worker_count(jobs, len(files)) if jobs > 1 else 1
    if workers > 1:
        return _scan_in_workers(files, workers, model, vocab, fmt)
    return (_scan_file(path, rel_path, model, vocab, fmt)
            for path, rel_path in files)


#: (model, vocab, fmt) of a scan worker, set once by ``_init_worker``.
_worker_state: tuple[VulnModel, Vocabulary, str] | None = None


def _init_worker(model: VulnModel, vocab: Vocabulary, fmt: str) -> None:
    global _worker_state
    _worker_state = (model, vocab, fmt)


def _scan_file_in_worker(file: tuple[Path, str]
                         ) -> tuple[list[_Rendered], str | None]:
    return _scan_file(*file, *_worker_state)


def _worker_count(jobs: int, n_files: int) -> int:
    """Processes a scan may fork: one per usable CPU and file at most,
    or 1 (serial) where the platform cannot fork."""
    count, can_fork = cpus.usable_cpus()
    if not can_fork:
        logger.warning("scan --jobs needs the fork start method, which "
                       "this platform lacks; analyzing serially")
        return 1
    return min(jobs, count, n_files)


def _chunk_size(n_files: int, workers: int) -> int:
    """Files per task: 4, or fewer so that a small tree still reaches
    every worker."""
    return min(4, -(-n_files // workers))


def _scan_in_workers(files: list[tuple[Path, str]], workers: int,
                     model: VulnModel, vocab: Vocabulary, fmt: str
                     ) -> Iterator[tuple[list[_Rendered], str | None]]:
    """``_scan_file`` of each file from ``workers`` forked processes, in
    file order, each as soon as it and the files before it are done.

    Forked workers inherit the model and vocabulary through the
    initializer's arguments, so only file names and rendered reports
    are pickled.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(model, vocab, fmt)) as pool:
            yield from pool.map(_scan_file_in_worker, files,
                                chunksize=_chunk_size(len(files), workers))
    except BrokenProcessPool as exc:
        raise VulnGraphError(f"a scan worker process died: {exc}") from exc


def render_report(report: AnalysisReport, source: str) -> str:
    """Human-readable report: four labeled blocks plus the marked source."""
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
    lines.append("")
    for i, text in enumerate(source.split("\n")):
        file_line = report.span[0] + i
        marker = ">>>" if file_line == report.root_cause_line else "   "
        lines.append(f"{marker} {file_line:4d} | {text}")
    return "\n".join(lines) + "\n"
