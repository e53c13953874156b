import json
import logging
import multiprocessing
import os
import re
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from vulngraph.corpus import FunctionRecord, load_dataset, select
from vulngraph.errors import ConfigError, DataError, LexError
from vulngraph.lexer import closers, lex, tokenize
from vulngraph import scanner, semgraph
from vulngraph.cli import main
from vulngraph.model import VulnModel
from vulngraph.scanner import (AnalysisReport, _chunk_size, analyze,
                               extract_functions, render_report, scan)
from vulngraph.runfiles import load_checkpoint, save_checkpoint
from vulngraph.synth import make_toy_corpus
from conftest import (DESK_CHECKPOINT, HUB_SOURCE, UNGRAPHABLE_FILE,
                      UNGRAPHABLE_SOURCE, UNLEXABLE_SOURCE, crlf_file,
                      poison, run_cli, tiny_model_inputs)

TWO_FUNCTIONS = """\
#include <stdio.h>

static int first(int a) {
    return a + 1;
}

/* a comment between functions */
int second(char *s, int n) {
    int i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
"""

PROTOTYPES_ONLY = """\
int declared_only(int a);
extern void another(char *s, int n);
struct opq;
"""

BRACES_IN_STRING = """\
const char *blob(void) {
    const char *s = "}}}";
    return s;
}
int after(int x) {
    return x;
}
"""

#: Pieces of C, so generated text reaches past the lexer more often.
C_PIECES = ["{", "}", "(", ")", ";", ",", "=", "+", "*", "->", "[", "]",
            "if", "for", "while", "else", "return", "int", "char *p", "x",
            "f", "buf[i]", "malloc(", "free(", "/*", "*/", "//", '"', "'",
            "\\", "#define X 1", "#include <a.h>", "0x1F", " ", "\n", "\t"]

#: One function of 510 tokens, the window's whole payload.
FILL_510 = ("int fill(char *buf, int n) {\n"
            + "".join(f"    buf[{i}] = n + {i} * buf[n];\n" for i in range(35))
            + "    n = -1;\n    return n;\n}\n")

#: Edge cases of lexing and extraction: names and numbers that start with
#: a non-ASCII character, an unterminated string that makes the scan skip
#: its file, comments that cross a function's first or last line, two
#: functions on one line, and a function that cannot be graphed.
EDGE_FILES = {
    "names.c": "static int \u00e9mettre(int \u00f1) {\n"
               "    int \u03b4 = \u00f1 * \u00b2 + .\u0663;\n"
               "    return \u03b4 + \u06635 + \u00b5x;\n}\n\n"
               "int compte(char *s, int n) {\n"
               "    int gr\u00f6\u00dfe = 0;\n"
               "    while (gr\u00f6\u00dfe < n && s[gr\u00f6\u00dfe]) {\n"
               "        gr\u00f6\u00dfe++;\n    }\n"
               "    return gr\u00f6\u00dfe \u00bd n;\n}\n",
    "open.c": 'int f(void) {\n    return puts("open);\n}\n',
    "bounds.c": "/* opens above\n   and closes on the first line */ "
                "int first(char *s) {\n    return s[0];\n}\n"
                "int last(char *s) {\n    return s[1];\n} /* opens after\n"
                "   the closing brace */\n",
    "one.c": "int f(int a) { return a + 1; } int g(char *p) { char b[4]; "
             "strcpy(b, p); return b[0]; }\n",
    "paren.c": UNGRAPHABLE_FILE,
}

SOURCES = st.text() | st.lists(st.sampled_from(C_PIECES) | st.text(max_size=3),
                               max_size=80).map("".join)


def write_tree(root: Path, records) -> Path:
    """One ``f<i>.c`` file per record under ``root/src``."""
    src = root / "src"
    src.mkdir()
    for i, record in enumerate(records):
        (src / f"f{i}.c").write_text(record.source + "\n", encoding="utf-8")
    return src


def summary_skips(src: Path, toy_run, out: Path) -> list[list[str]]:
    """``summary.json``'s skipped files after a scan at --jobs 1 and 2."""
    skips = []
    for jobs in (1, 2):
        scan(src, toy_run.model, toy_run.vocab, out / str(jobs), jobs=jobs)
        summary = json.loads((out / str(jobs) / "summary.json").read_text(
            encoding="utf-8"))
        skips.append(summary["skipped"])
    return skips


def scan_bytes(src: Path, run, out: Path, **kwargs) -> dict[str, bytes]:
    """Every file that a scan of ``src`` with ``run``'s model and
    vocabulary writes, by name."""
    scan(src, run.model, run.vocab, out, **kwargs)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*"))
            if p.is_file()}


@pytest.fixture(scope="module")
def desk():
    """The desk checkpoint's model and vocabulary."""
    model, vocab = load_checkpoint(DESK_CHECKPOINT)
    return SimpleNamespace(model=model, vocab=vocab)


@pytest.fixture(scope="module")
def desk_trees(tmp_path_factory):
    """Trees for the desk checkpoint: 96 and 32 toy files of one function,
    which fill chunks of 4 files; a 250-argument hub and ``FILL_510``, one
    file for each worker; and ``EDGE_FILES`` with ``crlf_file``."""
    root = tmp_path_factory.mktemp("desk")
    trees = {"toy-96": {}, "edge": dict(EDGE_FILES),
             "hub": {"hub.c": HUB_SOURCE + "\n", "long.c": FILL_510}}
    for seed in range(3):
        for i, record in enumerate(make_toy_corpus(seed=seed)[0]):
            trees["toy-96"][f"s{seed}_{i:02d}.c"] = record.source + "\n"
    trees["toy-32"] = {name: text for name, text in trees["toy-96"].items()
                       if name.startswith("s0_")}
    for tree, files in trees.items():
        (root / tree).mkdir()
        for name, text in files.items():
            (root / tree / name).write_text(text, encoding="utf-8")
    (root / "edge" / "crlf.c").write_bytes(crlf_file())
    return root


@pytest.fixture(scope="module")
def vulnerable_model(toy_run):
    """The toy model biased so that every function is predicted vulnerable."""
    model = VulnModel(toy_run.model.config, values={
        name: values.copy() for name, values in toy_run.model.params.items()})
    model.params["cls_bias"][0, 3] += 1e3
    return model


class TestArbitraryText:
    @settings(max_examples=150, deadline=None)
    @given(text=SOURCES)
    def test_extraction_raises_only_data_error(self, text):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "fuzz.c"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            try:
                records = extract_functions(root)
            except DataError:
                return
        assert all(r.file == "fuzz.c" for r in records)

    @settings(max_examples=150, deadline=None)
    @given(text=SOURCES)
    def test_analyze_never_raises(self, text, toy_run, vulnerable_model):
        record = FunctionRecord(id="fuzz", source=text, language="c")
        for model in (toy_run.model, vulnerable_model):
            report = analyze(record, model, toy_run.vocab)
            assert isinstance(report, AnalysisReport)
            assert report.unanalyzable or 0.0 < report.confidence <= 1.0

    def test_vulnerable_source_without_tokens(self, toy_run,
                                              vulnerable_model):
        record = FunctionRecord(id="c", source="/* only */\n\n",
                                language="c")
        report = analyze(record, vulnerable_model, toy_run.vocab)
        assert report.predicted_cwe != "none"
        assert report.line_attributions is None
        assert report.root_cause_line is None
        assert any("no line scores" in w for w in report.warnings)


class TestExtract:
    def test_two_functions_with_start_lines(self, tmp_path):
        (tmp_path / "two.c").write_text(TWO_FUNCTIONS, encoding="utf-8")
        records = extract_functions(tmp_path)
        assert [r.id for r in records] == ["two.c:3:first", "two.c:8:second"]
        assert records[0].file_start_line == 3
        assert records[1].file_start_line == 8
        assert records[0].source.startswith("static int first")
        assert records[1].source.endswith("}")

    def test_prototypes_yield_nothing(self, tmp_path):
        (tmp_path / "proto.h").write_text(PROTOTYPES_ONLY, encoding="utf-8")
        assert extract_functions(tmp_path) == []

    def test_braces_inside_string_literals_ignored(self, tmp_path):
        (tmp_path / "blob.c").write_text(BRACES_IN_STRING, encoding="utf-8")
        records = extract_functions(tmp_path)
        assert [r.id for r in records] == ["blob.c:1:blob", "blob.c:5:after"]

    def test_extraction_round_trip(self, tmp_path):
        (tmp_path / "two.c").write_text(TWO_FUNCTIONS, encoding="utf-8")
        file_lines = TWO_FUNCTIONS.split("\n")
        for record in extract_functions(tmp_path):
            start = record.file_start_line
            end = start + record.line_count - 1
            assert record.source == "\n".join(file_lines[start - 1:end])

    def test_macro_call_at_top_level_not_a_function(self, tmp_path):
        source = "#define WRAP(x) { x }\nint real(void) {\n    return 0;\n}\n"
        (tmp_path / "m.c").write_text(source, encoding="utf-8")
        records = extract_functions(tmp_path)
        assert [r.id for r in records] == ["m.c:2:real"]

    def test_unbalanced_file_skipped_not_fatal(self, tmp_path, toy_run,
                                               use_cpus):
        src = tmp_path / "src"
        (src / "sub").mkdir(parents=True)
        (src / "broken.c").write_text("int f() { int x = 1;\n",
                                      encoding="utf-8")
        # two functions, so that --jobs 2 forks two workers
        (src / "fine.c").write_text("int g(void) {\n    return 0;\n}\n"
                                    "int k(void) {\n    return 1;\n}\n",
                                    encoding="utf-8")
        (src / "sub" / "open.c").write_text("int h(void) {\n",
                                            encoding="utf-8")
        skipped = []
        records = extract_functions(src, skipped)
        assert [r.id for r in records] == ["fine.c:1:g", "fine.c:4:k"]
        assert skipped == ["broken.c", "sub/open.c"]
        assert summary_skips(src, toy_run, tmp_path / "out") == [skipped] * 2

    def test_unlexable_file_skipped_not_fatal(self, tmp_path, toy_run,
                                              use_cpus, caplog):
        src = tmp_path / "src"
        src.mkdir()
        (src / "bad.c").write_text('int f() { char *s = "open;\n}\n',
                                   encoding="utf-8")
        (src / "ok.c").write_text("int g(void) {\n    return 1;\n}\n",
                                  encoding="utf-8")
        skipped = []
        records = extract_functions(src, skipped)
        assert [r.id for r in records] == ["ok.c:1:g"]
        assert skipped == ["bad.c"]
        assert "skipping unlexable file bad.c" in caplog.text
        assert summary_skips(src, toy_run, tmp_path / "out") == [["bad.c"]] * 2

    def test_cpp_extension_sets_language(self, tmp_path):
        (tmp_path / "x.cpp").write_text("int f() {\n    return 0;\n}\n",
                                        encoding="utf-8")
        assert extract_functions(tmp_path)[0].language == "cpp"

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError):
            extract_functions(tmp_path / "missing")

    @settings(max_examples=150, deadline=None)
    @given(pieces=st.lists(st.sampled_from(["(", ")", "{", "}", "x", ";"]),
                           max_size=60))
    def test_closers_match_depth_scan(self, pieces):
        tokens = lex(" ".join(pieces))

        def depth_scan(open_pos, open_text, close_text):
            depth = 0
            for i in range(open_pos, len(tokens)):
                if tokens[i].text == open_text:
                    depth += 1
                elif tokens[i].text == close_text:
                    depth -= 1
                    if depth == 0:
                        return i
            return None

        for open_text, close_text in (("(", ")"), ("{", "}")):
            scanned = {i: depth_scan(i, open_text, close_text)
                       for i, tok in enumerate(tokens) if tok.text == open_text}
            assert closers(tokens, open_text, close_text) == {
                i: j for i, j in scanned.items() if j is not None}

    @pytest.mark.parametrize("source", [
        "int x = " + "a(" * 20000 + ")" * 20000 + ";",
        "a(" * 20000,
    ], ids=["nested-calls", "unclosed-calls"])
    def test_many_calls_extract_in_linear_time(self, tmp_path, source):
        # each top-level "a(" looks for its ")": quadratic if each scans ahead
        (tmp_path / "calls.c").write_text(source, encoding="utf-8")
        started = time.perf_counter()
        assert extract_functions(tmp_path) == []
        assert time.perf_counter() - started < 2.0


#: (text, line) of ``int f(void) {\n    return 0;\n}`` in its own lines.
F_TOKENS = [("int", 1), ("f", 1), ("(", 1), ("void", 1), (")", 1), ("{", 1),
            ("return", 2), ("0", 2), (";", 2), ("}", 3)]


def cut_one(tmp_path: Path, text: str):
    """The one (record, stream) of a file holding ``text``."""
    path = tmp_path / "f.c"
    path.write_text(text, encoding="utf-8")
    [(record, stream)], _ = scanner.file_functions(path, "f.c")
    return record, stream


def lines_of(stream) -> list[tuple[str, int]]:
    return [(tok.text, tok.line) for tok in stream.payload()]


def from_line(tokens: list[tuple[str, int]], first: int
              ) -> list[tuple[str, int]]:
    """(text, line) pairs numbered from 1, numbered from ``first``."""
    return [(text, line + first - 1) for text, line in tokens]


#: One function's body statements; none crosses a line that holds the
#: function's first or last token.
STATEMENTS = st.sampled_from([
    "x = x + 1;", "return y;", "/* one */", "// rest of line\n",
    'puts("a");', "/* two\n lines */", 's = "a\\\nb";', "c = '}';",
    "if (a) {\n b(); }", "\n", " "])
#: Top-level text on a function's first or last line.
BESIDE = st.sampled_from([" ", "int v;", "/* top */", "x = 1;"])
#: Top-level text between functions; a multi-line comment keeps to
#: lines of its own.
BETWEEN = BESIDE | st.sampled_from(["\n", "// top\n", "#define N 1\n",
                                    "\n/* spans\nlines */\n"])


@st.composite
def source_files(draw):
    """Functions, some past the 512-token window, each ending its line."""
    parts = []
    for k in range(draw(st.integers(1, 4))):
        parts += draw(st.lists(BETWEEN, max_size=3))
        parts += draw(st.lists(BESIDE, max_size=2))
        body = draw(st.lists(STATEMENTS, max_size=12))
        body += ["x = x + 1;"] * draw(st.sampled_from([0, 0, 84, 85, 120]))
        parts.append(f"static int f{k}(int a) {{"
                     + draw(st.sampled_from([" ", "\n"])).join(body) + "}")
        parts += draw(st.lists(BESIDE, max_size=2)) + ["\n"]
    return "".join(parts)


class TestStreamsFromTheFileLex:
    """A function's stream is cut from its file's one lex: the tokens on
    the function's lines, with their file lines. Where a comment or
    literal crosses the function's first or last line, that differs from
    ``tokenize(record.source, record.span[0])``, the re-lex of the
    function's lines."""

    @pytest.mark.parametrize("above, first", [
        ("/* note\n   ends */ ", []),
        ('const char *s = "a\\\n"; ', [(";", 1)]),
    ], ids=["block-comment", "string"])
    def test_opened_above_the_first_line(self, tmp_path, above, first):
        record, stream = cut_one(
            tmp_path, above + "int f(void) {\n    return 0;\n}\n")
        assert record.file_start_line == 2
        assert lines_of(stream) == from_line(first + F_TOKENS, 2)
        if first:  # the re-lex opens a string at the closing quote
            with pytest.raises(LexError, match="unterminated string"):
                tokenize(record.source, record.span[0])
        else:  # the re-lex reads the comment's tail as code
            assert lines_of(tokenize(record.source, record.span[0])) == \
                from_line([("ends", 1), ("*", 1), ("/", 1)] + F_TOKENS, 2)

    def test_spliced_line_comment_above_the_first_line(self, tmp_path):
        """A backslash-newline carries a // comment over the whole next
        line, which then holds no token, so no function starts on it:
        both streams agree."""
        record, stream = cut_one(
            tmp_path, "// note \\\nint g(void) {\nint f(void) {\n"
                      "    return 0;\n}\n")
        assert record.id == "f.c:3:f"
        assert lines_of(stream) \
            == lines_of(tokenize(record.source, record.span[0])) \
            == from_line(F_TOKENS, 3)

    @pytest.mark.parametrize("after, last", [
        (" /* trailing\n   comment */", []),
        (' "open\\\n";', [('"open\\\n"', 3)]),
    ], ids=["block-comment", "string"])
    def test_opened_after_the_closing_brace(self, tmp_path, toy_run, after,
                                            last):
        """The re-lex cannot close what opens after the brace, and would
        make the function unanalyzable."""
        record, stream = cut_one(
            tmp_path, "int f(void) {\n    return 0;\n}" + after + "\n")
        assert lines_of(stream) == F_TOKENS + last
        with pytest.raises(LexError, match="line 3: unterminated"):
            tokenize(record.source)
        assert analyze(record, toy_run.model, toy_run.vocab).unanalyzable
        assert not analyze(record, toy_run.model, toy_run.vocab,
                           stream).unanalyzable

    @settings(max_examples=200, deadline=None)
    @given(text=source_files())
    def test_slice_equals_relex_off_the_boundaries(self, text):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "gen.c"
            path.write_text(text, encoding="utf-8")
            found, _ = scanner.file_functions(path, "gen.c")
        assert len(found) == text.count("static int f")
        for record, stream in found:
            assert stream == tokenize(record.source, record.span[0]), \
                record.id


class TestAnalyze:
    def test_benign_prediction_has_no_localization(self, toy_run):
        benign = next(r for r in toy_run.records if not r.is_vulnerable)
        report = analyze(benign, toy_run.model, toy_run.vocab)
        assert report.predicted_cwe == "none"
        assert report.vul_lines is None
        assert report.root_cause_line is None
        assert report.line_attributions is None
        assert 0.0 <= report.confidence <= 1.0

    def test_vulnerable_prediction_fills_all_fields(self, toy_run):
        vuln_ids = [r.id for r in select(toy_run.records, toy_run.split.train)
                    if r.is_vulnerable]
        record = next(r for r in toy_run.records if r.id == vuln_ids[0])
        report = analyze(record, toy_run.model, toy_run.vocab)
        assert report.predicted_cwe == record.cwe
        assert record.cwe[4:] in report.description or \
            report.description  # description always present
        assert report.vul_lines is not None
        assert report.root_cause_line is not None
        assert 1 <= report.root_cause_line <= record.line_count
        assert report.root_cause_line != 1
        assert report.line_attributions
        assert all(0.0 <= v <= 1.0 for v in report.line_attributions.values())

    def test_attribution_reuses_the_base_graph_pass(self, toy_run,
                                                    vulnerable_model,
                                                    monkeypatch):
        """The base forward, nothing more: occlusion extends its pass."""
        graph_pass = VulnModel.gcn_forward
        calls = []

        def counting(self, *args):
            calls.append(1)
            return graph_pass(self, *args)

        monkeypatch.setattr(VulnModel, "gcn_forward", counting)
        record = next(r for r in toy_run.records if r.is_vulnerable)
        report = analyze(record, vulnerable_model, toy_run.vocab)
        assert report.predicted_cwe != "none" and report.line_attributions
        assert len(calls) == 1

    def test_file_offset_arithmetic(self, toy_run):
        train_vuln = [r for r in select(toy_run.records, toy_run.split.train)
                      if r.is_vulnerable]
        record = replace(train_vuln[0], file="deep/src.c", file_start_line=40)
        local = analyze(train_vuln[0], toy_run.model, toy_run.vocab)
        shifted = analyze(record, toy_run.model, toy_run.vocab)
        assert shifted.span == (40, 39 + record.line_count)
        assert shifted.root_cause_line == local.root_cause_line + 39
        assert shifted.vul_lines == (local.vul_lines[0] + 39,
                                     local.vul_lines[1] + 39)

    def test_a_stream_in_the_wrong_lines_is_refused(
            self, tmp_path, toy_run, vulnerable_model):
        """A stream tokenized from line 1 for a function past line 1 would
        put its attributions outside the span."""
        path = tmp_path / "two.c"
        path.write_text("int f(void) {\n    return 0;\n}\n"
                        "int g(char *p) {\n    char b[4];\n"
                        "    strcpy(b, p);\n    return b[0];\n}\n",
                        encoding="utf-8")
        [_, (record, stream)], _ = scanner.file_functions(path, "two.c")
        first, last = record.span
        assert first == 4
        with pytest.raises(DataError, match=(
                r"^function 'two.c:4:g' is on lines 4-8, its stream on "
                r"lines 1-5$")):
            analyze(record, vulnerable_model, toy_run.vocab,
                    tokenize(record.source))
        report = analyze(record, vulnerable_model, toy_run.vocab, stream)
        assert report == analyze(record, vulnerable_model, toy_run.vocab)
        assert report.line_attributions
        assert all(first <= line <= last for line in report.line_attributions)
        assert first < report.root_cause_line <= last

    @pytest.mark.parametrize("source, error", [
        (UNLEXABLE_SOURCE[0], "line 41: unterminated string literal"),
        (UNGRAPHABLE_SOURCE[0],
         "unbalanced parentheses after 'if' on line 41")],
        ids=["lex", "graph"])
    def test_unanalyzable_error_gives_the_file_line(self, toy_run, source,
                                                    error):
        record = FunctionRecord(id="deep/src.c:40:f", source=source,
                                language="c", file="deep/src.c",
                                file_start_line=40)
        report = analyze(record, toy_run.model, toy_run.vocab)
        assert report.span == (40, 42)
        assert report.error == error

    def test_unanalyzable_record_reports_error(self, toy_run):
        bad = replace(next(r for r in toy_run.records), id="bad",
                      source='int f() { char *s = "never closed;\n}')
        report = analyze(bad, toy_run.model, toy_run.vocab)
        assert report.unanalyzable
        assert report.error
        assert report.predicted_cwe == "none"

    def test_truncated_function_flagged(self, toy_run):
        body = "\n".join(f"    int x{i} = {i};" for i in range(200))
        big = replace(next(r for r in toy_run.records), id="big",
                      source="int f(void) {\n" + body + "\n    return 0;\n}")
        report = analyze(big, toy_run.model, toy_run.vocab)
        assert report.truncated
        assert any("512" in w for w in report.warnings)

    def test_huge_function_lexes_only_the_window(self, toy_run):
        # 1 MB on one line, about 90,000 statements; the window holds 510
        source = "void f(int y) { " + "x = y + 1; " * 90000 + "}"
        record = FunctionRecord(id="huge", source=source, language="c")
        started = time.perf_counter()
        report = analyze(record, toy_run.model, toy_run.vocab)
        assert time.perf_counter() - started < 0.1
        assert report.truncated and not report.unanalyzable


class TestScan:
    def test_empty_directory(self, tmp_path, toy_run):
        (tmp_path / "src").mkdir()
        summary = scan(tmp_path / "src", toy_run.model, toy_run.vocab,
                       tmp_path / "out")
        assert summary.n_functions == 0
        assert summary.counts == {}
        assert (tmp_path / "out" / "summary.json").exists()

    def test_benign_tree_counts(self, tmp_path, toy_run):
        benign = [r for r in select(toy_run.records, toy_run.split.train)
                  if not r.is_vulnerable][:3]
        src = tmp_path / "src"
        src.mkdir()
        for i, record in enumerate(benign):
            (src / f"file{i}.c").write_text(record.source + "\n",
                                            encoding="utf-8")
        summary = scan(src, toy_run.model, toy_run.vocab, tmp_path / "out")
        assert summary.counts == {"none": 3}
        assert summary.n_functions == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unanalyzable_function_counted_apart(self, tmp_path, toy_run,
                                                 jobs):
        """Its report still reads "none", but the summary does not count
        a function it could not analyze as benign."""
        benign = next(r for r in select(toy_run.records, toy_run.split.train)
                      if not r.is_vulnerable)
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.c").write_text(benign.source + "\n", encoding="utf-8")
        (src / "paren.c").write_text(UNGRAPHABLE_SOURCE[0] + "\n",
                                     encoding="utf-8")
        summary = scan(src, toy_run.model, toy_run.vocab, tmp_path / "out",
                       jobs=jobs)
        assert summary.counts == {"none": 1, "unanalyzable": 1}
        out = tmp_path / "out"
        assert json.loads((out / "summary.json").read_text(
            encoding="utf-8"))["counts"] == summary.counts
        assert "unanalyzable      1\n" in (out / "summary.txt").read_text(
            encoding="utf-8")
        report = json.loads((out / "paren.c__L1.json").read_text(
            encoding="utf-8"))
        assert (report["predicted_cwe"], report["description"]) \
            == ("none", "unanalyzable")

    def test_reports_parse_and_satisfy_invariants(self, tmp_path, toy_run):
        train = select(toy_run.records, toy_run.split.train)
        chosen = [r for r in train if r.is_vulnerable][:2] + \
                 [r for r in train if not r.is_vulnerable][:2]
        src = tmp_path / "src"
        src.mkdir()
        for i, record in enumerate(chosen):
            (src / f"f{i}.c").write_text(record.source + "\n", encoding="utf-8")
        scan(src, toy_run.model, toy_run.vocab, tmp_path / "out")
        report_files = sorted((tmp_path / "out").glob("*__L*.json"))
        assert len(report_files) == 4
        for path in report_files:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload["predicted_cwe"] == "none":
                assert payload["vul_lines"] is None
                assert payload["root_cause_line"] is None
            else:
                assert payload["vul_lines"] is not None
                span = payload["span"]
                assert span[0] <= payload["root_cause_line"] <= span[1]

    def test_rerun_is_byte_identical(self, tmp_path, toy_run):
        train = select(toy_run.records, toy_run.split.train)
        src = write_tree(tmp_path, train[:4])
        assert scan_bytes(src, toy_run, tmp_path / "out1") == \
            scan_bytes(src, toy_run, tmp_path / "out2")

    def test_worker_counts_agree(self, tmp_path, toy_run, use_cpus):
        train = select(toy_run.records, toy_run.split.train)
        src = write_tree(tmp_path, train[:4])
        assert scan_bytes(src, toy_run, tmp_path / "o1", jobs=1) == \
            scan_bytes(src, toy_run, tmp_path / "o4", jobs=4)

    def test_text_format(self, tmp_path, toy_run):
        vuln = next(r for r in select(toy_run.records, toy_run.split.train)
                    if r.is_vulnerable)
        src = tmp_path / "src"
        src.mkdir()
        (src / "v.c").write_text(vuln.source + "\n", encoding="utf-8")
        scan(src, toy_run.model, toy_run.vocab, tmp_path / "out", fmt="text")
        texts = list((tmp_path / "out").glob("*__L*.txt"))
        assert len(texts) == 1
        content = texts[0].read_text(encoding="utf-8")
        for block in ("Classification:", "Vulnerable Line(s):",
                      "Description:", "Root Cause:"):
            assert block in content
        table = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
        assert "Count" in table and "total" in table

    def test_text_excerpt_is_the_analyzed_source(self, tmp_path, toy_run,
                                                 monkeypatch):
        record = select(toy_run.records, toy_run.split.train)[0]
        src = write_tree(tmp_path, [record])
        cut = scanner.file_functions

        def cut_then_edit(path, rel_path):
            found = cut(path, rel_path)
            path.write_text("int edited(void) {\n}\n", encoding="utf-8")
            return found

        monkeypatch.setattr(scanner, "file_functions", cut_then_edit)
        scan(src, toy_run.model, toy_run.vocab, tmp_path / "out", fmt="text")
        excerpt = (tmp_path / "out" / "f0.c__L1.txt").read_text(
            encoding="utf-8").split("\n\n", 1)[1]
        assert [line.split(" | ", 1)[1] for line in excerpt.splitlines()] \
            == record.source.split("\n")

    def test_crlf_and_cr_line_endings_read_as_lf(self, tmp_path, toy_run,
                                                 vulnerable_model):
        vulnerable = [r for r in toy_run.records if r.is_vulnerable][:2]
        text = TWO_FUNCTIONS + "".join(r.source + "\n" for r in vulnerable)
        record = vulnerable[0]
        seen = {}
        for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            src = tmp_path / name / "src"
            src.mkdir(parents=True)
            (src / "f.c").write_bytes(text.replace("\n", ending).encode())
            scan(src, vulnerable_model, toy_run.vocab, tmp_path / name / "out")
            reports = [json.loads(p.read_text(encoding="utf-8")) for p in
                       sorted((tmp_path / name / "out").glob("*__L*.json"))]
            data = tmp_path / name / "data.jsonl"
            data.write_text(json.dumps({
                "id": record.id, "language": "c", "cwe": record.cwe,
                "source": record.source.replace("\n", ending),
                "vul_start": record.vul_start, "vul_end": record.vul_end,
            }) + "\n", encoding="utf-8")
            seen[name] = (
                [(r["span"], r["vul_lines"]) for r in reports],
                [(r.file_start_line, r.line_count, r.source)
                 for r in extract_functions(src)],
                [(r.source, r.line_count, r.vul_start, r.vul_end)
                 for r in load_dataset(data)])
        assert len(seen["lf"][0]) == 4
        assert all(vul_lines is not None for _, vul_lines in seen["lf"][0])
        assert seen["crlf"] == seen["lf"]
        assert seen["cr"] == seen["lf"]

    @pytest.mark.parametrize("damage", ["nan", "overflow"])
    def test_non_finite_model_gives_unanalyzable_report(self, tmp_path,
                                                         damage):
        source = "int f(){int a;return a+1;}"
        model, _, vocab, *_ = tiny_model_inputs(source)
        poison(model, damage)
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "f.c").write_text(source + "\n", encoding="utf-8")
        summary = scan(tmp_path / "src", model, vocab, tmp_path / "out")
        assert summary.counts == {"unanalyzable": 1}
        report = json.loads((tmp_path / "out" / "f.c__L1.json").read_text(
            encoding="utf-8"))
        assert report["description"] == "unanalyzable"
        assert report["error"].startswith("GradientError: non-finite")

    def test_each_file_lexed_once(self, tmp_path, toy_run, monkeypatch):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("a.c", "b.c"):
            (src / name).write_text(TWO_FUNCTIONS, encoding="utf-8")
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls.append(name)
                return original(*args)
            return counting

        for module, name in ((scanner, "lex"), (scanner, "tokenize"),
                             (semgraph, "build_graph")):
            monkeypatch.setattr(module, name, counted(module, name))
        summary = scan(src, toy_run.model, toy_run.vocab, tmp_path / "out")
        assert summary.n_functions == 4
        assert sorted(calls) == ["build_graph"] * 4 + ["lex"] * 2

    def test_report_name_clash_is_data_error(self, tmp_path, toy_run,
                                             capsys):
        src = tmp_path / "src"
        (src / "a").mkdir(parents=True)
        for rel in ("a/b.c", "a__b.c"):
            (src / rel).write_text("int f(void) {\n    return 0;\n}\n",
                                   encoding="utf-8")
        message = ("a/b.c and a__b.c would both write reports named "
                   "a__b.c__L<line>")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            scan(src, toy_run.model, toy_run.vocab, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert main(["scan", "--checkpoint", str(DESK_CHECKPOINT), "--root",
                     str(src), "--out", str(tmp_path / "out"),
                     "--jobs", "2"]) == 2
        assert capsys.readouterr().err == f"vulngraph: data error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_edge_tree_skips_only_the_unlexable_file(self, tmp_path, desk,
                                                     desk_trees, caplog):
        for fmt in ("json", "text"):
            with caplog.at_level(logging.WARNING, logger="vulngraph.scanner"):
                scan(desk_trees / "edge", desk.model, desk.vocab,
                     tmp_path / fmt, fmt=fmt)
            assert json.loads((tmp_path / fmt / "summary.json").read_text(
                encoding="utf-8"))["skipped"] == ["open.c"]
        assert [r.getMessage() for r in caplog.records] == [
            "skipping unlexable file open.c: line 2: unterminated string "
            "literal"] * 2
        for name in ("bounds.c__L2", "bounds.c__L5", "one.c__L1",
                     "one.c__L1_2"):
            report = json.loads((tmp_path / "json" / f"{name}.json"
                                 ).read_text(encoding="utf-8"))
            assert report["error"] is None, name

    def test_unknown_format_rejected(self, tmp_path, toy_run):
        with pytest.raises(DataError):
            scan(tmp_path, toy_run.model, toy_run.vocab, tmp_path / "o",
                 fmt="xml")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, toy_run, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            scan(tmp_path, toy_run.model, toy_run.vocab, tmp_path / "o",
                 jobs=jobs)


class TestWorkers:
    """``scan`` with ``jobs`` > 1: forked workers, at most two here."""

    @pytest.fixture()
    def src(self, tmp_path, toy_run):
        train = select(toy_run.records, toy_run.split.train)
        return write_tree(tmp_path, [r for r in train if r.is_vulnerable][:3]
                          + [r for r in train if not r.is_vulnerable][:3])

    def test_raising_function_is_unanalyzable_in_a_worker(
            self, tmp_path, toy_run, src, use_cpus, monkeypatch):
        serial = scan_bytes(src, toy_run, tmp_path / "o1", jobs=1)
        analyze_one = scanner.analyze

        def failing(record, *args):
            if record.file == "f2.c":
                raise RuntimeError(f"boom in process {os.getpid()}")
            return analyze_one(record, *args)

        monkeypatch.setattr(scanner, "analyze", failing)
        parallel = scan_bytes(src, toy_run, tmp_path / "o2", jobs=2)
        assert parallel.keys() == serial.keys()
        failed = next(name for name in parallel if name.startswith("f2.c"))
        payload = json.loads(parallel[failed])
        assert payload["description"] == "unanalyzable"
        error = payload["error"]
        assert error.startswith("RuntimeError: boom in process ")
        assert error != f"RuntimeError: boom in process {os.getpid()}"
        for name in set(serial) - {failed, "summary.json", "summary.txt"}:
            assert parallel[name] == serial[name], name

    def test_dead_worker_exits_three_without_traceback(self, tmp_path,
                                                       toy_run, src):
        checkpoint = tmp_path / "ckpt"
        save_checkpoint(checkpoint, toy_run.model, toy_run.vocab)
        done = run_cli("scan", "--checkpoint", checkpoint, "--root", src,
                       "--out", tmp_path / "out", "--jobs", "2", setup="""\
            import os
            from vulngraph import cpus, scanner
            cpus.usable_cpus = lambda: (2, True)
            scanner.analyze = lambda *args: os._exit(7)
            """)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("vulngraph: error: a scan worker "
                                      "process died")
        assert len(done.stderr.splitlines()) == 1, done.stderr

    def test_without_fork_scans_serially(self, tmp_path, toy_run, src,
                                         use_cpus, monkeypatch, caplog):
        serial = scan_bytes(src, toy_run, tmp_path / "o1", jobs=1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with caplog.at_level(logging.WARNING, logger="vulngraph.scanner"):
            fallback = scan_bytes(src, toy_run, tmp_path / "o2", jobs=2)
        assert fallback == serial
        assert [r.getMessage() for r in caplog.records] == [
            "scan --jobs needs the fork start method, which this platform "
            "lacks; analyzing serially"]

    def test_text_format_agrees(self, tmp_path, toy_run, src, use_cpus):
        assert scan_bytes(src, toy_run, tmp_path / "o1", fmt="text",
                          jobs=1) == \
            scan_bytes(src, toy_run, tmp_path / "o2", fmt="text", jobs=2)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_functions_sharing_a_start_line_each_get_a_report(
            self, tmp_path, toy_run, use_cpus, fmt):
        src = tmp_path / "src"
        src.mkdir()
        (src / "one.c").write_text(
            "int f(int a) { return a + 1; } int g(char *p) { char b[4]; "
            "strcpy(b, p); return b[0]; }\n"
            "int h(void) {\n    return 0;\n}\n", encoding="utf-8")
        (src / "two.c").write_text("int k(void) {\n    return 1;\n}\n",
                                   encoding="utf-8")
        written = [scan_bytes(src, toy_run, tmp_path / f"o{jobs}", fmt=fmt,
                              jobs=jobs) for jobs in (1, 2)]
        assert written[0] == written[1]
        suffix = {"json": ".json", "text": ".txt"}[fmt]
        reports = {name: text for name, text in written[0].items()
                   if "__L" in name}
        assert set(reports) == {f"one.c__L1{suffix}", f"one.c__L1_2{suffix}",
                                f"one.c__L2{suffix}", f"two.c__L1{suffix}"}
        assert b"one.c:1:f" in reports[f"one.c__L1{suffix}"]
        assert b"one.c:1:g" in reports[f"one.c__L1_2{suffix}"]
        assert b"one.c:1:g" not in reports[f"one.c__L1{suffix}"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unanalyzable_error_gives_the_file_line(self, tmp_path, toy_run,
                                                    use_cpus, jobs):
        src = tmp_path / "src"
        src.mkdir()
        (src / "paren.c").write_text(UNGRAPHABLE_FILE, encoding="utf-8")
        (src / "two.c").write_text("int k(void) {\n    return 1;\n}\n",
                                   encoding="utf-8")
        error = "unbalanced parentheses after 'if' on line 8"
        written = scan_bytes(src, toy_run, tmp_path / "json", jobs=jobs)
        report = json.loads(written["paren.c__L7.json"])
        assert (report["span"], report["error"]) == ([7, 10], error)
        text = scan_bytes(src, toy_run, tmp_path / "text", fmt="text",
                          jobs=jobs)["paren.c__L7.txt"].decode()
        assert f"Error:           {error}\n" in text
        assert "   7 | int f(int x) {\n" in text

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("tree", ["toy-96", "toy-32", "hub", "edge"])
    def test_desk_reports_agree(self, tmp_path, desk, desk_trees, use_cpus,
                                caplog, tree, fmt):
        """The hub and the 510-token function take the operator's padded
        lists and remainder rows into the workers, and the edge tree the
        lexer's and the extraction's edge cases."""
        written, logged = [], []
        for jobs in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="vulngraph.scanner"):
                written.append(scan_bytes(desk_trees / tree, desk,
                                          tmp_path / str(jobs), fmt=fmt,
                                          jobs=jobs))
            logged.append([r.getMessage() for r in caplog.records])
        assert written[0] == written[1]
        assert logged[0] == logged[1]

    @pytest.mark.parametrize("n_files, workers, size", [
        (6, 2, 3), (96, 2, 4), (7, 2, 4), (1, 1, 1)])
    def test_chunk_size_spreads_small_trees(self, n_files, workers, size):
        assert _chunk_size(n_files, workers) == size

    def test_warnings_reach_the_log_in_path_order(self, tmp_path, toy_run,
                                                  use_cpus, caplog):
        src = tmp_path / "src"
        (src / "sub").mkdir(parents=True)
        (src / "fine.c").write_text("int g(void) {\n    return 0;\n}\n",
                                    encoding="utf-8")
        (src / "open.c").write_text(
            'int f(void) {\n    return puts("open);\n}\n', encoding="utf-8")
        (src / "sub" / "broken.c").write_text("int f() { int x = 1;\n",
                                              encoding="utf-8")
        (src / "sub" / "zz.c").write_text("int k(void) {\n    return 1;\n}\n",
                                          encoding="utf-8")
        logged, skipped = [], []
        for jobs in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="vulngraph.scanner"):
                summary = scan(src, toy_run.model, toy_run.vocab,
                               tmp_path / f"out{jobs}", jobs=jobs)
            logged.append([r.getMessage() for r in caplog.records])
            skipped.append(summary.skipped)
        assert logged == [[
            "skipping unlexable file open.c: line 2: unterminated string "
            "literal",
            "skipping sub/broken.c: unbalanced braces after line 1"]] * 2
        assert skipped == [["open.c", "sub/broken.c"]] * 2


class TestRender:
    def test_marks_root_cause_line(self):
        report = AnalysisReport(
            function_id="f.c:1:f", file="f.c", span=(1, 3),
            predicted_cwe="CWE-119", confidence=0.9,
            description="Buffer trouble.", vul_lines=(3, 3),
            root_cause_line=2)
        text = render_report(report, "int f() {\n    int a = 1;\n}")
        lines = text.splitlines()
        marked = [l for l in lines if l.startswith(">>>")]
        assert len(marked) == 1
        assert "2 |" in marked[0]
