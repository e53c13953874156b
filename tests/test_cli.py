import ctypes
import dataclasses
import json
import logging
import multiprocessing
import re
import sys

import numpy as np
import pytest

import vulngraph.cli as cli
from vulngraph.attribution import attribute_tokens
from vulngraph.cli import main
from vulngraph.corpus import (class_label, load_dataset, save_dataset,
                              select, split)
from vulngraph.lexer import tokenize
from vulngraph.model import ModelConfig, VulnModel
from vulngraph.scanner import analyze, file_functions, scan
from vulngraph.synth import make_toy_corpus
from vulngraph.tensor import Matrix
from vulngraph.runfiles import load_checkpoint, save_checkpoint
from vulngraph.trainer import evaluate_samples, prepare_sample
from conftest import (DESK_CHECKPOINT, UNGRAPHABLE_FILE, UNGRAPHABLE_SOURCE,
                      UNLEXABLE_SOURCE, count_matrices, cpus_setup, crlf_file,
                      poison, run_cli, run_python)

TINY_CONFIG = """\
embed_dim=16
gcn_dim=12
num_classes=11
epochs=2
learning_rate=1e-3
batch_size=8
seed=3
"""


def tiny_config(settings: str) -> str:
    """``TINY_CONFIG`` with the key=value lines of ``settings`` in place
    of its lines for the same keys."""
    given = {line.partition("=")[0] for line in settings.splitlines()}
    return "".join(line + "\n" for line in TINY_CONFIG.splitlines()
                   if line.partition("=")[0] not in given) + settings


#: A ``run_cli`` setup that caps the run's address space at 1.5 GB.
MEMORY_CAP = """\
    import resource
    cap = 1536 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    """

TWO_FUNCTIONS = ("int aa(void) {\n    return 1;\n}\n"
                 "int bb(char *p) {\n    strcpy(p, \"x\");\n    return 2;\n}\n")


def count_calls(monkeypatch, module, name):
    """Replace every binding of vulngraph.<module>.<name>; count its calls."""
    original = getattr(sys.modules[f"vulngraph.{module}"], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if module_name == "vulngraph" or module_name.startswith("vulngraph."):
            for binding, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, binding, counting)
    return calls


@pytest.fixture()
def dataset(tmp_path):
    records, _ = make_toy_corpus(seed=3)
    path = tmp_path / "data.jsonl"
    save_dataset(records, path)
    return path


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


@pytest.fixture()
def checkpoint(tmp_path, toy_run):
    path = tmp_path / "ckpt"
    save_checkpoint(path, toy_run.model, toy_run.vocab)
    return path


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train", "--config"]) == 1
        assert main(["no-such-command"]) == 1

    def test_data_error_is_two(self, tmp_path, config, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["train", "--config", str(config), "--data",
                     str(missing), "--out", str(tmp_path / "out")]) == 2

    def test_bad_checkpoint_is_data_error(self, dataset, checkpoint, capsys):
        (checkpoint / "config.txt").unlink()
        assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(dataset)]) == 2
        assert "missing config.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("name, convert", [
        ("gcn_0", lambda values: values.astype(str)),
        ("gcn_0", lambda values: values + 1j),
        ("__format_version__", lambda values: values + 0.7),
    ], ids=["numeral-strings", "complex", "float-version"])
    def test_params_that_are_not_real_numbers_exit_two(self, dataset,
                                                       checkpoint, name,
                                                       convert):
        path = checkpoint / "params.npz"
        with np.load(path) as archive:
            entries = {key: archive[key] for key in archive.files}
        entries[name] = convert(entries[name])
        np.savez(path, **entries)
        done = run_cli("eval", "--checkpoint", checkpoint, "--data", dataset)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("vulngraph: data error: ")
        assert done.stderr.count("\n") == 1, done.stderr

    def test_huge_gcn_layers_is_one_data_error_line(self, tmp_path,
                                                     checkpoint):
        """Checked against the arrays before anything is sized by it;
        run under a 1.5 GB address-space cap, in a child process."""
        config = checkpoint / "config.txt"
        config.write_text(re.sub(
            r"(?m)^gcn_layers=.*$", "gcn_layers=1000000000000",
            config.read_text(encoding="utf-8")), encoding="utf-8")
        source = tmp_path / "two.c"
        source.write_text(TWO_FUNCTIONS, encoding="utf-8")
        done = run_cli("analyze", "--checkpoint", checkpoint, "--file", source,
                       setup=MEMORY_CAP)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == (
            "vulngraph: data error: checkpoint has 2 graph layers, "
            "config.txt says gcn_layers=1000000000000\n")

    def test_config_error_is_one(self, tmp_path, dataset, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key=1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1

    def test_run_config_key_given_twice_is_one(self, tmp_path, dataset,
                                               capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "epochs=1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", (
            "vulngraph: config error: config line 8: key 'epochs' already "
            "given on line 4\n"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, command, code", [
        ("config.txt", "eval", 2), ("vocab.tsv", "analyze", 2),
        ("data.jsonl", "eval", 2), ("run.cfg", "train", 1)])
    def test_text_input_that_is_not_utf8_names_the_file(
            self, tmp_path, dataset, config, checkpoint, name, command, code,
            capsys):
        bad = {"config.txt": checkpoint / name, "vocab.tsv": checkpoint / name,
               "data.jsonl": dataset, "run.cfg": config}[name]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        source = tmp_path / "one.c"
        source.write_text(TWO_FUNCTIONS, encoding="utf-8")
        args = {"eval": ["--checkpoint", checkpoint, "--data", dataset],
                "analyze": ["--checkpoint", checkpoint, "--file", source],
                "train": ["--config", config, "--data", dataset,
                          "--out", tmp_path / "out"]}[command]
        assert main([command, *map(str, args)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert str(bad) in err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_key_given_twice_is_two(self, dataset, checkpoint,
                                               capsys):
        config = checkpoint / "config.txt"
        lines = config.read_text(encoding="utf-8").splitlines()
        config.write_text("\n".join(lines + lines[:1]) + "\n",
                          encoding="utf-8")
        assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(dataset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vulngraph: data error: ")
        assert f"line {len(lines) + 1}: key 'vocab_size' already given on " \
               "line 1" in err

    @pytest.mark.parametrize("field, value", [
        ("source", 5), ("vul_start", "1"), ("id", 7), ("vul_start", True),
        ("language", None), ("cwe", 119), ("file", ["a.c"]),
        ("vul_end", 2.0), ("file_start_line", False), ("file_start_line", 0),
        ("file_start_line", -5)])
    def test_bad_field_type_is_data_error(self, tmp_path, checkpoint, field,
                                          value, capsys):
        records, _ = make_toy_corpus(seed=3)
        row = dataclasses.asdict(
            next(r for r in records if r.is_vulnerable))
        row[field] = value
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vulngraph: data error: ")
        assert f"{field} must be" in err

    @pytest.mark.parametrize("setting", [
        "learning_rate=nan", "learning_rate=inf", "embed_weight=nan",
        "w_cls=nan", "w_loc=inf", "seed=-1", "focal_delta=nan",
        "focal_delta=inf", "num_classes=12"])
    def test_non_finite_or_negative_setting_is_config_error(
            self, tmp_path, dataset, setting, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(tiny_config(setting + "\n"), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("vulngraph: config error: ")
        assert captured.err.count("\n") == 1, captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_label_past_the_class_count_names_the_record(
            self, tmp_path, dataset, toy_run, command, capsys):
        if command == "eval":
            model = VulnModel(ModelConfig(vocab_size=len(toy_run.vocab),
                                          embed_dim=16, gcn_dim=12,
                                          num_classes=5))
            save_checkpoint(tmp_path / "five", model, toy_run.vocab)
            args = ["--checkpoint", str(tmp_path / "five")]
        else:
            config = tmp_path / "five.cfg"
            config.write_text(tiny_config("num_classes=5\n"),
                              encoding="utf-8")
            args = ["--config", str(config)] + (
                ["--out", str(tmp_path / "out")] if command == "train"
                else ["--ratios", "0.5"])
        assert main([command, *args, "--data", str(dataset)]) == 2
        err = capsys.readouterr().err
        named = re.fullmatch(r"vulngraph: data error: record '(.+)': label "
                             r"'(.+)' is class (\d+); a 5-class model has "
                             r"classes 0\.\.4\n", err)
        assert named, err
        labels = {r.id: r.cwe for r in load_dataset(dataset)}
        assert labels[named[1]] == named[2]
        assert int(named[3]) >= 5

    @pytest.mark.parametrize("command, part", [
        ("train", "train"), ("train", "val"), ("eval", "test"),
        ("sweep", "train"), ("sweep", "test")])
    @pytest.mark.parametrize("source, error", [
        UNLEXABLE_SOURCE, UNGRAPHABLE_SOURCE], ids=["lex", "graph"])
    def test_record_that_cannot_be_lexed_or_graphed_is_named(
            self, tmp_path, dataset, config, checkpoint, command, part,
            source, error, capsys):
        # the record of the split's part is made benign and unreadable;
        # train records are tokenized ahead of the others, for the
        # vocabulary
        records = load_dataset(dataset)
        bad_id = getattr(split(records, seed=3), part)[0]
        save_dataset([dataclasses.replace(
            r, source=source, cwe=None, vul_start=None, vul_end=None)
            if r.id == bad_id else r for r in records], dataset)
        args = {"train": ["--config", str(config), "--out",
                          str(tmp_path / "out")],
                "eval": ["--checkpoint", str(checkpoint)],
                "sweep": ["--config", str(config),
                          "--ratios", "0.5"]}[command]
        assert main([command, *args, "--data", str(dataset)]) == 2
        assert capsys.readouterr() == (
            "", f"vulngraph: data error: record {bad_id!r}: {error}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "checkpoint_dir=runs", "sweep_mode=shared", "optimizer=sgd",
        "vocab_size=100000"])
    def test_retired_run_config_key_is_usage_error(self, tmp_path, dataset,
                                                    setting, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(tiny_config(setting + "\n"), encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("vulngraph: config error: ")
        assert err.count("\n") == 1, err
        assert setting.partition("=")[0] in err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("settings, error", [
        ("learning_rate=1e300\n", "non-finite values"),
        # one batch per epoch: only the validation pass sees the overflow
        ("learning_rate=1e300\nepochs=1\nbatch_size=64\n",
         "non-finite values in validation"),
        # finite in float64, past float32's range: the passes overflow
        ("learning_rate=1e39\n", "non-finite values in forward pass")],
        ids=["learning_rate=1e300\n",
             "learning_rate=1e300\nepochs=1\nbatch_size=64\n",
             "learning_rate=1e39\n"])
    def test_diverging_run_exits_three_on_one_line(self, tmp_path, dataset,
                                                    settings, error):
        """In one process and with a forked helper alike: no numpy warning
        reaches stderr ahead of the error."""
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(tiny_config(settings), encoding="utf-8")
        for processes in (1, 2):
            done = run_cli("train", "--config", diverging, "--data", dataset,
                           "--out", tmp_path / "out",
                           setup=cpus_setup(processes))
            assert done.returncode == 3, done.stderr
            assert done.stderr.startswith(f"vulngraph: error: {error}")
            assert len(done.stderr.splitlines()) == 1, done.stderr

    @pytest.mark.parametrize("setting", ["gcn_layers=1000000000000",
                                         "embed_dim=1000000000000"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_huge_model_setting_is_one_config_error_line(
            self, tmp_path, dataset, command, setting):
        """Checked before anything is sized by it; run under a 1.5 GB
        address-space cap, in a child process."""
        huge = tmp_path / "huge.cfg"
        huge.write_text(tiny_config(setting + "\n"), encoding="utf-8")
        target = {"train": ["--out", tmp_path / "out"],
                  "sweep": ["--ratios", "0.5"]}[command]
        done = run_cli(command, "--config", huge, "--data", dataset, *target,
                       setup=MEMORY_CAP)
        assert (done.returncode, done.stdout) == (1, ""), done.stderr
        assert done.stderr.startswith("vulngraph: config error: ")
        assert setting in done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    @pytest.mark.parametrize("command, module, work", [
        ("train", "trainer", "train"),
        ("scan", "scanner", "file_functions")])
    def test_out_at_a_file_fails_before_any_work(self, tmp_path, dataset,
                                                 config, checkpoint,
                                                 monkeypatch, command, module,
                                                 work, under, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / "run" if under else blocker
        (tmp_path / "tree").mkdir()
        (tmp_path / "tree" / "one.c").write_text(TWO_FUNCTIONS,
                                                 encoding="utf-8")
        args = (["--config", str(config), "--data", str(dataset)]
                if command == "train" else
                ["--checkpoint", str(checkpoint), "--root",
                 str(tmp_path / "tree")])
        calls = count_calls(monkeypatch, module, work)
        assert main([command, *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"vulngraph: config error: cannot make --out "
                                f"{out}: {blocker} is not a directory\n")
        assert captured.out == ""
        assert calls == []
        assert blocker.read_text(encoding="utf-8") == "keep\n"
        assert list(tmp_path.rglob("log.jsonl")) == []


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, tmp_path, dataset, config,
                                             capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert (out / "params.npz").exists()
        assert (out / "vocab.tsv").exists()
        assert (out / "config.txt").exists()
        log_lines = (out / "log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        assert {"epoch", "train_loss", "val_loss", "val_f1", "val_iou"} == set(
            json.loads(log_lines[0]))

    def test_eval_prints_metrics_json(self, dataset, checkpoint, capsys):
        assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(dataset)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "accuracy" in payload and "f1" in payload


class TestAnalyzeSurface:
    def test_analyze_prints_blocks(self, tmp_path, checkpoint, toy_run,
                                   capsys):
        vuln = next(r for r in select(toy_run.records, toy_run.split.train)
                    if r.is_vulnerable)
        source = tmp_path / "one.c"
        source.write_text(vuln.source + "\n", encoding="utf-8")
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(source)]) == 0
        out = capsys.readouterr().out
        for block in ("Classification:", "Vulnerable Line(s):",
                      "Description:", "Root Cause:"):
            assert block in out

    def test_analyze_function_filter(self, tmp_path, checkpoint, capsys):
        source = tmp_path / "two.c"
        source.write_text("int aa(void) {\n    return 1;\n}\n"
                          "int bb(void) {\n    return 2;\n}\n",
                          encoding="utf-8")
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(source), "--function", "bb"]) == 0
        out = capsys.readouterr().out
        assert ":bb" in out and ":aa" not in out

    def test_analyze_unknown_function_is_data_error(self, tmp_path,
                                                    checkpoint, capsys):
        source = tmp_path / "x.c"
        source.write_text("int aa(void) {\n    return 1;\n}\n",
                          encoding="utf-8")
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(source), "--function", "zz"]) == 2

    def test_analyze_reads_only_the_named_file(self, tmp_path, checkpoint,
                                               caplog, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.c").write_text(TWO_FUNCTIONS, encoding="utf-8")
        (src / "b.c").write_text("int cc(void) {\n    /* never closed\n}\n",
                                 encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="vulngraph"):
            assert main(["analyze", "--checkpoint", str(checkpoint),
                         "--file", str(src / "a.c")]) == 0
        assert [r.getMessage() for r in caplog.records
                if "b.c" in r.getMessage()] == []
        out = capsys.readouterr().out
        assert "a.c:1:aa" in out and "a.c:4:bb" in out

    @pytest.mark.parametrize("command", ["analyze", "attribute"])
    def test_each_function_tokenized_and_graphed_once(
            self, tmp_path, checkpoint, monkeypatch, command, capsys):
        source = tmp_path / "two.c"
        source.write_text(TWO_FUNCTIONS, encoding="utf-8")
        """One lex of the file, whose tokens both functions' streams are
        cut from, and one graph per function."""
        lexed = count_calls(monkeypatch, "lexer", "lex")
        tokenized = count_calls(monkeypatch, "lexer", "tokenize")
        graphed = count_calls(monkeypatch, "semgraph", "build_graph")
        assert main([command, "--checkpoint", str(checkpoint), "--file",
                     str(source)]) == 0
        assert (len(lexed), len(tokenized), len(graphed)) == (1, 0, 2)

    @pytest.mark.parametrize("name, text", [("notes.txt", TWO_FUNCTIONS),
                                            ("empty.c", "")])
    def test_file_without_functions_is_data_error(self, tmp_path, checkpoint,
                                                  name, text, capsys):
        source = tmp_path / name
        source.write_text(text, encoding="utf-8")
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(source)]) == 2
        assert "no function definitions found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "attribute"])
    @pytest.mark.parametrize("name, text, reason", [
        ("open.c", 'int f(void) {\n    return puts("open);\n}\n',
         "unlexable file open.c: line 2: unterminated string literal"),
        ("unbalanced.c", "int f(void) {\n    return 0;\n",
         "unbalanced.c: unbalanced braces after line 1")])
    def test_file_that_scan_skips_is_one_line_data_error(
            self, tmp_path, checkpoint, command, name, text, reason, caplog,
            capsys):
        source = tmp_path / name
        source.write_text(text, encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="vulngraph"):
            assert main([command, "--checkpoint", str(checkpoint), "--file",
                         str(source)]) == 2
        assert [r.getMessage() for r in caplog.records] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"vulngraph: data error: {reason}\n"

    def test_unanalyzable_function_gives_the_file_line(self, tmp_path,
                                                       checkpoint, capsys):
        source = tmp_path / "paren.c"
        source.write_text(UNGRAPHABLE_FILE, encoding="utf-8")
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(source), "--function", "f"]) == 0
        out = capsys.readouterr().out
        assert "Function:        paren.c:7:f\n" in out
        assert "Error:           unbalanced parentheses after 'if' on " \
            "line 8\n" in out
        assert "   8 |     if (x {\n" in out

    def test_attribute_of_an_ungraphable_function_names_it(
            self, tmp_path, checkpoint, capsys):
        source = tmp_path / "paren.c"
        source.write_text(UNGRAPHABLE_FILE, encoding="utf-8")
        assert main(["attribute", "--checkpoint", str(checkpoint), "--file",
                     str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "vulngraph: data error: function 'paren.c:7:f': unbalanced "
            "parentheses after 'if' on line 8\n")

    def test_attribute_dumps_schema(self, tmp_path, checkpoint, toy_run,
                                    capsys):
        vuln = next(r for r in select(toy_run.records, toy_run.split.train)
                    if r.is_vulnerable)
        source = tmp_path / "one.c"
        source.write_text(vuln.source + "\n", encoding="utf-8")
        assert main(["attribute", "--checkpoint", str(checkpoint), "--file",
                     str(source)]) == 0
        dumps = json.loads(capsys.readouterr().out)
        assert len(dumps) == 1
        for key in ("token_scores", "line_scores", "root_cause", "phi0"):
            assert key in dumps[0]

    def test_attribute_dump_agrees_with_reports_past_line_1(
            self, tmp_path, checkpoint, toy_run, capsys):
        """A dump and a report of each function of a file give the same
        class, root cause and lines, in the file's lines; where the report
        is unanalyzable, ``attribute`` fails with the report's error."""
        train = select(toy_run.records, toy_run.split.train)
        benign = next(r for r in train if not r.is_vulnerable)
        vuln = next(r for r in train if r.is_vulnerable)
        src = tmp_path / "tree"
        src.mkdir()
        (src / "two.c").write_text(f"{benign.source}\n\n{vuln.source}\n",
                                   encoding="utf-8")
        (src / "paren.c").write_text(UNGRAPHABLE_FILE, encoding="utf-8")
        rooted = dumps_against_reports(checkpoint, src / "two.c",
                                       tmp_path / "reports", capsys)
        assert rooted[1][0] == benign.line_count + 2
        assert rooted[1][2] is not None
        # a benign and a vulnerable one
        assert {line is None for *_, line in rooted} == {True, False}
        assert main(["attribute", "--checkpoint", str(checkpoint), "--file",
                     str(src / "paren.c")]) == 2
        scanned = json.loads((tmp_path / "reports" / "paren.c__L7.json"
                              ).read_text(encoding="utf-8"))
        assert scanned["error"]
        assert capsys.readouterr().err == (
            f"vulngraph: data error: function 'paren.c:7:f': "
            f"{scanned['error']}\n")
        (tmp_path / "crlf").mkdir()
        (tmp_path / "crlf" / "crlf.c").write_bytes(crlf_file())
        rooted = dumps_against_reports(DESK_CHECKPOINT,
                                       tmp_path / "crlf" / "crlf.c",
                                       tmp_path / "crlf-reports", capsys)
        assert [r for r in rooted if r[2] is not None] == [
            (9, "CWE-476", 13), (25, "CWE-119", 27)]

    def test_scan_command(self, tmp_path, checkpoint, toy_run, capsys):
        src = tmp_path / "tree"
        src.mkdir()
        benign = [r for r in select(toy_run.records, toy_run.split.train)
                  if not r.is_vulnerable][:2]
        for i, record in enumerate(benign):
            (src / f"b{i}.c").write_text(record.source + "\n",
                                         encoding="utf-8")
        assert main(["scan", "--checkpoint", str(checkpoint), "--root",
                     str(src), "--out", str(tmp_path / "reports")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_functions"] == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_scan_jobs_below_one_is_usage_error(self, tmp_path, checkpoint,
                                                capsys, jobs):
        (tmp_path / "tree").mkdir()
        assert main(["scan", "--checkpoint", str(checkpoint), "--root",
                     str(tmp_path / "tree"), "--out", str(tmp_path / "out"),
                     "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err == f"vulngraph: config error: jobs must be >= 1, got {jobs}\n"

    def test_one_parser_keeps_each_calls_defaults(self, monkeypatch):
        jobs = []
        monkeypatch.setitem(cli._COMMANDS, "scan",
                            lambda args: jobs.append(args.jobs) or 0)
        scan = ["scan", "--checkpoint", "c", "--root", "r", "--out", "o"]
        assert main(scan + ["--jobs", "2"]) == 0
        assert main(scan) == 0
        assert jobs == [2, 1]
        assert cli._build_parser() is cli._build_parser()


def dumps_against_reports(checkpoint, path, out, capsys):
    """Scan the tree of ``path`` into ``out`` and attribute the file
    ``path``, both with ``checkpoint``; check each function's dump against
    its report and against ``analyze``, and return each function's first
    line, class and root-cause line."""
    model, vocab = load_checkpoint(checkpoint)
    assert main(["scan", "--checkpoint", str(checkpoint), "--root",
                 str(path.parent), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["attribute", "--checkpoint", str(checkpoint), "--file",
                 str(path)]) == 0
    dumps = json.loads(capsys.readouterr().out)
    found, _ = file_functions(path, path.name)
    assert [dump["function_id"] for dump in dumps] \
        == [record.id for record, _ in found]
    rooted = []
    for dump, (record, stream) in zip(dumps, found):
        first, last = record.span
        scanned = json.loads((out / f"{path.name}__L{first}.json").read_text(
            encoding="utf-8"))
        for report in (analyze(record, model, vocab, stream),
                       analyze(record, model, vocab)):
            assert report.to_json_dict() == scanned
        label = class_label(dump["target_class"], model.config.num_classes)[0]
        assert label == scanned["predicted_cwe"]
        if label == "none":
            assert dump["root_cause"] is None
            assert scanned["root_cause_line"] is None
        else:
            assert dump["root_cause"]["line"] == scanned["root_cause_line"]
            assert sorted(dump["line_scores"]) \
                == sorted(scanned["line_attributions"])
        assert all(first <= int(line) <= last for line in dump["line_scores"])
        rooted.append((first, label, scanned["root_cause_line"]))
    return rooted


def count_forwards(monkeypatch):
    """Count calls of ``VulnModel.forward``."""
    forward = VulnModel.forward
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(VulnModel, "forward", counting)
    return calls


@pytest.fixture()
def vulnerable_file(tmp_path, toy_run):
    vuln = next(r for r in select(toy_run.records, toy_run.split.train)
                if r.is_vulnerable)
    path = tmp_path / "tree" / "one.c"
    path.parent.mkdir()
    path.write_text(vuln.source + "\n", encoding="utf-8")
    return path


class TestInferenceCost:
    """Encodes, full forwards and tape nodes per analyzed function."""

    def test_analyze_vulnerable_function(self, vulnerable_file, checkpoint,
                                         monkeypatch, capsys):
        encoded = count_calls(monkeypatch, "lexer", "encode")
        forwards = count_forwards(monkeypatch)
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(vulnerable_file)]) == 0
        assert "Classification:  none" not in capsys.readouterr().out
        assert (len(encoded), len(forwards)) == (1, 1)

    def test_attribute_per_function(self, tmp_path, checkpoint, monkeypatch,
                                    capsys):
        source = tmp_path / "two.c"
        source.write_text(TWO_FUNCTIONS, encoding="utf-8")
        encoded = count_calls(monkeypatch, "lexer", "encode")
        forwards = count_forwards(monkeypatch)
        assert main(["attribute", "--checkpoint", str(checkpoint), "--file",
                     str(source)]) == 0
        assert (len(encoded), len(forwards)) == (2, 4)

    @pytest.mark.parametrize("command", ["analyze", "attribute", "scan"])
    def test_no_tape_at_inference(self, tmp_path, vulnerable_file, checkpoint,
                                  monkeypatch, command, capsys):
        (vulnerable_file.parent / "two.c").write_text(TWO_FUNCTIONS,
                                                      encoding="utf-8")
        target = (["--root", str(vulnerable_file.parent), "--out",
                   str(tmp_path / "reports")] if command == "scan"
                  else ["--file", str(vulnerable_file)])
        taped = count_calls(monkeypatch, "tensor", "from_op")
        assert main([command, "--checkpoint", str(checkpoint)] + target) == 0
        assert taped == []

    def test_no_tape_in_evaluation(self, toy_run, checkpoint, tmp_path,
                                   monkeypatch, use_cpus):
        samples = [prepare_sample(r, toy_run.vocab, 11)
                   for r in toy_run.records[:6]]
        vulnerable = [r for r in toy_run.records if r.is_vulnerable][:2]
        benign = [r for r in toy_run.records if not r.is_vulnerable][:2]
        (tmp_path / "src").mkdir()
        for i, record in enumerate(vulnerable + benign):
            (tmp_path / "src" / f"f{i}.c").write_text(record.source + "\n",
                                                      encoding="utf-8")
        taped = count_calls(monkeypatch, "tensor", "from_op")
        matrices = count_matrices(monkeypatch, tmp_path)
        evaluate_samples(toy_run.model, samples)
        # nor does any other production path build a tape value
        model, vocab = load_checkpoint(checkpoint)
        VulnModel(model.config, seed=1)
        out = model.forward(samples[0].ids, samples[0].operator())
        model.backward(out, np.ones(11), np.ones(2), lambda *c: None)
        attribute_tokens(model, tokenize(toy_run.records[0].source), out)
        summary = scan(tmp_path / "src", model, vocab, tmp_path / "reports",
                       jobs=2)
        assert summary.n_functions == 4 > summary.counts.get("none", 0)
        assert (taped, matrices()) == ([], 0)
        toy_run.model.forward_nodes(samples[0].ids, samples[0].operator())
        assert taped  # the oracle still builds the tape
        # and the count sees a forked process's values
        built = matrices()
        child = multiprocessing.get_context("fork").Process(
            target=Matrix, args=(np.zeros((1, 1)),))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert matrices() == built + 1

    def test_overflowing_weights_exit_three(self, vulnerable_file, checkpoint,
                                            capsys):
        model, vocab = load_checkpoint(checkpoint)
        poison(model, "overflow")
        save_checkpoint(checkpoint, model, vocab)
        assert main(["analyze", "--checkpoint", str(checkpoint), "--file",
                     str(vulnerable_file)]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_table(self, tmp_path, dataset, config, capsys):
        assert main(["sweep", "--config", str(config), "--data", str(dataset),
                     "--ratios", "1.0,0.0"]) == 0
        out = capsys.readouterr().out
        assert "Embed" in out and "F1" in out
        assert len(out.strip().splitlines()) == 4  # header + rule + 2 rows
        assert [row.split()[:2] for row in out.splitlines()[2:]] == [
            ["1.00", "0.00"], ["0.00", "1.00"]]

    def test_bad_ratios_usage_error(self, dataset, config, capsys):
        for ratios in ("abc", "0.5,1.5"):  # a bad weight, then a bad ratio
            assert main(["sweep", "--config", str(config), "--data",
                         str(dataset), "--ratios", ratios]) == 1
            assert capsys.readouterr().out == ""


def has_mallopt():
    try:
        return getattr(ctypes.CDLL(None), "mallopt", None) is not None
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="libc has no mallopt")
def test_main_keeps_freed_blocks_in_the_process():
    # 20 rounds that each hold two 4 MB arrays and free them; without the
    # policy glibc unmaps both every round, about 19,800 minor faults on a
    # 2-core x86-64 Linux host (a single array would stay in the heap
    # after its first free even without it)
    done = run_python("""\
        import contextlib, io, resource
        import numpy as np
        from vulngraph import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--version"])

        def two_arrays():
            arrays = [np.ones(1 << 19) for _ in range(2)]
            del arrays

        two_arrays()  # the first round may grow the heap
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            two_arrays()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100
