import ctypes
import json
import logging
import sys
import warnings

import pytest

import vulngraph.cli as cli
from vulngraph.cli import main
from vulngraph.corpus import record_to_json, save_dataset, select
from vulngraph.model import VulnModel
from vulngraph.synth import make_toy_corpus
from vulngraph.trainer import (evaluate_samples, load_checkpoint,
                               prepare_sample, save_checkpoint)
from conftest import run_python

TINY_CONFIG = """\
embed_dim=16
gcn_dim=12
num_classes=11
epochs=2
learning_rate=1e-3
batch_size=8
seed=3
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

    def test_config_error_is_one(self, tmp_path, dataset, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key=1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("field, value", [
        ("source", 5), ("vul_start", "1"), ("id", 7), ("vul_start", True),
        ("language", None), ("cwe", 119), ("file", ["a.c"]),
        ("vul_end", 2.0), ("file_start_line", False)])
    def test_bad_field_type_is_data_error(self, tmp_path, checkpoint, field,
                                          value, capsys):
        records, _ = make_toy_corpus(seed=3)
        row = record_to_json(next(r for r in records if r.is_vulnerable))
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
        "focal_delta=inf"])
    def test_non_finite_or_negative_setting_is_config_error(
            self, tmp_path, dataset, setting, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + setting + "\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("vulngraph: config error: ")

    @pytest.mark.parametrize("setting", [
        "checkpoint_dir=runs", "sweep_mode=shared", "optimizer=sgd"])
    def test_retired_run_config_key_is_usage_error(self, tmp_path, dataset,
                                                    setting, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + setting + "\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vulngraph: config error: ")
        assert setting.partition("=")[0] in err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("settings", [
        "learning_rate=1e300\n",
        # one batch per epoch: only the validation pass sees the overflow
        "learning_rate=1e300\nepochs=1\nbatch_size=64\n"])
    def test_diverging_run_exits_three_on_one_line(self, tmp_path, dataset,
                                                    settings, capsys):
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(TINY_CONFIG + settings, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(diverging), "--data",
                         str(dataset), "--out", str(tmp_path / "out")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("vulngraph: error: non-finite values")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    @pytest.mark.parametrize("command, module, work", [
        ("train", "trainer", "train"),
        ("scan", "scanner", "_cut_file")])
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
        err = capsys.readouterr().err
        assert err == (f"vulngraph: config error: cannot make --out {out}: "
                       f"{blocker} is not a directory\n")
        assert calls == []
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_negative_seed_env_is_config_error(self, tmp_path, dataset,
                                                config, monkeypatch, capsys):
        monkeypatch.setenv("VULNGRAPH_SEED", "-1")
        assert main(["train", "--config", str(config), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err


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

    def test_seed_env_override(self, tmp_path, dataset, config, monkeypatch,
                               capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("VULNGRAPH_SEED", "11")
        assert main(["train", "--config", str(config), "--data", str(dataset),
                     "--out", str(out_a)]) == 0
        monkeypatch.setenv("VULNGRAPH_SEED", "12")
        assert main(["train", "--config", str(config), "--data", str(dataset),
                     "--out", str(out_b)]) == 0
        assert (out_a / "params.npz").read_bytes() != \
            (out_b / "params.npz").read_bytes()


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
        assert (len(encoded), len(forwards)) == (1, 2)

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

    def test_no_tape_in_evaluation(self, toy_run, monkeypatch):
        samples = [prepare_sample(r, toy_run.vocab, 11)
                   for r in toy_run.records[:6]]
        taped = count_calls(monkeypatch, "tensor", "from_op")
        evaluate_samples(toy_run.model, samples, 11)
        assert taped == []
        toy_run.model.forward_nodes(samples[0].ids, samples[0].operator)
        assert taped  # the oracle still builds the tape

    def test_overflowing_weights_exit_three(self, vulnerable_file, checkpoint,
                                            capsys):
        model, vocab = load_checkpoint(checkpoint)
        model.input_proj.data[...] = 1e308
        model.gcn_weights[0].data[...] = 1e308
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

    def test_bad_ratios_usage_error(self, dataset, config, capsys):
        assert main(["sweep", "--config", str(config), "--data", str(dataset),
                     "--ratios", "abc"]) == 1


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
