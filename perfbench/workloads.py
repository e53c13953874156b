"""The three workloads: inputs, one measured pass, and its output checks.

Every operation goes through ``vulngraph.cli.main`` in this process, with
stdout and stderr captured. A nonzero exit code, an unanalyzable report
or a failed output check counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vulngraph.cli as cli
from vulngraph.corpus import split
from vulngraph.lexer import MAX_PAYLOAD, STREAM_CAPACITY
from vulngraph.objectives import iou_1d

import common
import gen
from tracing import Tracer

#: Tolerance for the per-line sums of token scores.
LINE_SUM_TOLERANCE = 1e-9
#: What reading a missing or malformed output raises; the check fails.
MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError)


@dataclass
class PassResult:
    """One pass over a workload's inputs."""

    seconds: float  # wall time inside cli.main, summed over operations
    items: int  # functions scanned or explained, or samples x epochs
    attempted: int
    failed: int
    digest: str  # of the outputs, to compare passes and commits
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


class Workload:
    name = ""
    throughput = ""  # what items_per_s counts, as the metric table names it
    jobs = 1  # worker threads the program may use
    functions = 0  # functions whose analysis or training one pass covers
    setup_kind = "checkpoint"  # what the set-up probe loads

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.tracer: Tracer | None = None
        self.last_error = ""

    def prepare(self) -> str:
        """Write the inputs under ``work``; return their digest."""
        raise NotImplementedError

    def setup_target(self) -> Path:
        return common.FIXTURE_DIR

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before timing."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """One operation: (exit code, captured stdout, seconds)."""
        if self.tracer is not None:
            self.tracer.run += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an escaped exception fails the operation
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if code != 0:
            tail = err.getvalue().strip().splitlines()[-1:] or [""]
            self.last_error = f"exit {code}: {tail[0]}"
        return code, out.getvalue(), seconds


class ScanTriage(Workload):
    """``scan --jobs 2`` over a tree of short, mostly benign functions."""

    name = "scan-triage"
    throughput = "scan_functions_per_s"
    jobs = 2

    def prepare(self) -> str:
        self.tree = gen.make_scan_tree(self.work / "tree", self.seed)
        self.functions = self.tree.n_functions
        return gen.tree_digest(self.tree.root)

    def warm_up(self) -> None:
        first = sorted((self.tree.root / gen.SCAN_DIRS[0]).glob("*.c"))[0]
        self.call(["analyze", "--checkpoint", str(common.FIXTURE_DIR),
                   "--file", str(first)])

    def run_pass(self, index: int) -> PassResult:
        out = self.work / f"scan-out-{index}"
        shutil.rmtree(out, ignore_errors=True)
        code, stdout, seconds = self.call(
            ["scan", "--checkpoint", str(common.FIXTURE_DIR),
             "--root", str(self.tree.root), "--out", str(out),
             "--jobs", str(self.jobs)])
        expected = self.tree.n_functions
        result = PassResult(seconds=seconds, items=expected,
                            attempted=expected, failed=0, digest="")
        try:
            if code != 0:
                result.problems.append(f"scan {self.last_error}")
            else:
                try:
                    self._check(out, stdout, result)
                except MALFORMED as exc:
                    result.problems.append(f"malformed scan output: {exc!r}")
            result.digest = gen.tree_digest(out) if out.is_dir() else ""
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if result.problems and result.failed == 0:
            result.failed = expected  # the scan as a whole is wrong
        return result

    def _check(self, out: Path, stdout: str, result: PassResult) -> None:
        summary = json.loads(stdout)
        n = summary["n_functions"]
        if n != self.tree.n_functions or summary["n_files"] != self.tree.n_files:
            result.problems.append(
                f"summary counts {n} functions in {summary['n_files']} files, "
                f"generated {self.tree.n_functions} in {self.tree.n_files}")
        if sum(summary["counts"].values()) != n:
            result.problems.append("summary class counts do not add up")
        reports = sorted(p for p in out.glob("*.json")
                         if p.name != "summary.json")
        if len(reports) != n:
            result.problems.append(f"{len(reports)} report files for {n} "
                                   f"functions")
        bad = unanalyzable = correct_class = 0
        hits = vulnerable = 0
        ious: list[float] = []
        seen = set()
        for path in reports:
            report = json.loads(path.read_text(encoding="utf-8"))
            key = (report["file"], report["span"][0])
            planted = self.tree.truth.get(key)
            if planted is None or key in seen:
                bad += 1
                continue
            seen.add(key)
            if report["error"] is not None:
                unanalyzable += 1
                bad += 1
                continue
            correct_class += report["predicted_cwe"] == (planted.cwe or "none")
            if planted.cwe is not None:
                vulnerable += 1
                hits += report["root_cause_line"] == planted.root_line
                vul = report["vul_lines"]
                ious.append(0.0 if vul is None
                            else iou_1d(tuple(vul), planted.vul_lines))
        if bad:
            result.problems.append(f"{bad} reports unanalyzable or not "
                                   f"matching a generated function")
        result.failed = bad
        result.details = {
            "unanalyzable": unanalyzable,
            "cls_accuracy": correct_class / max(len(reports), 1),
            "rootcause_hit_rate": hits / max(vulnerable, 1),
            "loc_iou_mean": sum(ious) / max(len(ious), 1),
            "planted_vulnerable": vulnerable,
        }


class ExplainLong(Workload):
    """``attribute`` on long functions, one call per file."""

    name = "explain-long"
    throughput = "explain_functions_per_s"

    def prepare(self) -> str:
        self.files = gen.make_explain_set(self.work / "explain", self.seed)
        self.functions = len(self.files)
        return gen.tree_digest(self.work / "explain")

    def warm_up(self) -> None:
        # The shortest function, so warming costs a fraction of a pass.
        self.call(["attribute", "--checkpoint", str(common.FIXTURE_DIR),
                   "--file", str(self.files[0][0])])

    def run_pass(self, index: int) -> PassResult:
        result = PassResult(seconds=0.0, items=len(self.files),
                            attempted=len(self.files), failed=0, digest="")
        digest = hashlib.sha256()
        for path, fn in self.files:
            code, stdout, seconds = self.call(
                ["attribute", "--checkpoint", str(common.FIXTURE_DIR),
                 "--file", str(path)])
            result.seconds += seconds
            digest.update(stdout.encode())
            try:
                problem = (f"{path.name}: {self.last_error}" if code != 0
                           else self._check(path, fn, stdout))
            except MALFORMED as exc:
                problem = f"{path.name}: malformed attribution dump: {exc!r}"
            if problem:
                result.problems.append(problem)
                result.failed += 1
        result.digest = digest.hexdigest()
        return result

    @staticmethod
    def _check(path: Path, fn: gen.LongFunction, stdout: str) -> str | None:
        dumps = json.loads(stdout)
        if len(dumps) != 1:
            return f"{path.name}: {len(dumps)} dumps for one function"
        dump = dumps[0]
        if dump["function_id"] != f"{path.name}:1:{fn.name}":
            return f"{path.name}: unexpected function id {dump['function_id']}"
        scores = np.asarray(dump["token_scores"], dtype=float)
        if scores.shape != (STREAM_CAPACITY,) or not np.all(np.isfinite(scores)):
            return f"{path.name}: token scores are not {STREAM_CAPACITY} finite values"
        content = min(fn.payload_tokens, MAX_PAYLOAD) + 2
        if scores[0] != 0.0 or np.any(scores[content - 1:] != 0.0):
            return f"{path.name}: a special token has a nonzero score"
        lines = {int(k): v for k, v in dump["line_scores"].items()}
        if abs(math.fsum(lines.values()) - math.fsum(scores)) > LINE_SUM_TOLERANCE:
            return f"{path.name}: line scores do not sum to the token scores"
        root = dump["root_cause"]
        line_count = fn.source.count("\n") + 1
        if dump["target_class"] == 0:
            if root is not None:
                return f"{path.name}: benign prediction has a root cause"
        elif root is None:
            return f"{path.name}: no root cause for a vulnerable prediction"
        elif not (2 <= root["line"] <= line_count and root["line"] in lines
                  and root["score"] == lines[root["line"]]
                  and (root["fallback_used"] or root["score"] > 0.0)):
            return f"{path.name}: root-cause line {root['line']} is not admissible"
        return None


class TrainPaper(Workload):
    """``train`` at paper widths on generated 300-510-token functions."""

    name = "train-paper"
    throughput = "train_samples_per_s"
    setup_kind = "dataset"
    epochs = 2
    train_seed = 7  # the config's seed, which also fixes the split

    def prepare(self) -> str:
        self.data = self.work / "train.jsonl"
        self.records = gen.make_train_set(self.data, self.seed)
        self.functions = len(self.records)
        self.config = self.work / "paper.cfg"
        gen.write_config(self.config, embed_dim=768, gcn_dim=512,
                         gcn_layers=2, num_classes=11, embed_weight=0.5,
                         graph_weight=0.5, epochs=self.epochs,
                         learning_rate=6e-6, batch_size=8,
                         seed=self.train_seed, optimizer="adam", min_count=1)
        self.train_samples = len(split(self.records, self.train_seed).train)
        return common.sha256_files([self.data, self.config])

    def setup_target(self) -> Path:
        return self.data

    def run_pass(self, index: int) -> PassResult:
        out = self.work / f"train-out-{index}"
        shutil.rmtree(out, ignore_errors=True)
        code, _, seconds = self.call(
            ["train", "--config", str(self.config), "--data", str(self.data),
             "--out", str(out)])
        result = PassResult(seconds=seconds,
                            items=self.train_samples * self.epochs,
                            attempted=1, failed=0, digest="")
        try:
            problem = (f"train {self.last_error}" if code != 0
                       else self._check(out, result))
        except MALFORMED as exc:
            problem = f"malformed training output: {exc!r}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problem:
            result.problems.append(problem)
            result.failed = 1
        return result

    def _check(self, out: Path, result: PassResult) -> str | None:
        log = [json.loads(line) for line in
               (out / "log.jsonl").read_text(encoding="utf-8").splitlines()]
        if len(log) != self.epochs:
            return f"log has {len(log)} epochs, expected {self.epochs}"
        for entry in log:
            for key in ("train_loss", "val_loss"):
                if entry[key] is None or not math.isfinite(entry[key]):
                    return f"epoch {entry['epoch']}: {key} is {entry[key]}"
        digest = hashlib.sha256((out / "log.jsonl").read_bytes())
        with np.load(out / "params.npz") as params:
            for name in sorted(params.files):
                values = params[name]
                if not np.all(np.isfinite(values)):
                    return f"parameter {name} is not finite"
                digest.update(name.encode() + values.tobytes())
        result.digest = digest.hexdigest()
        result.details = {"final_train_loss": log[-1]["train_loss"]}
        return None


WORKLOADS = {w.name: w for w in (ScanTriage, ExplainLong, TrainPaper)}
