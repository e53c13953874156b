"""vulngraph benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload scan-triage --seed 1 --seconds 38 --trace 0

Run from the root of a checkout. The workload's inputs are generated
from ``--seed`` under ``perfbench/_work/`` and removed at exit. Passes
over the inputs repeat until another pass would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, the tracing overhead, and
whether the spans reconcile with the untraced time; the spans are
written to ``perfbench/_traces/``.

Human-readable lines come first; the last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from tracing import Layer, Tracer, aggregate, percentile_ms, span_cost, under

#: Set-up probes per run; setup_s is their median.
SETUP_PROBES = 7
#: Scan output quality against the planted truth, printed with the metrics.
QUALITY = ("cls_accuracy", "rootcause_hit_rate", "loc_iou_mean")
#: Largest accepted |spans - span cost - untraced time| / untraced time.
RECONCILE_SHARE = 0.20

_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vulngraph.cli
if sys.argv[2] == "checkpoint":
    from vulngraph.trainer import load_checkpoint
    load_checkpoint(sys.argv[3])
else:
    from vulngraph.corpus import load_dataset
    load_dataset(sys.argv[3])
print(time.perf_counter() - start)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-triage", "explain-long", "train-paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(kind: str, target: Path) -> float:
    """Median over fresh interpreters of import plus checkpoint/dataset load."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(common.SRC), kind, str(target)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library bundled with numpy."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    commit = None
    if (common.ROOT / ".git").exists():  # a plain checkout has no history
        try:
            done = subprocess.run(["git", "-C", str(common.ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": openblas, "blas_threads": blas_threads(),
        "pinned_env": common.PINNED_THREADS,
        "git_commit": commit,
        "source_sha256": common.sha256_files(
            sorted(common.SRC.rglob("*.py"))),
        "fixture_sha256": common.check_fixture(),
    }


def run_passes(workload, seconds: float, traced: bool):
    """Untraced passes, or (untraced, traced) pairs, until the time is up."""
    untraced, traced_passes = [], []
    tracer = Tracer() if traced else None
    started = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        untraced.append(workload.run_pass(index))
        index += 1
        if tracer is not None:
            workload.tracer = tracer
            tracer.install()
            try:
                traced_passes.append(workload.run_pass(index))
            finally:
                tracer.uninstall()
                workload.tracer = None
            index += 1
        last = time.perf_counter() - round_start
        if time.perf_counter() - started + last > seconds:
            return untraced, traced_passes, tracer


def end_to_end(untraced, setup_s: float) -> dict:
    attempted = sum(p.attempted for p in untraced)
    failed = sum(p.failed for p in untraced)
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(p.items / p.seconds
                                         for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(workload, untraced, traced, tracer) -> dict:
    spans = tracer.records()
    layers = aggregate(spans)
    n = len(traced)

    def layer(name):
        return layers.get(name, Layer())

    def calls(name):
        return layer(name).calls / n

    def total(name):
        return layer(name).total / n

    def self_s(name):
        return layer(name).self_time / n

    def ratio(num, den):
        return num / den if den else 0.0

    # scan: the analyze phase of each scan runs on the pool's threads.
    scans = [s for s in spans if s.name == "scanner.scan"]
    analyze_wall = report_write = 0.0
    for scan in scans:
        inside = [s for s in spans if s.name == "scanner.analyze"
                  and scan.start <= s.start and s.end <= scan.end]
        extract = sum(s.duration for s in spans
                      if s.name == "scanner.extract_functions"
                      and s.parent == scan.id)
        wall = (max(s.end for s in inside) - min(s.start for s in inside)
                if inside else 0.0)
        analyze_wall += wall
        report_write += scan.duration - extract - wall
    functions = workload.functions
    forwards = layer("model.forward_nodes").calls
    details = traced[-1].details
    metrics = {
        "scanner.extract_functions.s": total("scanner.extract_functions"),
        "scanner.analyze.calls": calls("scanner.analyze"),
        "scanner.analyze.self_s": self_s("scanner.analyze"),
        "scanner.analyze.p50_ms": percentile_ms(
            layer("scanner.analyze").durations, 50),
        "scanner.analyze.p98_ms": percentile_ms(
            layer("scanner.analyze").durations, 98),
        "scanner.report_write.s": report_write / n,
        "scanner.pool_busy_ratio": ratio(
            layer("scanner.analyze").total, workload.jobs * analyze_wall),
        "scanner.attributed_ratio": ratio(
            under(spans, "attribution.attribute_tokens", "scanner.analyze"),
            layer("scanner.analyze").calls),
        "scanner.unanalyzable": details.get("unanalyzable", 0),
        "scanner.scan.cls_accuracy": details.get("cls_accuracy", 0.0),
        "scanner.scan.rootcause_hit_rate": details.get("rootcause_hit_rate", 0.0),
        "scanner.scan.loc_iou_mean": details.get("loc_iou_mean", 0.0),
        "lexer.lex.calls": calls("lexer.lex"),
        "lexer.lex.s": total("lexer.lex"),
        "lexer.tokenize.calls": calls("lexer.tokenize"),
        "lexer.tokenize.s": total("lexer.tokenize"),
        "lexer.tokenize_per_function": ratio(calls("lexer.tokenize"), functions),
        "lexer.encode.s": total("lexer.encode"),
        "semgraph.build_graph.calls": calls("semgraph.build_graph"),
        "semgraph.build_graph.s": total("semgraph.build_graph"),
        "semgraph.build_graph_per_function": ratio(
            calls("semgraph.build_graph"), functions),
        "semgraph.dense_mb": calls("semgraph.build_graph") * 2 * 512 ** 2 * 8 / 1e6,
        "trainer.prepare_sample.calls": calls("trainer.prepare_sample"),
        "trainer.prepare_sample.self_s": self_s("trainer.prepare_sample"),
        "trainer.train.s": total("trainer.train"),
        "trainer.Adam.step.calls": calls("trainer.Adam.step"),
        "trainer.Adam.step.s": total("trainer.Adam.step"),
        "trainer.evaluate_samples.s": total("trainer.evaluate_samples"),
        "trainer.load_checkpoint.s": total("trainer.load_checkpoint"),
        "trainer.save_checkpoint.s": total("trainer.save_checkpoint"),
        "model.forward.calls": calls("model.forward"),
        "model.forward.self_s": self_s("model.forward"),
        "model.forward.p50_ms": percentile_ms(layer("model.forward").durations, 50),
        "model.forward_nodes.self_s": self_s("model.forward_nodes"),
        "model.embed.s": total("model.embed"),
        "model.gcn_forward.s": total("model.gcn_forward"),
        "model.pooled_embedding.s": total("model.pooled_embedding"),
        "model.heads.s": total("model.heads"),
        "tensor.from_op.calls": calls("tensor.from_op"),
        "tensor.tape_nodes_per_forward": ratio(layer("tensor.from_op").calls,
                                               forwards),
        "tensor.matmul.calls": calls("tensor.matmul"),
        "tensor.matmul.s": total("tensor.matmul"),
        "tensor.matmul.gflop": layer("tensor.matmul").notes / n / 1e9,
        "tensor.backward.calls": calls("tensor.backward"),
        "tensor.backward.s": total("tensor.backward"),
        "objectives.focal_loss.s": total("objectives.focal_loss"),
        "objectives.mse_loss.s": total("objectives.mse_loss"),
        "attribution.attribute_tokens.calls": calls("attribution.attribute_tokens"),
        "attribution.attribute_tokens.self_s": self_s(
            "attribution.attribute_tokens"),
        "attribution.attribute_tokens.p50_ms": percentile_ms(
            layer("attribution.attribute_tokens").durations, 50),
        "attribution.forwards_per_call": ratio(
            under(spans, "model.forward", "attribution.attribute_tokens"),
            layer("attribution.attribute_tokens").calls),
        "attribution.select_root_cause.s": total("attribution.select_root_cause"),
        "attribution.root_cause_fallbacks":
            layer("attribution.select_root_cause").notes / n,
        "corpus.load_dataset.s": total("corpus.load_dataset"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }

    # Tracing overhead, and whether the spans account for the untraced time.
    plain = sum(p.seconds for p in untraced[:n])
    with_spans = sum(p.seconds for p in traced)
    top = sum(s.duration for s in spans if s.name == "cli.main"
              and s.parent is None)
    estimate = top - len(spans) * span_cost()
    metrics.update({
        "trace.spans": len(spans) / n,
        "trace.overhead_s": (with_spans - plain) / n,
        "trace.overhead_ratio": (with_spans - plain) / plain,
        "trace.reconcile_error": abs(estimate - plain) / plain,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_threads()
    os.environ.pop("VULNGRAPH_SEED", None)  # the configs carry the seed
    common.use_checkout_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    from workloads import WORKLOADS
    work = common.HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        record = {"provenance": provenance(args),
                  "inputs_sha256": workload.prepare()}
        setup_s = (None if args.trace else
                   setup_seconds(workload.setup_kind, workload.setup_target()))
        workload.warm_up()
        untraced, traced, tracer = run_passes(workload, args.seconds,
                                              bool(args.trace))
        passes = untraced + traced
        digests = sorted({p.digest for p in passes})
        problems = [q for p in passes for q in p.problems]
        if len(digests) != 1:
            problems.append(f"passes disagree: {len(digests)} output digests")
        values = (per_layer(workload, untraced, traced, tracer) if args.trace
                  else end_to_end(untraced, setup_s))
        if args.trace:
            tracer.write(common.HERE / "_traces" /
                         f"{args.workload}-seed{args.seed}.jsonl.gz")
            # Reported, not part of `correct`: host-speed drift between the
            # untraced and the traced pass alone can exceed the share.
            record["reconciled"] = (values["trace.reconcile_error"]
                                    <= RECONCILE_SHARE)
            record["reconcile_share"] = RECONCILE_SHARE
            if not record["reconciled"]:
                print(f"benchmark: spans do not reconcile with the untraced "
                      f"time within {RECONCILE_SHARE:.0%}", file=sys.stderr)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        record.update({
            "passes": len(passes),
            "pass_seconds": [round(p.seconds, 4) for p in passes],
            "outputs_sha256": digests,
            "problems": problems[:20],
            "ops_failed_ratio": failed / attempted,
            "details": untraced[-1].details,
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark: no value for metric(s) {missing}")
    print(json.dumps(record, sort_keys=True))
    for m in wanted:
        label = (f"{m['name']} ({workload.throughput})"
                 if m["name"] == "items_per_s" else m["name"])
        print(f"{label:<42} {values[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        quality = {k: v for k, v in record["details"].items()
                   if k in QUALITY}
        for name, value in {"ops_failed_ratio": record["ops_failed_ratio"],
                            **quality}.items():
            print(f"{name:<42} {value:>14.6g} ratio")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
