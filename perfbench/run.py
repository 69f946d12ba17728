#!/usr/bin/env python3
"""Run the repository benchmark.

One workload (from the checkout root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, measures it
for about ``--seconds`` and reports every end-to-end metric.  ``--trace 1``
runs a fixed segment of the workload untraced, then again (from a fresh
set-up with the same seed) under :class:`perfbench.tracer.Tracer`, checks
the two produced identical outputs and reports every per-layer metric.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero when any output check failed.

Every workload, untraced and then traced, with cross-workload checks::

    python3 perfbench/run.py --all [--seed n] [--seconds s]

Other commands: ``--write-spec`` regenerates ``BENCHMARK.json`` from
:mod:`perfbench.spec`; ``--compare A.json B.json`` diffs two result
records written under ``perfbench/results/`` and names every host
difference between them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import RESULTS_DIR, ROOT, use_checkout_source  # noqa: E402
from perfbench import spec  # noqa: E402
from perfbench.host import compare_hosts, host_record  # noqa: E402


def peak_rss_mb() -> tuple:
    """Peak RSS of this process and of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own * 1024 / 1e6, children * 1024 / 1e6  # ru_maxrss is KiB


def _result(correct: bool, attempted: int, failed: int, metrics: dict,
            kind: str) -> dict:
    units = spec.metric_units(kind)
    return {
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _check_lines(checks) -> list:
    return [
        f"  check {'ok  ' if ok else 'FAIL'} {name} ({detail})"
        for name, ok, detail in checks
    ]


# ----------------------------------------------------------------------
# untraced: end-to-end metrics
# ----------------------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float, size: str):
    from perfbench import workloads

    workload = workloads.build(name, size)
    setups, state = [], None
    for rep in range(spec.SETUP_REPEATS):
        started = perf_counter()
        candidate = workload.setup(seed)
        setups.append(perf_counter() - started)
        if rep + 1 < spec.SETUP_REPEATS:
            workload.teardown(candidate)
            del candidate
            gc.collect()
        else:
            state = candidate
    try:
        measured = workload.measure(state, seconds)
    finally:
        workload.teardown(state)
    measured.metrics["setup_s"] = statistics.median(setups)
    own_mb, child_mb = peak_rss_mb()
    measured.metrics["peak_rss_mb"] = own_mb + child_mb
    measured.notes.append(
        f"peak RSS {own_mb:.1f} MB own + {child_mb:.1f} MB largest child"
    )
    error_rate = measured.failed / max(1, measured.attempted)
    lines = [f"workload {name} (untraced, seed {seed}, {workload.dtype})"]
    for entry in spec.END_TO_END:
        metric = entry["name"]
        lines.append(
            f"  {metric:<16} {measured.metrics[metric]:>12.4f} "
            f"{entry['unit']:<6} ({entry['better']} is better) "
            f"{spec.meaning(metric, name)}"
        )
    lines.append(
        f"  error_rate       {error_rate:>12.4f} ratio  "
        f"({measured.failed} failed of {measured.attempted} attempted)"
    )
    lines.append(f"  latency samples  {measured.samples}")
    lines.append(
        "  setup runs (s)   " + ", ".join(f"{s:.3f}" for s in setups)
    )
    lines += [f"  note {note}" for note in measured.notes]
    lines += _check_lines(measured.checks)
    result = _result(
        measured.failed == 0, measured.attempted, measured.failed,
        measured.metrics, "end_to_end",
    )
    extra = {
        "checks": measured.checks, "notes": measured.notes,
        "setup_runs": setups, "samples": measured.samples,
        "outputs": measured.outputs, "dtype": workload.dtype,
    }
    return result, lines, extra


# ----------------------------------------------------------------------
# traced: per-layer metrics
# ----------------------------------------------------------------------

def run_traced(name: str, seed: int, size: str):
    from perfbench import perlayer, workloads
    from perfbench.tracer import Tracer

    workload = workloads.build(name, size)
    state = workload.setup(seed)
    try:
        reference = workload.segment(state)
    finally:
        workload.teardown(state)

    state = workload.setup(seed)
    tracer = Tracer()
    records: list = []
    try:
        with tracer:
            if name == "train_proposed_w2":
                from repro import telemetry

                sink = telemetry.InMemorySink()
                with telemetry.capture(sink=sink):
                    traced = workload.segment(state, tracer)
                records = sink.records
            else:
                traced = workload.segment(state, tracer)
    finally:
        workload.teardown(state)

    layer = perlayer.compute(
        name, tracer.spans, traced, threading.get_ident(), records,
        workers=getattr(workload, "workers", 1),
    )
    metrics = layer["metrics"]
    metrics["bench.trace_overhead_pct"] = (
        (traced["cost"] - reference["cost"]) / reference["cost"] * 100.0
    )
    trace_path = os.path.join(RESULTS_DIR, f"trace-{name}-seed{seed}.jsonl")
    tracer.write(trace_path)

    checks = [(
        "traced outputs equal untraced outputs bit for bit",
        traced["outputs"] == reference["outputs"],
        ", ".join(sorted(traced["outputs"])),
    )]
    if name == "serve_classify":
        checks.append((
            "no traced request failed", traced["failed"] == 0,
            f"{traced['failed']} failed",
        ))
    lines = [
        f"workload {name} (traced, seed {seed}, {workload.dtype}); "
        f"{layer['batches']} workload batches; spans in {trace_path}"
    ]
    total_self = sum(layer["layers"].values()) or 1.0
    lines.append("  layer self time (ms per batch, share of traced self time)")
    for layer_name in spec.LAYERS:
        own = layer["layers"].get(layer_name, 0.0)
        lines.append(
            f"    {layer_name:<9} {own * 1e3 / max(1, layer['batches']):>10.3f} ms"
            f" {100.0 * own / total_self:>6.1f}%"
        )
    if name == "train_proposed_w2":
        lines.append(
            "    (parallel: the parent's wait for its workers, whose own "
            "layers run in other processes)"
        )
    if name == "serve_classify":
        lines.append(
            "    (serving: the generator thread's classify_many time, which "
            "includes its wait for the batcher thread's forwards)"
        )
    for entry in spec.PER_LAYER:
        metric = entry["name"]
        moves = "; ".join(f"{m} on {w}" for m, w in entry["moves"]) or "-"
        lines.append(
            f"  {metric:<31} {metrics[metric]:>12.4f} {entry['unit']:<7} "
            f"({entry['better']} is better) moves: {moves}"
        )
    lines += _cost_model_lines(name, metrics, traced)
    lines += _check_lines(checks)
    failed = sum(1 for _n, ok, _d in checks if not ok)
    result = _result(failed == 0, len(checks), failed, metrics, "per_layer")
    extra = {
        "checks": checks, "dtype": workload.dtype, "trace": trace_path,
        "layers": layer["layers"], "outputs": traced["outputs"],
    }
    return result, lines, extra


def _cost_model_lines(name: str, metrics: dict, traced: dict) -> list:
    """Exact counts, and the training counts beside DESIGN.md's model."""
    lines = [
        "  exact counts: forward passes/batch "
        f"{metrics['autograd.fwd_passes_per_batch']:g}, backward passes/batch "
        f"{metrics['autograd.bwd_passes_per_batch']:g}, attack steps "
        f"{metrics['attacks.steps']:g}, loader batches "
        f"{metrics['data.batches']:g}, served micro-batches "
        f"{metrics['serving.micro_batches']:g}, reduce MB/batch "
        f"{metrics['parallel.reduce_mb']:g}"
    ]
    if name == "serve_classify":
        batches, calls = traced["count_phase"]
        verdict = "matches" if batches == calls else "MISMATCH"
        lines.append(
            f"  count phase: {batches} micro-batches for {calls} calls of "
            f"one new input ({verdict} one micro-batch per call)"
        )
    if name == "train_proposed":
        model = spec.PROPOSED_PASSES
        for kind in ("fwd", "bwd"):
            seen = metrics[f"autograd.{kind}_passes_per_batch"]
            verdict = "matches" if seen == model else "MISMATCH"
            lines.append(
                f"  cost model (DESIGN.md: {spec.COST_MODEL}): proposed "
                f"{kind} passes {seen:g} vs {model} -> {verdict}"
            )
        lines.append(
            "  (the proposed step runs the attack forward+backward, then "
            "clean and adversarial forwards and one backward through both)"
        )
    return lines


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _write_record(name: str, seed: int, trace: int, host: dict,
                  result: dict, extra: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"host": host, "result": result, **extra}, handle,
                  indent=1, default=str)
    return path


def stop_children() -> None:
    """Stop and reap every process this run started.

    Teardown closes the data-parallel workers; any still alive (a set-up
    that raised) are terminated here.  ``multiprocessing.shared_memory``
    also starts a resource-tracker process that by default outlives its
    parent for a few seconds, so it is stopped and waited for too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(name: str, seed: int, seconds: float, trace: int, size: str) -> int:
    use_checkout_source()
    try:
        if trace:
            result, lines, extra = run_traced(name, seed, size)
        else:
            result, lines, extra = run_untraced(name, seed, seconds, size)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        print(f"perfbench: workload {name} raised; no result", file=sys.stderr)
        return 1
    finally:
        stop_children()
    host = host_record(name, seed, extra["dtype"])
    lines.append(
        "  host " + ", ".join(
            f"{key}={host[key]}" for key in (
                "usable_cores", "blas", "blas_threads", "numpy", "python",
                "commit",
            )
        )
    )
    record = _write_record(name, seed, trace, host, result, extra)
    print("\n".join(lines))
    print(f"  record {record}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload untraced, then traced, each in its own process."""
    use_checkout_source()
    failures, results = [], {}
    script = os.path.abspath(__file__)
    for trace in (0, 1):
        for name in spec.WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, script, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--size", size],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
                check=False,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{name} trace={trace} exited {proc.returncode}")
                continue
            results[(name, trace)] = json.loads(lines[-1])
    failures += _cross_checks(results)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perfbench --all: {len(failures)} failure(s)")
    return 1 if failures else 0


def _cross_checks(results: dict) -> list:
    """Checks across workloads of one --all run."""
    from perfbench.workloads import W2_ACC_TOLERANCE

    serial = results.get(("train_proposed", 0))
    parallel = results.get(("train_proposed_w2", 0))
    if serial is None or parallel is None:
        return []
    failures = []
    for metric in ("clean_acc", "robust_acc"):
        a = serial["metrics"][metric]["value"]
        b = parallel["metrics"][metric]["value"]
        ok = abs(a - b) <= W2_ACC_TOLERANCE
        print(
            f"check {'ok  ' if ok else 'FAIL'} train_proposed_w2 {metric} "
            f"{b:.4f} within {W2_ACC_TOLERANCE} of train_proposed {a:.4f}"
        )
        if not ok:
            failures.append(f"train_proposed_w2 {metric} off serial")
    rate_1 = serial["metrics"]["ex_per_s"]["value"]
    rate_2 = parallel["metrics"]["ex_per_s"]["value"]
    print(
        f"scaling efficiency (2 workers): {rate_2:.1f} / {rate_1:.1f} "
        f"ex/s = {rate_2 / rate_1:.3f}"
    )
    return failures


def compare(first_path: str, second_path: str) -> int:
    """Print metric changes between two records and any host difference."""
    with open(first_path, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(second_path, encoding="utf-8") as handle:
        second = json.load(handle)
    differences = compare_hosts(first["host"], second["host"])
    for line in differences:
        print(line)
    if not differences:
        print("hosts match")
    for name, entry in first["result"]["metrics"].items():
        other = second["result"]["metrics"].get(name)
        if other is None:
            continue
        a, b = entry["value"], other["value"]
        change = f"{(b - a) / a * 100:+.1f}%" if a else "n/a"
        print(f"{name:<31} {a:>12.4f} -> {b:>12.4f} {entry['unit']:<7} {change}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (the benchmark's tests)")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json())
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args.seed, args.seconds, args.size)
    if args.workload is None:
        parser.error("--workload, --all, --write-spec or --compare is required")
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.size)


if __name__ == "__main__":
    sys.exit(main())
