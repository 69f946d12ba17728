"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-spec`` regenerates it; a test
checks the committed file matches).  It also records what the JSON file
has no room for: what each end-to-end metric means on each workload, and
which end-to-end metric on which workload each per-layer metric should
move.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from . import ROOT

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

WORKLOADS: List[dict] = [
    {
        "name": "train_proposed",
        "why": "Table I's time-per-epoch column at the paper's settings: "
        "weight-gradient backward, optimizer, DeltaStore and loader work, "
        "with one attack step per batch.",
    },
    {
        "name": "eval_bim",
        "why": "The Table I BIM(10)+BIM(30) robust-accuracy sweep: attack "
        "dominated, backward passes go to the input, no optimizer, delta "
        "store or loader.",
    },
    {
        "name": "serve_classify",
        "why": "The only forward-only, no-grad, small-batch float32 use of "
        "autograd and nn, and the only workload for the serving batcher "
        "and prediction cache.",
    },
    {
        "name": "train_proposed_w2",
        "why": "train_proposed on DataParallelTrainer(num_workers=2): the "
        "only workload for repro.parallel (fork, shared memory, gradient "
        "reduce).",
    },
]

WORKLOAD_NAMES = tuple(w["name"] for w in WORKLOADS)

#: End-to-end metrics.  Every workload reports every one of them, so each
#: is defined per workload in ``meaning``.
END_TO_END: List[dict] = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "meaning": {
            "*": "median of the run's set-ups: data generation, model "
            "build, victim training (eval_bim, serve_classify), service "
            "start, worker fork and the warm-up epoch (train_*)",
        },
    },
    {
        "name": "ex_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
        "meaning": {
            "train_proposed": "training examples per second at batch 128: "
            "epoch size over the median timed epoch; Table I's time per "
            "epoch is the epoch size divided by this",
            "train_proposed_w2": "as train_proposed; divided by "
            "train_proposed's value it is the 2-worker scaling efficiency",
            "eval_bim": "attacked examples per second over the "
            "BIM(10)+BIM(30) sweep",
            "serve_classify": "capacity: requests per second served when "
            "classify_many calls of 256 requests (the service's queue "
            "depth) go back to back (median of the run's timed rounds, "
            "after one untimed round)",
        },
    },
    {
        "name": "latency_p50_ms", "unit": "ms", "better": "lower",
        "bound": 0.25,
        "meaning": {
            "train_proposed": "median time of one training step (batch 128)",
            "train_proposed_w2": "median time of one training step",
            "eval_bim": "median time of one attack iteration over an eval "
            "batch of 256 (attack call time / its step count)",
            "serve_classify": "median latency of one uncached request sent "
            "alone, one call after another (the fixed-rate open loop's "
            "tails are in the notes)",
        },
    },
    {
        "name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2,
        "meaning": {
            "*": "peak resident memory of the benchmark process plus that "
            "of its largest finished child process",
        },
    },
    {
        "name": "clean_acc", "unit": "ratio", "better": "higher",
        "bound": 0.1,
        "meaning": {
            "train_proposed": "clean test accuracy after the warm-up epoch "
            "and three timed epochs",
            "train_proposed_w2": "as train_proposed",
            "eval_bim": "clean accuracy of the victim on the swept examples",
            "serve_classify": "share of served clean requests whose label "
            "is the true class",
        },
    },
    {
        "name": "robust_acc", "unit": "ratio", "better": "higher",
        "bound": 0.25,
        "meaning": {
            "train_proposed": "FGSM (eps 0.05) test accuracy of the same "
            "model as clean_acc",
            "train_proposed_w2": "as train_proposed",
            "eval_bim": "mean of BIM(10) and BIM(30) accuracy (eps 0.05)",
            "serve_classify": "share of served FGSM (eps 0.05) requests whose "
            "label is the true class",
        },
    },
]


def _moves(*pairs) -> List[List[str]]:
    return [list(pair) for pair in pairs]


_AUTOGRAD_MOVES = _moves(
    ("ex_per_s", "train_proposed"), ("ex_per_s", "eval_bim"),
    ("latency_p50_ms", "serve_classify"),
)

#: Per-layer metrics from the traced run.  ``_ms`` metrics are self time
#: per workload batch (training batch, attack batch or served
#: micro-batch).  ``moves`` lists the (end-to-end metric, workload)
#: pairs the layer metric should move.
PER_LAYER: List[dict] = [
    {"name": "data.next_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed"))},
    {"name": "data.batches", "unit": "count", "better": "lower",
     "moves": []},
]
for _op in ("conv2d", "maxpool2d", "relu", "matmul", "loss", "other"):
    for _dir in ("fwd", "bwd"):
        PER_LAYER.append({
            "name": f"autograd.{_op}.{_dir}_ms", "unit": "ms",
            "better": "lower", "moves": _AUTOGRAD_MOVES,
        })
PER_LAYER += [
    {"name": "autograd.engine_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed"),
                     ("ex_per_s", "eval_bim"))},
    {"name": "autograd.conv2d.gflop_s", "unit": "GFLOP/s",
     "better": "higher", "moves": _AUTOGRAD_MOVES},
    {"name": "autograd.fwd_passes_per_batch", "unit": "count",
     "better": "lower", "moves": _AUTOGRAD_MOVES},
    {"name": "autograd.bwd_passes_per_batch", "unit": "count",
     "better": "lower", "moves": _AUTOGRAD_MOVES},
    {"name": "nn.dispatch_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("latency_p50_ms", "serve_classify"))},
    {"name": "optim.step_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed"),
                     ("ex_per_s", "train_proposed_w2"))},
    {"name": "attacks.grad_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "eval_bim"))},
    {"name": "attacks.update_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "eval_bim"))},
    {"name": "attacks.steps", "unit": "count", "better": "lower",
     "moves": _moves(("ex_per_s", "eval_bim"))},
    {"name": "defenses.delta_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed"),
                     ("peak_rss_mb", "train_proposed"))},
    {"name": "defenses.delta_mb", "unit": "MB", "better": "lower",
     "moves": _moves(("peak_rss_mb", "train_proposed"))},
    {"name": "eval.predict_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "eval_bim"))},
    {"name": "parallel.step_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed_w2"))},
    {"name": "parallel.reduce_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed_w2"))},
    {"name": "parallel.reduce_mb", "unit": "MB", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed_w2"))},
    {"name": "parallel.worker_busy_share", "unit": "ratio",
     "better": "higher",
     "moves": _moves(("ex_per_s", "train_proposed_w2"))},
    {"name": "serving.forward_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("latency_p50_ms", "serve_classify"),
                     ("ex_per_s", "serve_classify"))},
    {"name": "serving.batch_size_mean", "unit": "count", "better": "higher",
     "moves": _moves(("latency_p50_ms", "serve_classify"),
                     ("ex_per_s", "serve_classify"))},
    {"name": "serving.queue_wait_ms_p99", "unit": "ms", "better": "lower",
     "moves": _moves(("latency_p50_ms", "serve_classify"),
                     ("ex_per_s", "serve_classify"))},
    {"name": "serving.cache_hit_ratio", "unit": "ratio", "better": "higher",
     "moves": _moves(("latency_p50_ms", "serve_classify"))},
    {"name": "serving.micro_batches", "unit": "count", "better": "lower",
     "moves": _moves(("latency_p50_ms", "serve_classify"))},
    {"name": "runtime.pool_ms", "unit": "ms", "better": "lower",
     "moves": _moves(("ex_per_s", "train_proposed"))},
    {"name": "runtime.workspace_peak_mb", "unit": "MB", "better": "lower",
     "moves": _moves(("peak_rss_mb", "train_proposed"))},
    {"name": "bench.gen_late_ms_p99", "unit": "ms", "better": "lower",
     "moves": []},
    {"name": "bench.trace_overhead_pct", "unit": "%", "better": "lower",
     "moves": []},
]

#: Layers whose self time the traced run reports, in report order.
LAYERS = (
    "data", "autograd", "nn", "optim", "attacks", "defenses", "eval",
    "parallel", "serving", "runtime",
)

#: DESIGN.md's cost model: forward/backward passes per training batch.
COST_MODEL = "Vanilla=1, FGSM-Adv=2, Proposed=2, BIM(k)-Adv=k+1"
PROPOSED_PASSES = 2


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    table = END_TO_END if kind == "end_to_end" else PER_LAYER
    return {m["name"]: m["unit"] for m in table}


def meaning(metric: str, workload: str) -> str:
    """What an end-to-end metric measures on one workload."""
    for entry in END_TO_END:
        if entry["name"] == metric:
            return entry["meaning"].get(workload, entry["meaning"].get("*", ""))
    raise KeyError(metric)


def benchmark_json() -> dict:
    """The content of the repository's ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w["name"], "why": w["why"]} for w in WORKLOADS
        ],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {key: m[key] for key in ("name", "unit", "better")}
            for m in PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def benchmark_json_path() -> str:
    return os.path.join(ROOT, "BENCHMARK.json")


def write_benchmark_json() -> str:
    path = benchmark_json_path()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_benchmark_json())
    return path
