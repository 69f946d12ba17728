"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import ROOT, use_checkout_source, spec

use_checkout_source()

from perfbench import workloads  # noqa: E402
from perfbench.host import compare_hosts  # noqa: E402
from perfbench.tracer import Span, Tracer, self_times  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOAD_REASONS = {
    "train_proposed": "Table I's time-per-epoch column",
    "eval_bim": "attack dominated",
    "serve_classify": "serving batcher and prediction cache",
    "train_proposed_w2": "only workload for repro.parallel",
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=600, check=False,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_committed_benchmark_json_matches_spec():
    with open(spec.benchmark_json_path(), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()


def test_benchmark_json_follows_the_contract():
    bench = spec.benchmark_json()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for path in bench["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))
    assert len(json.dumps(bench)) < 64 * 1024


def test_benchmark_json_records_each_workload_reason():
    whys = {w["name"]: w["why"] for w in spec.benchmark_json()["workloads"]}
    assert set(whys) == set(WORKLOAD_REASONS)
    for name, phrase in WORKLOAD_REASONS.items():
        assert phrase in whys[name]


def test_every_per_layer_metric_names_what_it_moves():
    end_to_end = {m["name"] for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        for moved, workload in metric["moves"]:
            assert moved in end_to_end
            assert workload in spec.WORKLOAD_NAMES


# ----------------------------------------------------------------------
# inputs from the seed
# ----------------------------------------------------------------------

def test_same_seed_gives_identical_training_inputs():
    first = workloads.TrainWorkload(1, "tiny").setup(5)
    second = workloads.TrainWorkload(1, "tiny").setup(5)
    other = workloads.TrainWorkload(1, "tiny").setup(6)
    for key in ("x_test", "y_test"):
        assert np.array_equal(first[key], second[key])
    assert not np.array_equal(first["x_test"], other["x_test"])
    assert first["losses"] == second["losses"]


def test_same_seed_gives_identical_eval_and_serve_inputs():
    x1, y1 = workloads._eval_examples(7, 16)
    x2, y2 = workloads._eval_examples(7, 16)
    x3, _ = workloads._eval_examples(8, 16)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(x1, x3)

    serve = workloads.ServeWorkload("tiny")
    streams = []
    for seed in (7, 7, 8):
        state = {
            "base": np.arange(4 * 784, dtype=np.float32).reshape(4, 1, 28, 28),
            "rng": np.random.default_rng(seed), "next_id": 0,
        }
        due, ids = serve._stream(state, 500.0, 200)
        streams.append((due, ids, serve._inputs(state, ids)))
    for a, b in zip(streams[0], streams[1]):
        assert np.array_equal(a, b)
    assert not np.array_equal(streams[0][0], streams[2][0])
    repeats = 1 - len(np.unique(streams[0][1])) / len(streams[0][1])
    assert 0.1 < repeats < 0.4


def test_distinct_request_ids_give_distinct_inputs():
    serve = workloads.ServeWorkload("tiny")
    base = np.zeros((2, 1, 28, 28), dtype=np.float32)
    base[1, 0, 5, 5] = 1.0
    inputs = serve._inputs({"base": base}, np.arange(6))
    assert len({x.tobytes() for x in inputs}) == 6
    again = serve._inputs({"base": base}, np.array([4, 4]))
    assert again[0].tobytes() == inputs[4].tobytes() == again[1].tobytes()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    root = Span("a.root", None, 1)
    root.start, root.end = 0.0, 10.0
    child = Span("b.child", root, 1)
    child.start, child.end = 1.0, 4.0
    table = self_times([root, child])
    assert table["a.root"] == [1, 10.0, 7.0]
    assert table["b.child"] == [1, 3.0, 3.0]


def test_tracer_restores_every_wrapped_attribute():
    from repro.autograd import Tensor
    from repro.nn import Module
    from repro.autograd.ops_nn import Conv2d

    before = (
        Module.__dict__["__call__"], Tensor.__dict__["backward"],
        Conv2d.__dict__["forward"],
    )
    with Tracer():
        assert Module.__dict__["__call__"] is not before[0]
    after = (
        Module.__dict__["__call__"], Tensor.__dict__["backward"],
        Conv2d.__dict__["forward"],
    )
    assert after == before


def test_traced_forward_is_bit_identical():
    from repro.autograd import Tensor
    from repro.models import mnist_cnn

    x = np.random.default_rng(0).random((4, 1, 28, 28))
    model = mnist_cnn(seed=0)
    plain = model(Tensor(x)).data
    tracer = Tracer()
    with tracer:
        traced = model(Tensor(x)).data
    assert np.array_equal(plain, traced)
    names = {span.name for span in tracer.spans}
    assert {"nn.call", "nn.model", "autograd.conv2d.fwd"} <= names


def test_host_comparison_names_differences():
    first = {"usable_cores": 2, "blas": "openblas", "numpy": "2.0"}
    second = dict(first, usable_cores=4)
    assert compare_hosts(first, first) == []
    assert compare_hosts(first, second) == [
        "host differs: usable_cores 2 vs 4"
    ]


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_each_workload_completes_tiny_and_emits_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"({metric['better']} is better)" in proc.stdout
    if not trace:
        timings = ("setup_s", "ex_per_s", "latency_p50_ms", "peak_rss_mb")
        assert all(result["metrics"][m]["value"] > 0 for m in timings)


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(spec.benchmark_json_path(), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_bim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
