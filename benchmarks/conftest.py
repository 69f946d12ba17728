"""Shared fixtures for the benchmark harness.

Scale control
-------------
``REPRO_BENCH_SCALE`` selects the fidelity of the paper-artefact benches:

* ``smoke``  — seconds per bench; shapes not meaningful (CI sanity).
* ``medium`` — default; minutes per bench; paper shapes reproduce.
* ``paper``  — full fidelity (200/class, 80 epochs).

The expensive part — training the defended classifiers — is shared through
session-scoped :class:`~repro.experiments.ClassifierPool` fixtures, so the
figure and table benches reuse the same trained models.

Rendered artefacts (tables, curves) are written to ``benchmarks/results/``
and printed, so a benchmark run regenerates every row/series the paper
reports.
"""

import os

import pytest

from repro.experiments import ClassifierPool, paper_scale, smoke_scale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_config(dataset: str):
    """Resolve the benchmark ExperimentConfig from REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "medium")
    if scale == "paper":
        return paper_scale(dataset)
    if scale == "medium":
        return paper_scale(
            dataset, train_per_class=150, test_per_class=40, epochs=60
        )
    if scale == "smoke":
        return smoke_scale(dataset)
    raise ValueError(
        f"REPRO_BENCH_SCALE must be smoke|medium|paper, got {scale!r}"
    )


def _results_dir() -> str:
    """``REPRO_BENCH_RESULTS`` when set, else ``benchmarks/results/``."""
    return os.environ.get("REPRO_BENCH_RESULTS", "").strip() or RESULTS_DIR


def save_artifact(name: str, text: str) -> str:
    """Write a rendered artefact under the results directory (see
    :func:`_results_dir`) and return its path."""
    directory = _results_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def save_bench(name: str, metrics: dict, context: dict = None) -> str:
    """Write a structured ``<name>.bench.json`` record beside the ``.txt``.

    ``metrics`` maps metric name to ``(value, unit, direction)`` where
    direction is ``"higher"``/``"lower"``/``None`` (see
    :mod:`repro.telemetry.bench`).  ``REPRO_BENCH_RESULTS`` redirects the
    record to another directory — CI writes fresh records to a scratch
    dir and diffs them against the committed baselines here via
    ``repro bench diff`` instead of overwriting them.
    """
    from repro.telemetry.bench import BenchRecord

    record = BenchRecord(name, context=context)
    for metric, (value, unit, direction) in metrics.items():
        record.add(metric, value, unit=unit, direction=direction)
    return record.save(_results_dir())


@pytest.fixture(scope="session")
def digits_pool():
    """Trained-classifier pool for the digit dataset (shared by benches)."""
    return ClassifierPool(bench_config("digits"))


@pytest.fixture(scope="session")
def fashion_pool():
    """Trained-classifier pool for the fashion dataset."""
    return ClassifierPool(bench_config("fashion"))
