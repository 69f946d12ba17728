"""Per-layer metrics of a traced segment.

Every ``_ms`` figure is self time per workload batch: training batch
(``train_*``), attack batch (``eval_bim``) or served micro-batch
(``serve_classify``).  Layers a workload never enters report 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .spec import PER_LAYER
from .tracer import Span, layer_self_times, self_times
from .workloads import percentile

MB = 1e6


def _parallel(records: List[dict], workers: int) -> Dict[str, float]:
    """parallel.* from the program's own telemetry records."""
    steps = [r for r in records if r.get("type") == "span" and r["name"] == "parallel"]
    counters = {}
    for record in records:
        if record.get("type") == "metrics":
            counters = record.get("counters", {})
    if not steps:
        return {}
    total = sum(r["duration"] for r in steps)
    reduce_s = sum(
        r["children"].get("reduce", {}).get("total", 0.0) for r in steps
    )
    busy = 0.0
    for record in steps:
        for path, entry in record["children"].items():
            head, _, phase = path.partition(".")
            if head.startswith("w") and phase in ("forward", "backward"):
                busy += entry["total"]
    return {
        "parallel.step_ms": total / len(steps) * 1e3,
        "parallel.reduce_ms": reduce_s / len(steps) * 1e3,
        "parallel.reduce_mb": counters.get("parallel.reduce_bytes", 0.0)
        / len(steps) / MB,
        "parallel.worker_busy_share": busy / (workers * total) if total else 0.0,
    }


def compute(
    workload: str,
    spans: List[Span],
    segment: dict,
    main_thread: int,
    records: Optional[List[dict]] = None,
    workers: int = 1,
) -> Dict[str, object]:
    """Per-layer metrics plus the layer self-time table of one segment."""
    table = self_times(spans)

    def own(*names: str) -> float:
        return sum(table.get(name, (0, 0.0, 0.0))[2] for name in names)

    def calls(name: str) -> int:
        return int(table.get(name, (0, 0.0, 0.0))[0])

    forwards = [
        s for s in spans
        if s.name == "nn.call" and s.parent is None and s.thread != main_thread
    ]
    if workload == "serve_classify":
        batches = len(forwards)
    else:
        batches = segment["batches"]
    per_batch = 1e3 / max(1, batches)

    metrics: Dict[str, float] = {m["name"]: 0.0 for m in PER_LAYER}
    metrics["data.next_ms"] = own("data.next") * per_batch
    if workload.startswith("train"):
        metrics["data.batches"] = float(segment["batches"])
    conv_flops = 0.0
    for name, (count, _total, self_s) in table.items():
        parts = name.split(".")
        if parts[0] == "autograd" and len(parts) == 3:
            metrics[f"autograd.{parts[1]}.{parts[2]}_ms"] = self_s * per_batch
    for span in spans:
        if span.name.startswith("autograd.conv2d.") and span.extra:
            conv_flops += span.extra
    conv_s = own("autograd.conv2d.fwd", "autograd.conv2d.bwd")
    metrics["autograd.conv2d.gflop_s"] = conv_flops / conv_s / 1e9 if conv_s else 0.0
    metrics["autograd.engine_ms"] = own("autograd.engine") * per_batch
    metrics["autograd.fwd_passes_per_batch"] = calls("nn.model") / max(1, batches)
    metrics["autograd.bwd_passes_per_batch"] = calls("autograd.engine") / max(1, batches)
    metrics["nn.dispatch_ms"] = own("nn.call", "nn.model") * per_batch
    metrics["optim.step_ms"] = own("optim.step") * per_batch
    metrics["attacks.grad_ms"] = own("attacks.grad") * per_batch
    metrics["attacks.update_ms"] = own("attacks.update") * per_batch
    metrics["attacks.steps"] = float(calls("attacks.update"))
    metrics["defenses.delta_ms"] = own("defenses.delta") * per_batch
    metrics["defenses.delta_mb"] = segment.get("delta_peak_bytes", 0) / MB
    metrics["eval.predict_ms"] = own("eval.predict") * per_batch
    metrics["runtime.pool_ms"] = own("runtime.pool") * per_batch
    metrics.update(_parallel(records or [], workers))

    from repro.runtime import get_workspace

    peaks = [get_workspace().high_water_bytes]
    peaks += [s.extra[1] for s in forwards if s.extra]
    metrics["runtime.workspace_peak_mb"] = max(peaks) / MB

    if workload == "serve_classify":
        durations = [s.duration for s in forwards]
        sizes = [s.extra[0] for s in forwards if s.extra]
        forward_s = float(np.median(durations)) if durations else 0.0
        metrics["serving.forward_ms"] = float(np.mean(durations)) * 1e3 if durations else 0.0
        metrics["serving.batch_size_mean"] = float(np.mean(sizes)) if sizes else 0.0
        metrics["serving.queue_wait_ms_p99"] = (
            percentile(segment["latency"], 99) - forward_s
        ) * 1e3
        metrics["serving.cache_hit_ratio"] = segment["hit_ratio"]
        metrics["serving.micro_batches"] = float(segment["count_phase"][0])
        metrics["bench.gen_late_ms_p99"] = percentile(segment["late"], 99) * 1e3

    return {
        "metrics": metrics,
        "table": table,
        "layers": layer_self_times(table),
        "batches": batches,
    }
