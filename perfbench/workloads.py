"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload has three parts:

* ``setup(seed)`` builds everything a measurement needs and returns it;
  the runner repeats it to report a median ``setup_s``;
* ``measure(state, seconds)`` runs the workload for about ``seconds``
  and returns the end-to-end metrics, the output checks and the samples;
* ``segment(state)`` runs a fixed amount of the same work and returns
  its outputs (losses, accuracies, served labels) so the traced run can
  be compared with an untraced one bit for bit.

Inputs come only from the seed.  The victim model that ``eval_bim`` and
``serve_classify`` attack and serve is part of the workload definition:
it is trained during set-up from the fixed ``VICTIM_SEED``, and the
run's seed draws the examples it is evaluated and served on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

EPSILON = 0.25            # digits training budget (repro.data.dataset_epsilon)
EVAL_EPSILON = 0.05       # budget of every accuracy-under-attack figure
VICTIM_SEED = 0
BATCH = 128
EVAL_BATCH = 256
ACC_EPOCHS = 3            # timed epochs before the accuracy snapshot
W2_ACC_TOLERANCE = 0.1    # |w2 - serial| accuracy allowed by --all

# Fixed offered rate, requests/s: a few percent of capacity, so the p50 is
# the per-request path (batching window, forward, hand-offs) and not a
# queue, which would magnify every slow spell of a shared host.
SERVE_RATE = 125.0
SERVE_REPEAT = 0.25       # share of requests repeating an earlier input
SERVE_REPEAT_WINDOW = 512
SERVE_COUNT_CALLS = 16    # traced exact count: calls of one new input each
SERVE_SEGMENTS = 6        # open-loop, lone-request and capacity rounds each
MAX_BATCH = 32
# Capacity calls fill InferenceService's default queue (depth 256), so the
# batcher runs eight micro-batches back to back instead of waking per call.
CAPACITY_CALL = 8 * MAX_BATCH

SIZES = {
    "full": {
        "train_per_class": 103,   # 1030 examples: 8 full batches/epoch
        "test_per_class": 50,
        "victim_per_class": 128,
        "victim_epochs": 2,
        "eval_examples": 256,
        "serve_base": 256,
        "capacity_requests": 2048,
        "lone_calls": 200,
        "segment_requests": 400,
    },
    "tiny": {
        "train_per_class": 13,
        "test_per_class": 4,
        "victim_per_class": 13,
        "victim_epochs": 1,
        "eval_examples": 16,
        "serve_base": 16,
        "capacity_requests": 64,
        "lone_calls": 4,
        "segment_requests": 24,
    },
}


@dataclass
class Measurement:
    """What one measured phase produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    samples: int = 0
    outputs: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _tail(samples, what: str) -> str:
    """Tail percentiles with the number of samples beyond each."""
    count = len(samples)
    parts = [
        f"p{q} {percentile(samples, q) * 1e3:.2f} ms "
        f"({count - math.ceil(q / 100.0 * count)} beyond)"
        for q in (90, 99)
    ]
    return f"{count} {what} samples, " + ", ".join(parts)


def _set_precision(dtype: str) -> None:
    # Process-wide default, so helper threads (the serving batcher) and
    # forked workers run at the workload's precision too.
    from repro.runtime import set_default_policy

    set_default_policy(dtype)


def _accuracy(model, x, y, specs) -> Dict[str, float]:
    from repro.eval import RobustnessEvaluator

    evaluator = RobustnessEvaluator.from_specs(
        specs, epsilon=EVAL_EPSILON, batch_size=EVAL_BATCH
    )
    result = evaluator.evaluate(model, x, y)
    model.zero_grad()
    return result


class _StepClock:
    """Loader proxy that reads the clock once per delivered batch."""

    def __init__(self, loader) -> None:
        self.loader = loader
        self.marks: List[float] = []

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        marks = self.marks
        for batch in self.loader:
            marks.append(perf_counter())
            yield batch
        marks.append(perf_counter())

    def steps(self) -> List[float]:
        """Seconds from each batch's delivery to the next request's end."""
        marks, self.marks = self.marks, []
        return [b - a for a, b in zip(marks, marks[1:])]


# ----------------------------------------------------------------------
# train_proposed and train_proposed_w2
# ----------------------------------------------------------------------

class TrainWorkload:
    """The paper's method on mnist_cnn, batch 128, float64, digits."""

    dtype = "float64"

    def __init__(self, workers: int, size: str = "full") -> None:
        self.workers = workers
        self.size = SIZES[size]

    def setup(self, seed: int) -> dict:
        from repro.data import DataLoader, load_dataset
        from repro.defenses import build_trainer
        from repro.models import mnist_cnn
        from repro.parallel import DataParallelTrainer

        _set_precision(self.dtype)
        train, test = load_dataset(
            "digits",
            train_per_class=self.size["train_per_class"],
            test_per_class=self.size["test_per_class"],
            seed=seed,
        )
        model = mnist_cnn(seed=seed)
        trainer = build_trainer("proposed", model, epsilon=EPSILON)
        if self.workers > 1:
            trainer = DataParallelTrainer(trainer, num_workers=self.workers)
        loader = _StepClock(
            DataLoader(train, batch_size=BATCH, rng=seed, drop_last=True)
        )
        warmup_loss = trainer.train_epoch(loader)
        loader.steps()
        x_test, y_test = test.arrays()
        return {
            "seed": seed, "model": model, "trainer": trainer,
            "loader": loader, "x_test": x_test, "y_test": y_test,
            "losses": [warmup_loss],
        }

    def teardown(self, state: dict) -> None:
        close = getattr(state["trainer"], "close", None)
        if close is not None:
            close()

    def _accuracies(self, state: dict) -> Tuple[float, float]:
        result = _accuracy(
            state["model"], state["x_test"], state["y_test"],
            ("original", "fgsm"),
        )
        state["model"].train()
        return result["original"], result["fgsm"]

    def untrained_robust_acc(self, state: dict) -> float:
        from repro.models import mnist_cnn

        fresh = mnist_cnn(seed=state["seed"])
        return _accuracy(
            fresh, state["x_test"], state["y_test"], ("fgsm",)
        )["fgsm"]

    def _epoch(self, state: dict) -> Tuple[float, List[float]]:
        """One timed epoch: its seconds and its step times."""
        loader = state["loader"]
        started = perf_counter()
        loss = state["trainer"].train_epoch(loader)
        elapsed = perf_counter() - started
        state["losses"].append(loss)
        return elapsed, loader.steps()

    def measure(self, state: dict, seconds: float) -> Measurement:
        out = Measurement()
        epoch_size = len(state["loader"]) * BATCH
        times, steps = [], []
        accuracies = None
        while True:
            elapsed, epoch_steps = self._epoch(state)
            times.append(elapsed)
            steps.extend(epoch_steps)
            out.attempted += len(epoch_steps)
            if len(times) == ACC_EPOCHS:
                accuracies = self._accuracies(state)
            if len(times) >= ACC_EPOCHS and sum(times) + elapsed > seconds:
                break
        out.metrics["ex_per_s"] = epoch_size / float(np.median(times))
        out.metrics["latency_p50_ms"] = percentile(steps, 50) * 1e3
        out.metrics["clean_acc"], out.metrics["robust_acc"] = accuracies
        out.samples = len(steps)
        out.outputs["losses"] = list(state["losses"])
        out.outputs["step_ms"] = [round(t * 1e3, 1) for t in steps]
        self._checks(state, out, accuracies)
        out.notes.append(
            f"timed epochs (s) {', '.join(f'{t:.2f}' for t in times)} of "
            f"{epoch_size} examples; " + _tail(steps, "step")
        )
        return out

    def _checks(self, state, out: Measurement, accuracies) -> None:
        losses = state["losses"]
        out.check(
            "training losses are finite",
            all(math.isfinite(v) for v in losses),
            f"losses {losses}",
        )
        before = self.untrained_robust_acc(state)
        out.check(
            "trained robust_acc beats the untrained model's",
            accuracies[1] > before,
            f"trained {accuracies[1]:.4f} vs untrained {before:.4f}",
        )

    def segment(self, state: dict, tracer=None) -> dict:
        """ACC_EPOCHS epochs, then the accuracy snapshot (untraced)."""
        wall = 0.0
        for _ in range(ACC_EPOCHS):
            elapsed, _steps = self._epoch(state)
            wall += elapsed
        if tracer is not None:
            tracer.active = False
        clean, robust = self._accuracies(state)
        return {
            "cost": wall,
            "batches": ACC_EPOCHS * len(state["loader"]),
            "outputs": {
                "losses": list(state["losses"]),
                "clean_acc": clean, "robust_acc": robust,
            },
            "delta_peak_bytes": getattr(
                getattr(state["trainer"], "delta_store", None),
                "peak_bytes", 0,
            ),
        }


# ----------------------------------------------------------------------
# victim model shared by eval_bim and serve_classify
# ----------------------------------------------------------------------

def train_victim(size: dict):
    """mnist_cnn trained with vanilla Adam on a fixed-seed digits split."""
    from repro.data import DataLoader, load_dataset
    from repro.defenses import build_trainer
    from repro.models import mnist_cnn

    train, _ = load_dataset(
        "digits", train_per_class=size["victim_per_class"],
        test_per_class=1, seed=VICTIM_SEED,
    )
    model = mnist_cnn(seed=VICTIM_SEED)
    trainer = build_trainer("vanilla", model, epsilon=EPSILON)
    loader = DataLoader(train, batch_size=BATCH, rng=VICTIM_SEED)
    for _ in range(size["victim_epochs"]):
        trainer.train_epoch(loader)
    model.eval()
    model.zero_grad()
    return model


def _eval_examples(seed: int, count: int):
    """``count`` held-out digits drawn by the seed."""
    from repro.data import load_test_split

    per_class = -(-count // 10)
    x, y = load_test_split("digits", test_per_class=per_class, seed=seed).arrays()
    pick = np.random.default_rng(seed).permutation(len(x))[:count]
    return np.ascontiguousarray(x[pick]), y[pick]


# ----------------------------------------------------------------------
# eval_bim
# ----------------------------------------------------------------------

EVAL_SPECS = ("original", "bim:num_steps=10", "bim:num_steps=30")


class EvalWorkload:
    """BIM(10)+BIM(30) robust-accuracy sweep on a trained mnist_cnn."""

    dtype = "float64"

    def __init__(self, size: str = "full") -> None:
        self.size = SIZES[size]

    def setup(self, seed: int) -> dict:
        from repro.eval import RobustnessEvaluator

        _set_precision(self.dtype)
        model = train_victim(self.size)
        x, y = _eval_examples(seed, self.size["eval_examples"])
        evaluator = RobustnessEvaluator.from_specs(
            EVAL_SPECS, epsilon=EVAL_EPSILON, batch_size=EVAL_BATCH
        )
        samples: List[Tuple[float, int]] = []
        for spec, builder in list(evaluator.attack_builders.items()):
            evaluator.attack_builders[spec] = _timed_builder(builder, samples)
        return {
            "model": model, "x": x, "y": y, "evaluator": evaluator,
            "samples": samples,
        }

    def teardown(self, state: dict) -> None:
        pass

    def _sweep(self, state: dict) -> Tuple[float, Dict[str, float]]:
        started = perf_counter()
        result = state["evaluator"].evaluate(state["model"], state["x"], state["y"])
        elapsed = perf_counter() - started
        state["model"].zero_grad()
        return elapsed, result

    def measure(self, state: dict, seconds: float) -> Measurement:
        out = Measurement()
        attacked = (len(EVAL_SPECS) - 1) * len(state["x"])
        rates, results = [], []
        spent = 0.0
        while True:
            elapsed, result = self._sweep(state)
            spent += elapsed
            rates.append(attacked / elapsed)
            results.append(result)
            if spent + elapsed > seconds:
                break
        per_step = [t / steps for t, steps in state["samples"]]
        out.attempted += len(per_step)
        first = results[0]
        bims = [first[spec] for spec in EVAL_SPECS[1:]]
        out.metrics["ex_per_s"] = float(np.median(rates))
        out.metrics["latency_p50_ms"] = percentile(per_step, 50) * 1e3
        out.metrics["clean_acc"] = first["original"]
        out.metrics["robust_acc"] = float(np.mean(bims))
        out.samples = len(per_step)
        out.outputs["accuracy"] = first
        for spec, value in zip(EVAL_SPECS[1:], bims):
            out.check(
                f"clean accuracy >= {spec} accuracy",
                first["original"] >= value,
                f"{first['original']:.4f} vs {value:.4f}",
            )
        out.check(
            "repeated sweeps give identical accuracies",
            all(r == first for r in results),
            f"{len(results)} sweeps",
        )
        out.notes.append(
            f"sweeps {len(results)} over {len(state['x'])} examples; "
            + _tail(per_step, "attack-step")
        )
        return out

    def segment(self, state: dict, tracer=None) -> dict:
        state["samples"].clear()
        elapsed, result = self._sweep(state)
        return {
            "cost": elapsed,
            "batches": len(state["samples"]),
            "outputs": {"accuracy": result},
        }


def _timed_builder(builder, samples):
    """Wrap an attack factory so each ``generate`` call is timed."""

    def build(model):
        attack = builder(model)
        if attack is None:
            return None
        generate = attack.generate
        steps = int(getattr(attack, "num_steps", 1))

        def timed_generate(x, y):
            started = perf_counter()
            result = generate(x, y)
            samples.append((perf_counter() - started, steps))
            return result

        attack.generate = timed_generate
        return attack

    return build


# ----------------------------------------------------------------------
# serve_classify
# ----------------------------------------------------------------------

class ServeWorkload:
    """InferenceService.classify_many under open-loop Poisson traffic.

    A fixed-rate open loop gives the served labels, accuracies and
    latency tails; lone uncached requests sent one after another give the
    median latency; back-to-back calls of CAPACITY_CALL requests give the
    capacity.  The three alternate through the run, so a slow spell of
    the host moves a few rounds of each rather than all of one.  The
    median comes from lone requests, not the open loop: between open-loop
    arrivals the host goes idle, and on a shared host the wake-up that
    follows is what varies most from run to run.
    """

    dtype = "float32"

    def __init__(self, size: str = "full") -> None:
        self.size = SIZES[size]

    def setup(self, seed: int) -> dict:
        from repro.attacks import build_attack
        from repro.serving import InferenceService

        _set_precision(self.dtype)
        model = train_victim(self.size)
        x, y = _eval_examples(seed, self.size["serve_base"])
        x = x.astype(np.float32)
        adversarial = build_attack("fgsm", model, epsilon=EVAL_EPSILON).generate(x, y)
        model.zero_grad()
        base = np.concatenate([x, adversarial.astype(np.float32)])
        service = InferenceService(
            model, input_shape=x.shape[1:], max_batch_size=MAX_BATCH,
            name="mnist_cnn",
        )
        rng = np.random.default_rng(seed)
        state = {
            "seed": seed, "model": model, "service": service, "base": base,
            "labels": np.concatenate([y, y]), "rng": rng, "next_id": 0,
        }
        # Warm the batcher thread's kernels and buffers on throwaway ids.
        ids = self._fresh_ids(state, 2 * MAX_BATCH)
        service.classify_many(self._inputs(state, ids))
        return state

    def teardown(self, state: dict) -> None:
        state["service"].close()

    # -- request stream -------------------------------------------------
    @staticmethod
    def _fresh_ids(state: dict, count: int) -> np.ndarray:
        ids = np.arange(state["next_id"], state["next_id"] + count)
        state["next_id"] += count
        return ids

    @staticmethod
    def _inputs(state: dict, ids: np.ndarray) -> np.ndarray:
        """Input ``id``: base example ``id % B``, pixel 0 nudged by ``id // B``.

        With distinct base examples, distinct ids give distinct bytes (so
        distinct cache keys) and equal ids equal bytes; the nudge (a
        multiple of 2**-10) leaves the example's class intact.
        """
        base = state["base"]
        count = len(base)
        x = base[ids % count].copy()
        x.reshape(len(ids), -1)[:, 0] += (ids // count) * np.float32(2.0 ** -10)
        return x

    def _stream(self, state: dict, rate: float, count: int):
        """Poisson due times and input ids; about a quarter repeat."""
        rng = state["rng"]
        due = np.cumsum(rng.exponential(1.0 / rate, size=count))
        repeat = rng.random(count) < SERVE_REPEAT
        repeat[0] = False
        fresh = self._fresh_ids(state, int((~repeat).sum()))
        ids = np.empty(count, dtype=np.int64)
        ids[~repeat] = fresh
        for k in np.flatnonzero(repeat):
            ids[k] = ids[rng.integers(max(0, k - SERVE_REPEAT_WINDOW), k)]
        return due, ids

    @staticmethod
    def _open_loop(service, inputs: np.ndarray, due: np.ndarray):
        """Send each request when due; time it from when it was due.

        One generator thread (this one) sends every request that has
        fallen due in one ``classify_many`` call, so a slow call delays
        the requests behind it and that wait is counted.
        """
        from repro.serving import ServingError

        count = len(due)
        latency = np.full(count, np.inf)
        late = np.zeros(count)
        labels = np.full(count, -1, dtype=np.int64)
        failed = 0
        origin = perf_counter() + 0.002
        i = 0
        while i < count:
            now = perf_counter() - origin
            if due[i] > now:
                time.sleep(due[i] - now)
                continue
            j = int(np.searchsorted(due, now, side="right"))
            late[i:j] = (perf_counter() - origin) - due[i:j]
            try:
                predictions = service.classify_many(inputs[i:j])
            except ServingError:
                failed += j - i
            else:
                latency[i:j] = (perf_counter() - origin) - due[i:j]
                labels[i:j] = [p.label for p in predictions]
            i = j
        return latency, late, labels, failed

    def _fixed_phase(self, state: dict, count: int) -> dict:
        due, ids = self._stream(state, SERVE_RATE, count)
        inputs = self._inputs(state, ids)
        service = state["service"]
        before = service.metrics()["cache"]
        latency, late, labels, failed = self._open_loop(service, inputs, due)
        after = service.metrics()["cache"]
        return {
            "ids": ids, "latency": latency, "late": late,
            "labels": labels, "failed": failed,
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        }

    def _lone_phase(self, state: dict, calls: int) -> Tuple[np.ndarray, int]:
        """Latencies of ``calls`` lone uncached requests and their micro-batches.

        Each call waits for its one request, so nothing can coalesce and
        the count is exact: one micro-batch per call.
        """
        service = state["service"]
        before = service.metrics()["batcher"]["batches"]
        latency = np.empty(calls)
        for k in range(calls):
            inputs = self._inputs(state, self._fresh_ids(state, 1))
            started = perf_counter()
            service.classify_many(inputs)
            latency[k] = perf_counter() - started
        batches = service.metrics()["batcher"]["batches"] - before
        return latency, batches

    def _capacity(self, state: dict) -> float:
        """Requests/s of back-to-back classify_many calls of CAPACITY_CALL."""
        count = self.size["capacity_requests"]
        _due, ids = self._stream(state, SERVE_RATE, count)
        inputs = self._inputs(state, ids)
        service = state["service"]
        started = perf_counter()
        for i in range(0, count, CAPACITY_CALL):
            service.classify_many(inputs[i:i + CAPACITY_CALL])
        return count / (perf_counter() - started)

    def _expected_labels(self, state: dict, ids: np.ndarray) -> Dict[int, int]:
        unique = np.unique(ids)
        inputs = self._inputs(state, unique)
        model = state["model"]
        labels = np.concatenate([
            model.predict(inputs[i:i + MAX_BATCH])
            for i in range(0, len(unique), MAX_BATCH)
        ])
        return dict(zip(unique.tolist(), labels.tolist()))

    def _score(self, state: dict, phase: dict, out: Measurement) -> None:
        ids, labels = phase["ids"], phase["labels"]
        count = len(state["base"])
        truth = state["labels"][ids % count]
        adversarial = (ids % count) >= count // 2
        served = labels >= 0
        out.metrics["clean_acc"] = float(
            np.mean(labels[~adversarial & served] == truth[~adversarial & served])
        )
        out.metrics["robust_acc"] = float(
            np.mean(labels[adversarial & served] == truth[adversarial & served])
        )
        expected = self._expected_labels(state, ids)
        wrong = sum(
            1 for i, label in zip(ids.tolist(), labels.tolist())
            if label >= 0 and expected[i] != label
        )
        out.check(
            "every served label equals model.predict on the same input",
            wrong == 0, f"{wrong} of {int(served.sum())} differ",
        )

    def measure(self, state: dict, seconds: float) -> Measurement:
        out = Measurement()
        per_segment = max(16, int(SERVE_RATE * seconds * 0.5 / SERVE_SEGMENTS))
        self._capacity(state)  # untimed: pools the batch shapes it uses
        segments, lone, rounds = [], [], []
        batches = 0
        for _ in range(SERVE_SEGMENTS):
            segments.append(self._fixed_phase(state, per_segment))
            latency, count = self._lone_phase(state, self.size["lone_calls"])
            lone.append(latency)
            batches += count
            rounds.append(self._capacity(state))
        lone = np.concatenate(lone)
        calls = len(lone)
        phase = {
            key: np.concatenate([segment[key] for segment in segments])
            for key in ("ids", "latency", "late", "labels")
        }
        for key in ("failed", "hits"):
            phase[key] = sum(segment[key] for segment in segments)
        latency = phase["latency"]
        out.attempted += len(latency) + calls
        out.failed += phase["failed"]
        out.metrics["latency_p50_ms"] = percentile(lone, 50) * 1e3
        out.samples = calls
        self._score(state, phase, out)
        out.metrics["ex_per_s"] = float(np.median(rounds))
        out.attempted += (len(rounds) + 1) * self.size["capacity_requests"]
        out.outputs["labels"] = phase["labels"].tolist()
        out.notes.append(
            f"fixed rate {SERVE_RATE:.0f}/s: {len(latency)} requests in "
            f"{SERVE_SEGMENTS} segments, "
            f"{phase['failed']} failed, cache hits {phase['hits']}, "
            f"generator late p99 {percentile(phase['late'], 99) * 1e3:.2f} "
            "ms; " + _tail(latency, "request")
        )
        out.notes.append(
            f"lone requests: {_tail(lone, 'latency')}; {batches} "
            f"micro-batches for {calls} calls"
        )
        out.notes.append(
            "capacity rounds (requests/s) "
            + ", ".join(f"{r:.0f}" for r in rounds)
        )
        return out

    def segment(self, state: dict, tracer=None) -> dict:
        phase = self._fixed_phase(state, self.size["segment_requests"])
        _latency, batches = self._lone_phase(state, SERVE_COUNT_CALLS)
        if tracer is not None:
            tracer.active = False
        latency = phase["latency"]
        return {
            "cost": percentile(latency, 50),
            "batches": None,
            "outputs": {"labels": phase["labels"].tolist()},
            "latency": latency,
            "late": phase["late"],
            "failed": phase["failed"],
            "hit_ratio": phase["hits"] / max(1, phase["hits"] + phase["misses"]),
            "count_phase": (batches, SERVE_COUNT_CALLS),
        }


def build(name: str, size: str = "full"):
    """The workload object for a benchmark workload name."""
    if name == "train_proposed":
        return TrainWorkload(workers=1, size=size)
    if name == "train_proposed_w2":
        return TrainWorkload(workers=2, size=size)
    if name == "eval_bim":
        return EvalWorkload(size)
    if name == "serve_classify":
        return ServeWorkload(size)
    raise KeyError(f"unknown workload {name!r}")
