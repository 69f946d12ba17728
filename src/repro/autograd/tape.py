"""Compiled trace-and-replay execution engine over the eager autograd.

Adversarial training repeats one static-shape forward/backward program
thousands of times: every epochwise-adv step rebuilds the very same op
graph and re-dispatches every kernel.  :class:`CompiledStep` removes that
overhead by *tracing* one eager step — recording each op's function, ctx,
input/output slots and ``needs_input_grad`` mask into a linear tape — and
then *replaying* the recorded program directly on subsequent calls:

* graph construction, ``Tensor`` wrapping and dispatch are skipped — the
  replay loop calls each recorded ``forward``/``backward`` staticmethod
  straight on raw arrays addressed by slot index;
* backward nodes whose gradients are never consumed are dead-code
  eliminated (and their ``needs_input_grad`` bits flipped off, which the
  ops honour to skip whole GEMMs);
* chains of recorded elementwise ops (add/sub/mul/neg/relu — the
  FGSM/BIM delta-update idiom) are fused into single composite kernels
  running in-place on buffers pinned from the
  :class:`repro.runtime.workspace` pool via a
  :class:`~repro.runtime.workspace.WorkspaceLease`;
* gradient accumulation buffers and the root seed are leased once per
  tape and reused across every replay.

Correctness model
-----------------
Tracing *is* an eager run plus observation, so the first call per input
signature is eager by construction.  Replay re-executes the same
``forward``/``backward`` functions on the same ctx objects in the same
order, with gradient contributions accumulated in the engine's exact
order and dtype rules — replayed outputs and gradients are bit-for-bit
equal to eager (the equivalence suite pins this on every zoo model and
attack spec).

Shape/dtype/policy guards key a small LRU of compiled variants; anything
the tape cannot prove it can replay (data-dependent control flow that
hides an input from the graph, dropout's fresh RNG mask, graphs rooted
outside the traced step) raises :class:`TapeUnsupported` and the step
permanently falls back to eager — transparently, with a telemetry
counter so ``repro report`` shows what happened.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .. import telemetry as tel
from ..utils.lru import LRUCache
from ..runtime import (
    accum_dtype,
    compute_dtype,
    get_workspace,
    hotpaths_enabled,
)
from .engine import (
    Function,
    Tensor,
    active_tracer,
    is_grad_enabled,
    set_grad_enabled,
    set_tracer,
)
from .ops_basic import Add, Mul, Neg, Sub, unbroadcast
from .ops_nn import ReLU

__all__ = [
    "CompiledStep",
    "StepResult",
    "TapeUnsupported",
    "NON_REPLAYABLE",
]

#: Ops whose forward is freshly random every call — replaying a recorded
#: ctx would freeze the randomness, silently changing semantics.
NON_REPLAYABLE = frozenset({"DropoutMask"})

#: How many traces without a single cache hit before a step concludes its
#: signatures churn every call (e.g. a shrinking early-stop batch) and
#: permanently falls back to eager.
_THRASH_LIMIT = 8

# Source tags: where a replayed op's positional argument comes from.
_SLOT = 0    # output of a recorded op: values[payload]
_INPUT = 1   # a step input: inputs[payload]
_LEAF = 2    # a leaf parameter: payload.data (refetched — optimizers rebind)
_CONST = 3   # frozen at trace time: payload as-is

#: Sentinel marking the carried value inside a fused chain member's args.
_CARRIER = object()

#: Elementwise Function classes the fuser understands, by kernel tag.
_FUSABLE = {Add: "add", Sub: "sub", Mul: "mul", Neg: "neg", ReLU: "relu"}


class TapeUnsupported(RuntimeError):
    """The traced step cannot be replayed faithfully; fall back to eager."""


class StepResult(NamedTuple):
    """What one compiled (or fallen-back) step call produced.

    Attributes
    ----------
    outputs:
        Raw arrays, one per value returned by the wrapped function (a
        lone return value counts as a 1-tuple).  ``outputs[0]`` is the
        scalar loss the backward pass was seeded from.
    input_grads:
        Gradients of the loss w.r.t. the step inputs named in
        ``grad_inputs``, in that order (``None`` where no gradient
        reached the input), in the policy's accumulation dtype.
    compiled:
        ``True`` when this call was served by a tape replay, ``False``
        when it ran eagerly (trace call or fallback).
    """

    outputs: tuple
    input_grads: tuple
    compiled: bool


class _Tracer:
    """Record hook installed into the engine for the duration of one step."""

    __slots__ = ("applies", "backwards", "poisoned")

    def __init__(self) -> None:
        self.applies: list = []     # (cls, ctx, args, kwargs, out_tensor)
        self.backwards: list = []   # ctx objects, in engine execution order
        self.poisoned: str = ""     # non-empty -> trace cannot be replayed

    def record_apply(self, cls, ctx, args, kwargs, out, requires) -> None:
        self.applies.append((cls, ctx, tuple(args), dict(kwargs), out))

    def record_backward(self, ctx) -> None:
        self.backwards.append(ctx)

    def poison(self, reason: str) -> None:
        """Mark the in-flight trace untrustworthy without aborting it.

        Layers with out-of-graph side effects (e.g. batch-norm running
        statistics) call this so the step still completes eagerly but the
        recorded tape is discarded instead of replayed.
        """
        if not self.poisoned:
            self.poisoned = str(reason)


class _ForwardOp:
    """One replayed forward call: ``values[out_slot] = forward(ctx, *args)``."""

    __slots__ = ("forward", "ctx", "sources", "kwargs", "out_slot")

    def __init__(self, forward, ctx, sources, kwargs, out_slot) -> None:
        self.forward = forward
        self.ctx = ctx
        self.sources = sources
        self.kwargs = kwargs
        self.out_slot = out_slot


class _BackwardOp:
    """One replayed backward call plus where each gradient is routed.

    ``targets`` holds ``(pos, kind, key, single)`` tuples: gradient
    ``pos`` of the op's return tuple goes to slot ``key`` (``kind`` 0) or
    to accumulator ``key`` (``kind`` 1, a leaf parameter or step input);
    ``single`` marks the slot's only contribution, stored by reference
    without touching the accumulation machinery.  (They are built as
    ``(pos, kind, key)`` triples and tagged once contribution counts are
    known, after dead-code elimination.)
    """

    __slots__ = ("backward", "ctx", "out_slot", "targets")

    def __init__(self, backward, ctx, out_slot, targets) -> None:
        self.backward = backward
        self.ctx = ctx
        self.out_slot = out_slot
        self.targets = targets


class _FusedMember:
    """One op of a fused elementwise chain (forward and backward views)."""

    __slots__ = (
        "kind", "srcs", "carrier_pos", "arg_shapes", "targets",
        "mask", "snap", "snapped", "scratch",
    )

    def __init__(self, kind, srcs, carrier_pos, arg_shapes, targets) -> None:
        self.kind = kind
        self.srcs = srcs                  # sources; _CARRIER at carrier_pos
        self.carrier_pos = carrier_pos    # None for the chain head
        self.arg_shapes = arg_shapes
        self.targets = targets            # external (pos, kind, key, single)
        self.mask = None                  # relu: bool mask buffer
        self.snap = None                  # mid-mul: carrier-input snapshot
        self.snapped = None               # value of snap for this replay
        self.scratch: dict = {}           # per-target-pos gradient scratch


class _FusedForward:
    """A fused chain's forward: members run in-place on one leased buffer."""

    __slots__ = ("members", "out_slot", "buf")

    def __init__(self, members, out_slot, buf) -> None:
        self.members = members
        self.out_slot = out_slot
        self.buf = buf


class _FusedBackward:
    """A fused chain's backward: one composite kernel at the tail's slot."""

    __slots__ = ("members", "out_slot", "gradbuf")

    def __init__(self, members, out_slot, gradbuf) -> None:
        self.members = members
        self.out_slot = out_slot
        self.gradbuf = gradbuf


def _into_unary(fn, a, out):
    """``fn(a) -> out`` in place when bitwise-safe, else allocate."""
    if out is not None and a.shape == out.shape and a.dtype == out.dtype:
        return fn(a, out=out)
    return fn(a)


def _into_binary(fn, a, b, out):
    """``fn(a, b) -> out`` in place when bitwise-safe, else allocate.

    The equal-shape / equal-dtype case — every chain-internal edge — is
    decided with attribute compares alone; ``result_type`` and
    ``broadcast_shapes`` only run for broadcasting external operands.
    """
    if out is None:
        return fn(a, b)
    osh = out.shape
    if a.shape == osh and b.shape == osh:
        od = out.dtype
        if (a.dtype == od and b.dtype == od) or np.result_type(a, b) == od:
            return fn(a, b, out=out)
        return fn(a, b)
    if (
        np.result_type(a, b) == out.dtype
        and np.broadcast_shapes(np.shape(a), np.shape(b)) == osh
    ):
        return fn(a, b, out=out)
    return fn(a, b)


def _stash(buf, value):
    """Copy ``value`` into the dedicated ``buf`` (or a fresh array).

    Used where a fused backward would otherwise hand out a reference to a
    live carry buffer that a later chain member mutates in place.
    """
    if buf is not None and buf.shape == value.shape and buf.dtype == value.dtype:
        np.copyto(buf, value)
        return buf
    return value.copy()


class _Bound:
    """Coerced step inputs: raw arrays, with Tensor wrappers built lazily.

    Replays only touch :attr:`raws`; deferring the ``Tensor`` wrapping to
    the first :attr:`args` access keeps the cache-hit path free of graph
    object construction.
    """

    __slots__ = ("raws", "_grad_inputs", "_args")

    def __init__(self, raws: tuple, grad_inputs: tuple) -> None:
        self.raws = raws
        self._grad_inputs = grad_inputs
        self._args = None

    @property
    def args(self) -> tuple:
        args = self._args
        if args is None:
            grad_inputs = self._grad_inputs
            args = self._args = tuple(
                Tensor(raw, requires_grad=index in grad_inputs)
                if raw.dtype.kind == "f" else raw
                for index, raw in enumerate(self.raws)
            )
        return args


class _TapeProgram:
    """One compiled variant: the replayable forward/backward program."""

    __slots__ = (
        "num_slots", "forward_entries", "backward_entries", "values",
        "root_slot", "root_seed", "output_sources", "acc_entries",
        "grad_input_accs", "lease", "_accbufs", "_accum", "_hot",
        "_param_accs",
    )

    def __init__(self, num_slots, forward_entries, backward_entries,
                 root_slot, root_seed, output_sources, acc_entries,
                 grad_input_accs, lease) -> None:
        self.num_slots = num_slots
        self.forward_entries = forward_entries
        self.backward_entries = backward_entries
        self.values: list = [None] * num_slots
        self.root_slot = root_slot
        self.root_seed = root_seed
        self.output_sources = output_sources
        self.acc_entries = acc_entries          # ("param", Tensor)|("input", i)
        self.grad_input_accs = grad_input_accs  # acc index or None, per grad input
        self.lease = lease
        # Lazily-leased per-(kind, key) accumulation buffers.
        self._accbufs: dict = {}
        # The variant signature pins the policy, so the accumulation dtype
        # and hotpaths flag are constants for this program's lifetime.
        self._accum = np.dtype(accum_dtype())
        self._hot = hotpaths_enabled()
        self._param_accs = tuple(
            (index, payload)
            for index, (kind, payload) in enumerate(acc_entries)
            if kind == "param"
        )

    def release(self) -> None:
        """Return every pinned buffer to the workspace pool."""
        self.lease.release()

    # -- value resolution ------------------------------------------------
    def _resolve(self, source, inputs):
        tag, payload = source
        if tag == _SLOT:
            return self.values[payload]
        if tag == _INPUT:
            return inputs[payload]
        if tag == _LEAF:
            return payload.data
        return payload

    # -- forward ---------------------------------------------------------
    def _run_forward(self, inputs) -> None:
        values = self.values
        for entry in self.forward_entries:
            if type(entry) is _ForwardOp:
                # _resolve, unrolled: per-argument dispatch on the source
                # tag without a method call per operand.
                args = []
                for tag, payload in entry.sources:
                    if tag == _SLOT:
                        args.append(values[payload])
                    elif tag == _INPUT:
                        args.append(inputs[payload])
                    elif tag == _LEAF:
                        args.append(payload.data)
                    else:
                        args.append(payload)
                values[entry.out_slot] = entry.forward(
                    entry.ctx, *args, **entry.kwargs
                )
            else:
                self._run_fused_forward(entry, inputs)

    def _run_fused_forward(self, entry, inputs) -> None:
        buf = entry.buf
        cur = None
        for m in entry.members:
            kind = m.kind
            if kind == "relu":
                x = cur if m.carrier_pos == 0 else self._resolve(m.srcs[0], inputs)
                mask = m.mask
                if mask is not None and x.shape == mask.shape:
                    np.greater(x, 0, out=mask)
                else:
                    mask = x > 0
                # max(x, 0), matching the eager kernel bit for bit.
                if x.shape == buf.shape and x.dtype == buf.dtype:
                    cur = np.maximum(x, 0, out=buf)
                else:
                    cur = np.maximum(x, 0)
            elif kind == "neg":
                x = cur if m.carrier_pos == 0 else self._resolve(m.srcs[0], inputs)
                cur = _into_unary(np.negative, x, buf)
            else:
                a = cur if m.srcs[0] is _CARRIER else self._resolve(m.srcs[0], inputs)
                b = cur if m.srcs[1] is _CARRIER else self._resolve(m.srcs[1], inputs)
                if kind == "mul":
                    if m.snap is not None:
                        # Snapshot the carrier input before it is overwritten;
                        # the backward needs it for the external operand's grad.
                        m.snapped = _stash(
                            m.snap, a if m.carrier_pos == 0 else b
                        )
                    cur = _into_binary(np.multiply, a, b, buf)
                elif kind == "add":
                    cur = _into_binary(np.add, a, b, buf)
                else:  # sub
                    cur = _into_binary(np.subtract, a, b, buf)
        self.values[entry.out_slot] = cur

    # -- backward --------------------------------------------------------
    def _accumulate(self, store, key, bufkey, g) -> None:
        cur = store[key]
        if cur is None:
            # First contribution: stored by reference, exactly like eager.
            store[key] = g
            return
        if cur.dtype == g.dtype:
            buf = self._accbufs.get(bufkey)
            if buf is None or buf.shape != cur.shape or buf.dtype != cur.dtype:
                buf = self.lease.acquire(cur.shape, cur.dtype)
                self._accbufs[bufkey] = buf
            np.add(cur, g, out=buf)
            store[key] = buf
        else:
            # Mixed dtypes promote, matching the eager cold path.
            store[key] = cur + g

    def _run_backward(self, inputs):
        gslots: list = [None] * self.num_slots
        accvals: list = [None] * len(self.acc_entries)
        gslots[self.root_slot] = self.root_seed
        accumulate = self._accumulate
        ndarray = np.ndarray
        for entry in self.backward_entries:
            g = gslots[entry.out_slot]
            if g is None:
                continue
            if type(entry) is _BackwardOp:
                grads = entry.backward(entry.ctx, g)
                if not isinstance(grads, tuple):
                    grads = (grads,)
                for pos, kind, key, single in entry.targets:
                    gi = grads[pos]
                    if gi is None:
                        continue
                    if type(gi) is not ndarray:
                        gi = np.asarray(gi)
                    if kind == 0:
                        if single:
                            gslots[key] = gi
                        else:
                            accumulate(gslots, key, (0, key), gi)
                    elif single:
                        accvals[key] = gi
                    else:
                        accumulate(accvals, key, (1, key), gi)
            else:
                self._run_fused_backward(entry, gslots, accvals, inputs)
        return accvals

    def _run_fused_backward(self, entry, gslots, accvals, inputs) -> None:
        gradbuf = entry.gradbuf
        carry = gslots[entry.out_slot]
        for m in reversed(entry.members):
            kind = m.kind
            cp = m.carrier_pos
            for pos, tkind, tkey, single in m.targets:
                shape = m.arg_shapes[pos]
                scratch = m.scratch.get(pos)
                if kind == "add" or (kind == "sub" and pos == 0):
                    # Eager returns grad_output itself (unbroadcast is the
                    # identity for equal shapes); copy so later in-place
                    # carry updates cannot corrupt the stored gradient.
                    gi = _stash(scratch, carry) if carry.shape == shape \
                        else unbroadcast(carry, shape)
                elif kind == "sub":  # pos == 1
                    gi = unbroadcast(
                        _into_unary(np.negative, carry, scratch), shape
                    )
                elif kind == "mul":
                    other_pos = 1 - pos
                    if cp is not None and other_pos == cp:
                        other = m.snapped
                    else:
                        other = self._resolve(m.srcs[other_pos], inputs)
                    gi = unbroadcast(
                        _into_binary(np.multiply, carry, other, scratch), shape
                    )
                elif kind == "relu":
                    mask = m.mask
                    if (
                        scratch is not None
                        and carry.shape == scratch.shape
                        and carry.dtype == scratch.dtype
                    ):
                        gi = np.multiply(carry, mask, out=scratch)
                    else:
                        gi = _into_binary(np.multiply, carry, mask, scratch)
                else:  # neg
                    gi = _into_unary(np.negative, carry, scratch)
                if tkind == 0:
                    if single:
                        gslots[tkey] = gi
                    else:
                        self._accumulate(gslots, tkey, (0, tkey), gi)
                elif single:
                    accvals[tkey] = gi
                else:
                    self._accumulate(accvals, tkey, (1, tkey), gi)
            if cp is None:
                break  # chain head: nothing upstream inside the chain
            if kind == "mul":
                other = self._resolve(m.srcs[1 - cp], inputs)
                carry = _into_binary(np.multiply, carry, other, gradbuf)
            elif kind == "relu":
                mask = m.mask
                if carry.shape == gradbuf.shape and carry.dtype == gradbuf.dtype:
                    carry = np.multiply(carry, mask, out=gradbuf)
                else:
                    carry = _into_binary(np.multiply, carry, mask, gradbuf)
            elif kind == "neg" or (kind == "sub" and cp == 1):
                carry = _into_unary(np.negative, carry, gradbuf)
            # add / sub with carrier on the left pass the carry through.

    # -- leaf finalisation ----------------------------------------------
    def _finalize_param(self, tensor, g, bufkey) -> None:
        """Fold an accumulated gradient into ``tensor.grad``, engine-style."""
        existing = tensor.grad
        if existing is None:
            accbufs = self._accbufs
            if g.dtype == self._accum and g is accbufs.get(bufkey):
                # Multi-contribution gradient already summed into a pooled
                # accumulation buffer in the accum dtype: donate the buffer
                # instead of copying, exactly as the eager engine donates
                # its own accumulation buffers.  The next replay leases a
                # fresh one, so the donated array stays valid for as long
                # as the caller keeps ``tensor.grad`` alive.
                del accbufs[bufkey]
                self.lease.donate(g)
                tensor.grad = g
            else:
                tensor.grad = g.astype(self._accum, copy=True)
        elif self._hot and (
            existing.dtype == g.dtype
            or np.result_type(existing.dtype, g.dtype) == existing.dtype
        ):
            np.add(existing, g, out=existing)
        else:
            tensor.grad = existing + g

    # -- entry point -----------------------------------------------------
    def replay(self, bound: _Bound) -> StepResult:
        inputs = bound.raws
        previous = is_grad_enabled()
        set_grad_enabled(True)
        try:
            self._run_forward(inputs)
        finally:
            set_grad_enabled(previous)
        accvals = self._run_backward(inputs)
        for index, payload in self._param_accs:
            g = accvals[index]
            if g is not None:
                self._finalize_param(payload, g, (1, index))
        acc = self._accum
        input_grads = tuple(
            None if index is None or accvals[index] is None
            else accvals[index].astype(acc, copy=True)
            for index in self.grad_input_accs
        )
        outputs = []
        for tag, payload in self.output_sources:
            if tag == _SLOT:
                # Slot buffers are overwritten by the next replay; hand the
                # caller a private copy, as eager hands out fresh arrays.
                outputs.append(self.values[payload].copy())
            elif tag == _INPUT:
                outputs.append(inputs[payload])
            elif tag == _LEAF:
                outputs.append(payload.data)
            else:
                outputs.append(payload)
        return StepResult(tuple(outputs), input_grads, True)


def _build_program(tracer, bound, outputs, grad_inputs, consume, fuse):
    """Compile one traced step into a :class:`_TapeProgram`.

    Raises :class:`TapeUnsupported` when the trace cannot be replayed
    faithfully; the caller falls back to eager.
    """
    applies = tracer.applies
    if tracer.poisoned:
        raise TapeUnsupported(tracer.poisoned)
    if not applies:
        raise TapeUnsupported("traced step recorded no autograd ops")
    for cls, _ctx, _args, _kwargs, _out in applies:
        if cls.__name__ in NON_REPLAYABLE:
            raise TapeUnsupported(
                f"{cls.__name__} re-randomises every call and cannot be replayed"
            )

    # ---- slot assignment ------------------------------------------------
    num_slots = len(applies)
    slot_of: dict = {}     # id(out Tensor) -> slot index
    ctx_to_op: dict = {}   # id(ctx) -> op index
    for index, (_cls, ctx, _args, _kwargs, out) in enumerate(applies):
        slot_of[id(out)] = index
        ctx_to_op[id(ctx)] = index

    # ---- input identity map --------------------------------------------
    input_of: dict = {}
    for index, (arg, raw) in enumerate(zip(bound.args, bound.raws)):
        input_of[id(arg)] = index
        input_of[id(raw)] = index
        if isinstance(arg, Tensor):
            input_of[id(arg.data)] = index

    def source_of(obj):
        if isinstance(obj, Tensor):
            slot = slot_of.get(id(obj))
            if slot is not None:
                return (_SLOT, slot)
            index = input_of.get(id(obj))
            if index is None:
                index = input_of.get(id(obj.data))
            if index is not None:
                return (_INPUT, index)
            if obj.requires_grad:
                return (_LEAF, obj)
            return (_CONST, obj.data)
        if isinstance(obj, np.ndarray):
            index = input_of.get(id(obj))
            if index is not None:
                return (_INPUT, index)
        return (_CONST, obj)

    op_sources = [
        tuple(source_of(a) for a in args) for _cls, _ctx, args, _kw, _out in applies
    ]

    # ---- outputs --------------------------------------------------------
    output_sources = []
    for out in outputs:
        src = source_of(out)
        if src[0] == _CONST:
            raise TapeUnsupported(
                "a step output was computed outside the autograd graph; "
                "replay would freeze it"
            )
        output_sources.append(src)
    output_sources = tuple(output_sources)
    if output_sources[0][0] != _SLOT:
        raise TapeUnsupported("the loss output is not produced by a traced op")
    root_slot = output_sources[0][1]
    root_data = outputs[0].data

    # ---- every input must be visible to the graph -----------------------
    seen_inputs = {
        payload
        for sources in op_sources
        for tag, payload in sources
        if tag == _INPUT
    }
    seen_inputs.update(
        payload for tag, payload in output_sources if tag == _INPUT
    )
    for index in range(len(bound.args)):
        if index not in seen_inputs:
            raise TapeUnsupported(
                f"step input {index} never reached the autograd graph; the "
                "step depends on it through opaque (frozen) computation"
            )

    # ---- backward entries ----------------------------------------------
    grad_input_set = set(grad_inputs)
    acc_entries: list = []
    acc_index: dict = {}

    def acc_for(key, entry):
        index = acc_index.get(key)
        if index is None:
            index = len(acc_entries)
            acc_index[key] = index
            acc_entries.append(entry)
        return index

    backward_entries: list = []
    for ctx in tracer.backwards:
        op_index = ctx_to_op.get(id(ctx))
        if op_index is None:
            raise TapeUnsupported(
                "backward visited a graph node recorded outside this step"
            )
        cls = applies[op_index][0]
        targets = []
        for pos, (arg, needs) in enumerate(
            zip(ctx.inputs, ctx.needs_input_grad)
        ):
            if not needs or not isinstance(arg, Tensor):
                continue
            slot = slot_of.get(id(arg))
            if slot is not None:
                targets.append((pos, 0, slot))
                continue
            index = input_of.get(id(arg))
            if index is not None and index in grad_input_set:
                targets.append((pos, 1, acc_for(("input", index), ("input", index))))
            elif arg.requires_grad:
                targets.append((pos, 1, acc_for(("param", id(arg)), ("param", arg))))
        backward_entries.append(
            _BackwardOp(cls.backward, ctx, op_index, tuple(targets))
        )

    # ---- dead code elimination ------------------------------------------
    if consume == "all":
        needed_accs = set(range(len(acc_entries)))
    else:
        wanted = set(consume)
        kind_name = {"param": "params", "input": "inputs"}
        needed_accs = {
            index
            for index, (kind, _payload) in enumerate(acc_entries)
            if kind_name[kind] in wanted
        }
    kept_reversed: list = []
    needed_ops: set = set()
    dropped_entries = 0
    for entry in reversed(backward_entries):
        useful = []
        for target in entry.targets:
            _pos, kind, key = target
            if (kind == 1 and key in needed_accs) or (
                kind == 0 and key in needed_ops
            ):
                useful.append(target)
        if not useful:
            dropped_entries += 1
            continue
        if len(useful) != len(entry.targets):
            useful_pos = {pos for pos, _kind, _key in useful}
            dead = {
                pos for pos, _kind, _key in entry.targets
            } - useful_pos
            entry.ctx.needs_input_grad = tuple(
                False if pos in dead else needs
                for pos, needs in enumerate(entry.ctx.needs_input_grad)
            )
            entry.targets = tuple(useful)
        kept_reversed.append(entry)
        needed_ops.add(entry.out_slot)
    kept_entries = list(reversed(kept_reversed))
    if dropped_entries:
        tel.counter("tape.dce.dropped", dropped_entries)

    # ---- post-DCE contribution counts (fusion safety) --------------------
    counts: dict = {(0, root_slot): 1}  # the seed is the root's first grad
    for entry in kept_entries:
        for _pos, kind, key in entry.targets:
            counts[(kind, key)] = counts.get((kind, key), 0) + 1

    # Tag each target with whether it is its slot's only contribution:
    # single-contribution gradients are stored by reference at replay time
    # (exactly what _accumulate's first-touch branch does), skipping the
    # accumulation machinery and its buffer bookkeeping entirely.
    for entry in kept_entries:
        entry.targets = tuple(
            (pos, kind, key, counts[(kind, key)] == 1)
            for pos, kind, key in entry.targets
        )

    lease = get_workspace().lease()
    try:
        forward_entries, backward_out = _assemble(
            applies, op_sources, kept_entries, ctx_to_op, output_sources,
            counts, lease, fuse,
        )
        root_seed = lease.full(root_data.shape, root_data.dtype, 1)
    except TapeUnsupported:
        lease.release()
        raise

    grad_input_accs = tuple(
        acc_index.get(("input", index)) for index in grad_inputs
    )

    # Replay never reads ctx.inputs (every backward works off ctx.saved);
    # dropping them frees the traced activations between replays.
    for _cls, ctx, _args, _kwargs, _out in applies:
        ctx.inputs = ()

    return _TapeProgram(
        num_slots, forward_entries, backward_out, root_slot, root_seed,
        output_sources, acc_entries, grad_input_accs, lease,
    )


def _assemble(applies, op_sources, kept_entries, ctx_to_op, output_sources,
              counts, lease, fuse):
    """Lay out forward/backward entry lists, fusing elementwise chains."""
    num_ops = len(applies)
    out_meta = [
        (out.data.shape, out.data.dtype) for _c, _ctx, _a, _k, out in applies
    ]
    kept_by_op = {entry.out_slot: entry for entry in kept_entries}

    chains = _plan_chains(
        applies, op_sources, out_meta, output_sources, kept_by_op, counts,
    ) if fuse else []

    member_of: dict = {}
    chain_by_tail: dict = {}
    for chain in chains:
        for op_index in chain:
            member_of[op_index] = chain
        chain_by_tail[chain[-1]] = chain
    if chains:
        tel.counter("tape.fusion.chains", len(chains))
        tel.counter("tape.fusion.ops", sum(len(c) for c in chains))

    # Build the fused member objects (shared between forward and backward).
    fused_forward: dict = {}   # tail op index -> _FusedForward
    fused_backward: dict = {}  # tail op index -> _FusedBackward
    for chain in chains:
        tail = chain[-1]
        shape, dtype = out_meta[tail]
        members = []
        has_backward = chain[0] in kept_by_op
        for position, op_index in enumerate(chain):
            cls = applies[op_index][0]
            kind = _FUSABLE[cls]
            sources = list(op_sources[op_index])
            carrier_pos = None
            if position > 0:
                previous = chain[position - 1]
                for pos, (tag, payload) in enumerate(sources):
                    if tag == _SLOT and payload == previous:
                        carrier_pos = pos
                        sources[pos] = _CARRIER
                        break
            args = applies[op_index][2]
            arg_shapes = tuple(
                a.data.shape if isinstance(a, Tensor) else np.shape(a)
                for a in args
            )
            targets = ()
            if has_backward:
                entry = kept_by_op[op_index]
                targets = tuple(
                    t for t in entry.targets
                    if carrier_pos is None or t[0] != carrier_pos
                )
            member = _FusedMember(
                kind, tuple(sources), carrier_pos, arg_shapes, targets
            )
            if kind == "relu":
                member.mask = lease.acquire(shape, np.bool_)
            if has_backward:
                if kind == "mul" and carrier_pos is not None and targets:
                    member.snap = lease.acquire(shape, dtype)
                for pos, _kind, _key, _single in targets:
                    member.scratch[pos] = lease.acquire(shape, dtype)
            members.append(member)
        members = tuple(members)
        fused_forward[tail] = _FusedForward(
            members, tail, lease.acquire(shape, dtype)
        )
        if has_backward:
            fused_backward[tail] = _FusedBackward(
                members, tail, lease.acquire(shape, dtype)
            )

    forward_entries: list = []
    for op_index in range(num_ops):
        chain = member_of.get(op_index)
        if chain is None:
            cls, ctx, _args, kwargs, _out = applies[op_index]
            forward_entries.append(
                _ForwardOp(cls.forward, ctx, op_sources[op_index], kwargs, op_index)
            )
        elif op_index == chain[-1]:
            forward_entries.append(fused_forward[op_index])

    backward_out: list = []
    for entry in kept_entries:
        chain = member_of.get(entry.out_slot)
        if chain is None:
            backward_out.append(entry)
        elif entry.out_slot == chain[-1]:
            backward_out.append(fused_backward[entry.out_slot])
    return forward_entries, backward_out


def _plan_chains(applies, op_sources, out_meta, output_sources, kept_by_op,
                 counts):
    """Find maximal fusable elementwise chains that are safe to fuse.

    A chain is a run of ops where each member's output feeds exactly one
    consumer (the next member), every member output has the chain's shape
    and dtype, and — when the chain participates in backward — every
    gradient the fused kernel writes outside the chain has exactly one
    contribution (so writing it at the tail's backward position instead of
    each member's is order-independent and bit-identical).
    """
    consumers: dict = {}
    for op_index, sources in enumerate(op_sources):
        for pos, (tag, payload) in enumerate(sources):
            if tag == _SLOT:
                consumers.setdefault(payload, []).append((op_index, pos))
    output_slots = {
        payload for tag, payload in output_sources if tag == _SLOT
    }

    def fusable(op_index):
        cls, _ctx, _args, kwargs, _out = applies[op_index]
        return cls in _FUSABLE and not kwargs

    chains = []
    used: set = set()
    for head in range(len(applies)):
        if head in used or not fusable(head):
            continue
        chain = [head]
        shape, dtype = out_meta[head]
        while True:
            tail = chain[-1]
            cons = consumers.get(tail, ())
            if len(cons) != 1 or tail in output_slots:
                break
            candidate = cons[0][0]
            if (
                candidate in used
                or not fusable(candidate)
                or out_meta[candidate] != (shape, dtype)
            ):
                break
            chain.append(candidate)
        if len(chain) < 2:
            continue
        if _chain_backward_safe(chain, kept_by_op, op_sources, counts):
            chains.append(chain)
            used.update(chain)
    return chains


def _chain_backward_safe(chain, kept_by_op, op_sources, counts):
    """Whether a candidate chain's backward can be fused bit-identically."""
    have = [op_index in kept_by_op for op_index in chain]
    if not any(have):
        return True  # forward-only chain: nothing to get wrong
    if not all(have):
        return False  # partially-live backward: fuse nothing
    for position, op_index in enumerate(chain):
        entry = kept_by_op[op_index]
        carrier_pos = None
        if position > 0:
            previous = chain[position - 1]
            for pos, (tag, payload) in enumerate(op_sources[op_index]):
                if tag == _SLOT and payload == previous:
                    carrier_pos = pos
                    break
            if carrier_pos is None:
                return False  # carrier hidden (e.g. same tensor twice)
        for pos, kind, key, _single in entry.targets:
            if pos == carrier_pos:
                continue  # internal edge, eliminated by fusion
            if counts.get((kind, key), 0) != 1:
                return False  # multi-contribution: order would matter
    return True


class CompiledStep:
    """Trace-once, replay-many wrapper around a forward/backward step.

    Parameters
    ----------
    fn:
        The step body.  Called with one argument per step input — float
        arrays arrive wrapped as :class:`Tensor` (requiring grad when
        named in ``grad_inputs``), integer arrays as raw ``int64``
        ndarrays.  Must return the scalar loss tensor, or a tuple whose
        first element is the loss; every returned value becomes a raw
        array in :attr:`StepResult.outputs`.
    grad_inputs:
        Indices of step inputs whose gradients the caller wants back.
    consume:
        Which gradients the tape must preserve: ``"all"`` (default,
        bit-identical to eager including parameter ``.grad`` side
        effects) or an iterable of ``{"params", "inputs"}`` — anything
        else is dead-code-eliminated from the replayed backward.  Without
        ``"params"`` the eager trace and fallback calls backpropagate
        with ``inputs=`` the grad inputs too, so no call of the step
        touches a parameter's ``.grad``.
    max_variants:
        LRU capacity of compiled variants keyed by input signature.
    guard:
        Optional zero-arg callable returning a hashable token folded into
        the signature; use it to invalidate on state the tape cannot see
        (e.g. ``model.training``).
    fuse:
        Whether to fuse elementwise chains (on by default).
    name:
        Label used in telemetry span attributes.
    """

    def __init__(self, fn: Callable, *, grad_inputs=(), consume="all",
                 max_variants: int = 4, guard: Optional[Callable] = None,
                 fuse: bool = True, name: Optional[str] = None) -> None:
        self._fn = fn
        self._grad_inputs = tuple(grad_inputs)
        self._consume = consume if consume == "all" else tuple(consume)
        self._max_variants = int(max_variants)
        self._guard = guard
        self._fuse = bool(fuse)
        self.name = name or getattr(fn, "__name__", "step")
        self._variants = LRUCache(
            self._max_variants, on_evict=self._evict_variant
        )
        self._traces = 0
        self._hits = 0
        self._disabled: Optional[str] = None

    # -- bookkeeping ------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Trace/hit/variant counters (tests and diagnostics)."""
        return {
            "traces": self._traces,
            "hits": self._hits,
            "variants": len(self._variants),
            "disabled": self._disabled,
        }

    def reset(self) -> None:
        """Drop every compiled variant and re-enable compilation."""
        for program in self._variants.values():
            program.release()
        self._variants.clear()
        self._traces = 0
        self._hits = 0
        self._disabled = None

    @staticmethod
    def _evict_variant(_signature, program) -> None:
        """Capacity eviction from the variant LRU: free the pinned buffers."""
        program.release()
        tel.counter("tape.cache.evictions")

    def _disable(self, reason: str) -> None:
        for program in self._variants.values():
            program.release()
        self._variants.clear()
        self._disabled = reason
        tel.counter("tape.disabled")

    # -- input binding ----------------------------------------------------
    def _bind(self, inputs) -> _Bound:
        grad_inputs = self._grad_inputs
        raws = []
        for index, value in enumerate(inputs):
            if isinstance(value, Tensor):
                value = value.data
            arr = np.asarray(value)
            kind = arr.dtype.kind
            if kind != "f":
                if kind in "iu":
                    arr = arr.astype(np.int64, copy=False)
                if index in grad_inputs:
                    raise TypeError(
                        f"grad input {index} must be floating point, "
                        f"got dtype {arr.dtype}"
                    )
            raws.append(arr)
        return _Bound(tuple(raws), grad_inputs)

    def _signature(self, bound: _Bound):
        # np.dtype objects hash and compare by equivalence, so they key
        # the variant cache directly without string conversion.
        return (
            tuple((raw.shape, raw.dtype) for raw in bound.raws),
            np.dtype(compute_dtype()),
            np.dtype(accum_dtype()),
            hotpaths_enabled(),
            self._guard() if self._guard is not None else None,
        )

    # -- eager path -------------------------------------------------------
    def _run_eager(self, bound: _Bound):
        result = self._fn(*bound.args)
        outputs = result if isinstance(result, tuple) else (result,)
        root = outputs[0]
        if not isinstance(root, Tensor) or not root.requires_grad:
            raise RuntimeError(
                f"{self.name}: the step's first output must be a tensor "
                "requiring grad (the loss to backpropagate)"
            )
        if self._consume == "all" or "params" in self._consume:
            root.backward()
        else:
            # Eager runs (the trace, fallbacks) match replay: no
            # parameter gradients are formed or accumulated.
            root.backward(
                inputs=[bound.args[index] for index in self._grad_inputs]
            )
        return outputs

    def _eager_result(self, bound: _Bound, outputs=None) -> StepResult:
        if outputs is None:
            outputs = self._run_eager(bound)
        raw = tuple(
            out.data if isinstance(out, Tensor) else np.asarray(out)
            for out in outputs
        )
        grads = tuple(bound.args[index].grad for index in self._grad_inputs)
        return StepResult(raw, grads, False)

    # -- trace path -------------------------------------------------------
    def _trace(self, bound: _Bound, signature) -> StepResult:
        tracer = _Tracer()
        previous = set_tracer(tracer)
        try:
            outputs = self._run_eager(bound)
        finally:
            set_tracer(previous)
        try:
            program = _build_program(
                tracer, bound, outputs, self._grad_inputs, self._consume,
                self._fuse,
            )
        except TapeUnsupported as exc:
            tel.counter("tape.unsupported")
            self._disable(str(exc))
            return self._eager_result(bound, outputs)
        self._variants.put(signature, program)
        return self._eager_result(bound, outputs)

    # -- entry point ------------------------------------------------------
    def __call__(self, *inputs) -> StepResult:
        bound = self._bind(inputs)
        if self._disabled is not None or active_tracer() is not None:
            # Permanently fallen back, or an outer tape is tracing: run
            # eagerly so the outer tracer observes every op.
            tel.counter("tape.fallback.eager")
            return self._eager_result(bound)
        signature = self._signature(bound)
        program = self._variants.get(signature)
        if program is not None:
            self._hits += 1
            tel.counter("tape.cache.hits")
            with tel.span("tape.replay", step=self.name):
                return program.replay(bound)
        tel.counter("tape.cache.misses")
        self._traces += 1
        if self._traces >= _THRASH_LIMIT and self._hits < self._traces:
            self._disable(
                "input signatures churn every call; compiling cannot pay off"
            )
            tel.counter("tape.fallback.eager")
            return self._eager_result(bound)
        with tel.span("tape.trace", step=self.name):
            return self._trace(bound, signature)
