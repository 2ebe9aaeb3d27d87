"""Traced runs: spans recorded from the benchmark's side of each layer boundary.

Tracing wraps public functions of the lctx modules at module-attribute level.
Modules that imported a function by name hold their own reference, so every
lctx module attribute that is the same object is replaced as well, and every
replacement is undone on exit. Backward work is attributed by wrapping the
backward closure each op registers through ``lctx.tensor.make_op``; the
wrapper remembers the span the op was created in.

Spans live in memory as [name, start, end, parent, origin] lists; parent and
origin are span indices (-1 for none). A parent always has a lower index than
its children because it opens first.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
import tracemalloc

import numpy as np

BACKWARD = "tensor.backward_fn"
ATTENTION = "attention.sparse"
NAME, START, END, PARENT, ORIGIN = range(5)
MIB = 1024.0 * 1024.0

HEADS = ("judgment_criminal", "judgment_civil", "retrieval", "rc", "mcq")

_TENSOR_OPS = ("add", "mul", "mul_const", "add_const", "matmul", "reshape",
               "transpose", "concat", "index_select", "reduce_sum", "reduce_mean",
               "relu", "sigmoid", "tanh", "dropout", "softmax", "cross_entropy")
# tensor primitives that only the encoder calls are booked to the encoder layer
_ENCODER_OPS = {"embedding": "encoder.embedding", "layer_norm": "encoder.layer_norm",
                "gelu": "encoder.gelu"}


class Tracer:
    """Span and counter store for one traced run. With measure_alloc, every
    attention-kernel call runs under tracemalloc, which slows it down: such
    a tracer is for the allocation peak only, not for timings."""

    def __init__(self, measure_alloc: bool = False):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.measure_alloc = measure_alloc
        self.peak_alloc_bytes = 0
        self._stack: list[int] = []
        self._flop_cache: dict = {}

    def open(self, name: str, origin: int = -1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, origin])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _under(spans, names) -> list[bool]:
    """Per span: it or one of its ancestors is named in `names`."""
    flags = []
    for span in spans:
        p = span[PARENT]
        flags.append(span[NAME] in names or (p >= 0 and flags[p]))
    return flags


def outer_total(spans, names) -> float:
    """Summed duration of spans in `names` that have no ancestor in `names`,
    so nested calls of the same layer are counted once."""
    flags = _under(spans, names)
    return sum(s[END] - s[START] for s in spans
               if s[NAME] in names and not (s[PARENT] >= 0 and flags[s[PARENT]]))


def backward_total(spans, origin_test) -> float:
    """Summed duration of backward-closure spans whose creating span passes
    origin_test(index)."""
    return sum(s[END] - s[START] for s in spans
               if s[NAME] == BACKWARD and s[ORIGIN] >= 0 and origin_test(s[ORIGIN]))


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, fn, name, after=None):
    """fn inside a span. `name` is a string or a function of the call's
    positional arguments; `after(tracer, args, kwargs, result)` runs once the
    span has closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


def _make_op_wrapper(tracer: Tracer, make_op):
    @functools.wraps(make_op)
    def traced_make_op(data, parents, backward):
        tracer.count("tensor.ops")
        origin = tracer.current()

        def traced_backward(g):
            idx = tracer.open(BACKWARD, origin)
            try:
                backward(g)
            finally:
                tracer.close(idx)

        return make_op(data, parents, traced_backward)

    return traced_make_op


def _attention_work(tracer: Tracer, hidden, pattern, n_heads) -> tuple[int, int, int, int]:
    """(multiply-adds, gathered K/V bytes, valid slots, gathered slots) of one
    banded-kernel call, computed from its shapes with the library's counters."""
    from lctx.attention import attention_flop_count, dense_attention_flop_count

    B, L, H = hidden.shape
    G = len(pattern.global_positions)
    key = (B, L, H, n_heads, pattern.window, pattern.dilation_per_head, G,
           hidden.data.dtype.itemsize)
    if key not in tracer._flop_cache:
        dh = H // n_heads
        if G == 0 and pattern.dilation_per_head is None and pattern.window >= 2 * (L - 1):
            flops = dense_attention_flop_count(L, n_heads, H)
        else:
            gaps = pattern.dilation_per_head or (0,) * n_heads
            flops = sum(attention_flop_count(L, pattern.window, G, 1, dh, gap) for gap in gaps)
        slots = n_heads * L * (pattern.window + 1 + G)
        # global rows are gathered with the band but scored by their own path
        valid = flops // (2 * dh) - n_heads * G * L
        gathered = 2 * slots * dh * hidden.data.dtype.itemsize
        tracer._flop_cache[key] = (B * flops, B * gathered, B * valid, B * slots)
    return tracer._flop_cache[key]


def _attention_wrapper(tracer: Tracer, fn):
    """Span plus computed work counts; under a measure_alloc tracer, also the
    peak allocation inside the kernel."""

    @functools.wraps(fn)
    def wrapper(hidden, params, pattern, n_heads, lengths=None):
        flops, gathered, valid, slots = _attention_work(tracer, hidden, pattern, n_heads)
        tracer.count("attention.calls")
        tracer.count("attention.flops", flops)
        tracer.count("attention.gather_bytes", gathered)
        tracer.count("attention.valid_slots", valid)
        tracer.count("attention.slots", slots)
        measure = tracer.measure_alloc and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        idx = tracer.open(ATTENTION)
        try:
            return fn(hidden, params, pattern, n_heads, lengths)
        finally:
            tracer.close(idx)
            if measure:
                tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes,
                                              tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    return wrapper


def _task_span(prefix: str, kind: str):
    """Span name of a task-head method; judgment heads are split by mode."""
    def name(args):
        head = f"judgment_{args[0].mode}" if prefix == "judgment" else prefix
        return f"tasks.{head}.{kind}"
    return name


def _count_encode(tracer, args, kwargs, out):
    ids = np.asarray(args[1] if len(args) > 1 else kwargs["token_ids"])
    tracer.count("work.tokens", ids.size)
    tracer.count("work.pad_tokens", int(np.count_nonzero(ids == 0)))


def _count_adam(tracer, args, kwargs, out):
    tracer.count("optim.params_updated", len(args[0]))


def _count_save(tracer, args, kwargs, out):
    tracer.count("checkpoint.bytes_written", os.path.getsize(args[0]))


def _count_transform(tracer, args, kwargs, out):
    tracer.count("vocab.chars", len(args[1] if len(args) > 1 else kwargs["text"]))


def _count_process(tracer, args, kwargs, out):
    tracer.count("corpus.raw_cases", len(args[0]))
    tracer.count("corpus.kept_cases", len(out.criminal_examples) + len(out.civil_examples))


def _count_pack(tracer, args, kwargs, out):
    tracer.count("corpus.block_slots", out.size)
    tracer.count("corpus.block_tokens", int(np.count_nonzero(out)))


# (module, function, span name, after-hook): module functions, patched in the
# defining module and in every lctx module that imported them by name
_FUNCTIONS = (
    [("lctx.tensor", op, f"tensor.{op}", None) for op in _TENSOR_OPS]
    + [("lctx.tensor", op, span, None) for op, span in _ENCODER_OPS.items()]
    + [
        ("lctx.optim", "adam_step", "optim.adam", _count_adam),
        ("lctx.optim", "zero_grads", "optim.zero_grads", None),
        ("lctx.checkpoint", "save_arrays", "checkpoint.save", _count_save),
        ("lctx.checkpoint", "load_arrays", "checkpoint.load", None),
        ("lctx.pretrain", "pretrain", "pretrain.pretrain", None),
        ("lctx.pretrain", "mask_tokens", "pretrain.mask", None),
        ("lctx.pretrain", "save_checkpoint", "pretrain.save_checkpoint", None),
        ("lctx.pretrain", "load_checkpoint", "pretrain.load_checkpoint", None),
        ("lctx.corpus", "process_corpus", "corpus.process", _count_process),
        ("lctx.corpus", "pack_documents", "corpus.pack", _count_pack),
        ("lctx.tasks.inputs", "single_text_input", "tasks.assemble", None),
        ("lctx.tasks.inputs", "pair_input", "tasks.assemble", None),
        ("lctx.tasks.retrieval", "retrieval_input", "tasks.assemble", None),
        ("lctx.tasks.model", "fit_adam", "tasks.fit_adam", None),
    ]
    + [("lctx.metrics", fn, "metrics.score", None)
       for fn in ("micro_macro_f1", "log_distance", "precision_at_k", "ndcg_at_k",
                  "average_precision", "mean_average_precision", "em_f1", "mcq_accuracy")]
)


# task-head class: (head name prefix, its prediction-side public methods)
_TASK_CLASSES = {
    "JudgmentModel": ("judgment", ("decision_scores", "predict", "evaluate")),
    "RetrievalRanker": ("retrieval", ("predict_proba", "predict", "rank", "evaluate")),
    "ReadingComprehensionModel": ("rc", ("predict", "evaluate")),
    "MultipleChoiceModel": ("mcq", ("scores", "predict", "evaluate")),
}

# (module, class, method, span name, after-hook): methods patched on the class
_METHODS = (
    [("lctx.tensor", "Tensor", "backward", "tensor.backward", None),
     ("lctx.encoder", "Encoder", "encode", "encoder.encode", _count_encode),
     ("lctx.encoder", "Encoder", "mlm_logits", "encoder.mlm_head", None),
     ("lctx.vocab", "CharVocab", "fit", "vocab.build", None),
     ("lctx.vocab", "CharVocab", "transform", "vocab.transform", _count_transform)]
    + [("lctx.tasks", cls, "fit", _task_span(prefix, "fit"), None)
       for cls, (prefix, _) in _TASK_CLASSES.items()]
    + [("lctx.tasks", cls, method, _task_span(prefix, "predict"), None)
       for cls, (prefix, methods) in _TASK_CLASSES.items() for method in methods]
)

_MODULES = ("lctx.tensor", "lctx.attention", "lctx.encoder", "lctx.optim", "lctx.checkpoint",
            "lctx.pretrain", "lctx.corpus", "lctx.vocab", "lctx.metrics", "lctx.tasks")


def _lctx_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lctx" or name.startswith("lctx."))]


def _replace_everywhere(original, replacement, patches: list) -> None:
    for module in _lctx_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> list:
    """Patch every traced function and method; returns the undo list."""
    for name in _MODULES:
        importlib.import_module(name)
    patches: list = []
    try:
        tensor = sys.modules["lctx.tensor"]
        _replace_everywhere(tensor.make_op, _make_op_wrapper(tracer, tensor.make_op), patches)
        for module, fn_name, span, after in _FUNCTIONS:
            fn = getattr(sys.modules[module], fn_name)
            _replace_everywhere(fn, _span_wrapper(tracer, fn, span, after), patches)
        fn = sys.modules["lctx.attention"].sparse_attention_forward
        _replace_everywhere(fn, _attention_wrapper(tracer, fn), patches)
        for module, cls_name, method, span, after in _METHODS:
            cls = getattr(sys.modules[module], cls_name)
            fn = cls.__dict__[method]
            patches.append((cls, method, fn))
            setattr(cls, method, _span_wrapper(tracer, fn, span, after))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


@contextlib.contextmanager
def traced(tracer: Tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)
        if tracemalloc.is_tracing():
            tracemalloc.stop()


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = (
    [("attention.fwd_s", "s", "lower"), ("attention.bwd_s", "s", "lower"),
     ("attention.calls", "count", "lower"), ("attention.peak_alloc_mib", "MiB", "lower"),
     ("attention.flops", "flop", "lower"), ("attention.gather_mib", "MiB", "lower"),
     ("attention.slot_fill_ratio", "ratio", "higher"),
     ("tensor.matmul_fwd_s", "s", "lower"), ("tensor.matmul_bwd_s", "s", "lower"),
     ("tensor.softmax_fwd_s", "s", "lower"), ("tensor.softmax_bwd_s", "s", "lower"),
     ("tensor.backward_s", "s", "lower"), ("tensor.graph_walk_s", "s", "lower"),
     ("tensor.ops", "count", "lower"), ("tensor.ops_per_example", "count", "lower"),
     ("encoder.embedding_fwd_s", "s", "lower"), ("encoder.embedding_bwd_s", "s", "lower"),
     ("encoder.layer_norm_fwd_s", "s", "lower"), ("encoder.layer_norm_bwd_s", "s", "lower"),
     ("encoder.gelu_fwd_s", "s", "lower"), ("encoder.gelu_bwd_s", "s", "lower"),
     ("encoder.mlm_head_s", "s", "lower"), ("encoder.self_s", "s", "lower"),
     ("optim.adam_s", "s", "lower"), ("optim.adam_calls", "count", "lower"),
     ("optim.params_updated", "count", "lower"),
     ("checkpoint.save_s", "s", "lower"), ("checkpoint.load_s", "s", "lower"),
     ("checkpoint.bytes_written", "B", "lower"),
     ("pretrain.mask_s", "s", "lower"), ("pretrain.loss_s", "s", "lower"),
     ("pretrain.self_s", "s", "lower"),
     ("corpus.process_s", "s", "lower"), ("corpus.accept_ratio", "ratio", "higher"),
     ("corpus.pack_s", "s", "lower"), ("corpus.pack_fill_ratio", "ratio", "higher"),
     ("vocab.build_s", "s", "lower"), ("vocab.transform_s", "s", "lower"),
     ("vocab.chars", "count", "lower"),
     ("tasks.assemble_s", "s", "lower")]
    + [(f"tasks.{head}.{kind}_s", "s", "lower") for kind in ("fit", "predict") for head in HEADS]
    + [("tasks.self_s", "s", "lower"), ("metrics.score_s", "s", "lower"),
       ("work.tokens", "count", "lower"), ("work.padding_ratio", "ratio", "lower"),
       ("work.examples", "count", "higher"),
       ("trace.overhead_s", "s", "lower"), ("trace.unattributed_s", "s", "lower")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, traced_s: float, untraced_round_s: float,
                  examples: int, peak_alloc_bytes: float) -> dict[str, float]:
    """Every PER_LAYER metric, per round of the workload. Times are inclusive
    unless the name ends in self_s; counts and ratios are computed from the
    shapes each call saw. `examples` is the number of encoder inputs per round;
    `peak_alloc_bytes` comes from a separate measure_alloc tracer."""
    spans = tracer.spans
    selfs = self_times(spans)
    c = tracer.counts.get

    def total(*names):
        return outer_total(spans, set(names)) / rounds

    def self_of(test):
        return sum(t for s, t in zip(spans, selfs) if test(s[NAME])) / rounds

    def bwd_of(name):
        return backward_total(spans, lambda i: spans[i][NAME] == name) / rounds

    def bwd_under(*names):
        flags = _under(spans, set(names))
        return backward_total(spans, lambda i: flags[i]) / rounds

    in_pretrain = _under(spans, {"pretrain.pretrain"})
    loss_fwd = sum(s[END] - s[START] for s, inside in zip(spans, in_pretrain)
                   if inside and s[NAME] == "tensor.cross_entropy")
    loss_bwd = backward_total(spans, lambda i: in_pretrain[i]
                              and spans[i][NAME] == "tensor.cross_entropy")
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    ops = c("tensor.ops", 0) / rounds

    out = {
        "attention.fwd_s": total(ATTENTION),
        "attention.bwd_s": bwd_under(ATTENTION),
        "attention.calls": c("attention.calls", 0) / rounds,
        "attention.peak_alloc_mib": peak_alloc_bytes / MIB,
        "attention.flops": c("attention.flops", 0) / rounds,
        "attention.gather_mib": c("attention.gather_bytes", 0) / MIB / rounds,
        "attention.slot_fill_ratio": _ratio(c("attention.valid_slots", 0), c("attention.slots", 0)),
        "tensor.matmul_fwd_s": total("tensor.matmul"),
        "tensor.matmul_bwd_s": bwd_of("tensor.matmul"),
        "tensor.softmax_fwd_s": total("tensor.softmax"),
        "tensor.softmax_bwd_s": bwd_of("tensor.softmax"),
        "tensor.backward_s": total("tensor.backward"),
        "tensor.graph_walk_s": self_of(lambda n: n == "tensor.backward"),
        "tensor.ops": ops,
        "tensor.ops_per_example": _ratio(ops, examples),
        "encoder.embedding_fwd_s": total("encoder.embedding"),
        "encoder.embedding_bwd_s": bwd_of("encoder.embedding"),
        "encoder.layer_norm_fwd_s": total("encoder.layer_norm"),
        "encoder.layer_norm_bwd_s": bwd_of("encoder.layer_norm"),
        "encoder.gelu_fwd_s": total("encoder.gelu"),
        "encoder.gelu_bwd_s": bwd_of("encoder.gelu"),
        "encoder.mlm_head_s": total("encoder.mlm_head") + bwd_under("encoder.mlm_head"),
        "encoder.self_s": self_of(lambda n: n == "encoder.encode"),
        "optim.adam_s": total("optim.adam"),
        "optim.adam_calls": sum(s[NAME] == "optim.adam" for s in spans) / rounds,
        "optim.params_updated": c("optim.params_updated", 0) / rounds,
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes_written": c("checkpoint.bytes_written", 0) / rounds,
        "pretrain.mask_s": total("pretrain.mask"),
        "pretrain.loss_s": (loss_fwd + loss_bwd) / rounds,
        "pretrain.self_s": self_of(lambda n: n == "pretrain.pretrain"),
        "corpus.process_s": total("corpus.process"),
        "corpus.accept_ratio": _ratio(c("corpus.kept_cases", 0), c("corpus.raw_cases", 0)),
        "corpus.pack_s": total("corpus.pack"),
        "corpus.pack_fill_ratio": _ratio(c("corpus.block_tokens", 0), c("corpus.block_slots", 0)),
        "vocab.build_s": total("vocab.build"),
        "vocab.transform_s": total("vocab.transform"),
        "vocab.chars": c("vocab.chars", 0) / rounds,
        "tasks.assemble_s": total("tasks.assemble"),
    }
    for kind in ("fit", "predict"):
        for head in HEADS:
            out[f"tasks.{head}.{kind}_s"] = total(f"tasks.{head}.{kind}")
    out.update({
        "tasks.self_s": self_of(lambda n: n.startswith("tasks.") and n != "tasks.assemble"),
        "metrics.score_s": total("metrics.score"),
        "work.tokens": c("work.tokens", 0) / rounds,
        "work.padding_ratio": _ratio(c("work.pad_tokens", 0), c("work.tokens", 0)),
        "work.examples": float(examples),
        "trace.overhead_s": traced_s / rounds - untraced_round_s,
        "trace.unattributed_s": (traced_s - roots) / rounds,
    })
    return out
