"""Command-line entry point: preprocess, pretrain, finetune, evaluate,
benchmark-attention, smoke. Every command writes its resolved configuration
and seed next to its outputs so runs are reproducible."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import tensor as T
from .attention import (
    AttentionParams,
    AttentionPattern,
    attention_flop_count,
    dense_attention_flop_count,
    dense_attention_oracle,
    sparse_attention_forward,
)
from .checkpoint import check_json_object, read_json, replacing, write_csv, write_text
from .corpus import (
    Ruleset,
    corpus_stats,
    judgment_stats,
    pack_documents,
    process_corpus,
    read_jsonl,
    write_jsonl,
)
from .encoder import EncoderConfig
from .fixtures import write_fixture_files
from .metrics import FoldPlan, run_cross_validation
from .pretrain import PretrainConfig, check_batches, check_blocks, check_resume, pretrain
from .tasks import (
    JudgmentModel,
    MultipleChoiceModel,
    ReadingComprehensionModel,
    RetrievalRanker,
    judgment,
    mcq,
    reading,
    retrieval,
)
from .tasks.model import check_fields
from .vocab import CharVocab, build_vocab

METRIC_COLUMNS = ["Mic@c", "Mac@c", "Mic@l", "Mac@l", "Dis@t",
                  "P@5", "P@10", "P@20", "P@30",
                  "NDCG@5", "NDCG@10", "NDCG@20", "NDCG@30",
                  "MAP", "EM", "F1", "single", "all"]

# task name: (head class, the constructor arguments fixed by the task,
# score_rows(pred_rows, gold_rows), the head's own scoring path, which for
# judgment counts the labels of both row lists). finetune, evaluate and smoke
# all read their tasks from this table.
TASKS = {
    "judgment-criminal": (JudgmentModel, {"mode": "criminal"},
                          functools.partial(judgment.score_rows, mode="criminal")),
    "judgment-civil": (JudgmentModel, {"mode": "civil"},
                       functools.partial(judgment.score_rows, mode="civil")),
    "retrieval": (RetrievalRanker, {}, retrieval.score_rows),
    "rc": (ReadingComprehensionModel, {}, reading.score_rows),
    "mcq": (MultipleChoiceModel, {}, mcq.score_rows),
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


def _openblas():
    """The (get, set) thread-count calls of numpy's bundled scipy-openblas
    (64-bit integer build), or None where that library is not found."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                              "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def blas_thread_limit(threads: int):
    """Cap numpy's OpenBLAS pool at `threads` (0: leave it as it is) for the
    block, and restore the previous count on exit. OpenBLAS reads the thread
    environment variables only when it loads, so the cap is set through the
    library itself. Yields the count read back from the library, or None
    where the library cannot be found and no cap could be applied."""
    calls = _openblas()
    if calls is None:
        yield None
        return
    get, set_ = calls
    previous = get()
    if threads > 0:
        set_(threads)
    try:
        yield get()
    finally:
        set_(previous)


# glibc's mallopt(3) parameter numbers (malloc.h), and the values main sets
# for every command. Below the mmap threshold a freed array goes back to the
# heap, and the heap is not trimmed below the trim threshold, so the next
# allocation reuses those pages: glibc's defaults unmap each freed array of
# over 128 KiB (its threshold then rises with what was freed) and trim the
# heap top, and a training step faults the same pages in again.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {"mmap_threshold": 1 << 30, "trim_threshold": 1 << 30}


def raise_malloc_thresholds() -> dict | None:
    """Set glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD to MALLOC_THRESHOLDS
    for the rest of the process. Returns the values set, or None where the
    C library has no mallopt (not glibc) or refuses a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    done = [mallopt(param, MALLOC_THRESHOLDS[name]) == 1 for name, param in
            (("mmap_threshold", _M_MMAP_THRESHOLD), ("trim_threshold", _M_TRIM_THRESHOLD))]
    return dict(MALLOC_THRESHOLDS) if all(done) else None


def _resolve_threads(args) -> int:
    """BLAS thread cap: --threads, else LCTX_THREADS, else 1 for
    benchmark-attention (per-size thread dispatch would distort its scaling
    table) and no cap for every other command."""
    default = 1 if args.command == "benchmark-attention" else 0
    return args.threads or int(os.environ.get("LCTX_THREADS", "0")) or default


def _write_run_config(out_dir: Path, args, extra: dict | None = None) -> None:
    """Called only once the command has checked all of its input, so a
    refused run leaves no run.json behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in vars(args).items() if k != "func"}
    record.update(extra or {})
    write_text(out_dir / "run.json",
               json.dumps(record, ensure_ascii=False, indent=2, sort_keys=True, default=str))


def _write_metrics_csv(path, rows: list[dict]) -> None:
    """One row per task; the full paper-table column set, blanks where a
    metric does not apply."""
    write_csv(path, ["task"] + METRIC_COLUMNS,
              ([row.get("task", "")] +
               [f"{v:.6f}" if isinstance(v, float) else v
                for v in (row.get(col, "") for col in METRIC_COLUMNS)] for row in rows))


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} {value}: must be at least {least}")


def read_config(args, sections: dict[str, type], flags: tuple[str, ...] = ()) -> dict:
    """{name: keyword arguments} of each of `sections` (name: dataclass) that
    the --config file of `args` holds, after the whole file is checked. A
    section key is typed from its dataclass field, whose range the dataclass
    checks; a top-level key in `flags` is typed from the command's option of
    that name, and its value replaces the option's in `args`."""
    raw = read_json(args.config) if args.config else {}
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    options = {a.dest: a for a in commands.choices[args.command]._actions}
    check_json_object(raw, {**{flag: options[flag].type or str for flag in flags},
                            **dict.fromkeys(sections, dict)}, "--config")
    for name, cls in sections.items():
        if name in raw:
            check_json_object(raw[name], get_type_hints(cls), "--config", name)
    for flag in flags:
        if flag in raw:
            choices = options[flag].choices
            if choices and raw[flag] not in choices:
                raise ValueError(f"--config {flag} must be one of {', '.join(choices)}, "
                                 f"got {json.dumps(raw[flag])}")
            setattr(args, flag, raw[flag])
    return {name: raw[name] for name in sections if name in raw}


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    out = Path(args.out)
    rules = Ruleset.load(args.rules) if args.rules else Ruleset()
    raw = read_jsonl(args.input)
    result = process_corpus(raw, rules, min_fact_tokens=args.min_fact_tokens)

    vocab = build_vocab([doc.full_text() for doc in result.documents] or [""])
    streams = [vocab.transform(doc.full_text()) for doc in result.documents]
    blocks = pack_documents(streams, args.seq_len)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    rules.save(out / "rules.json")
    with replacing(out / "blocks.npy") as fh:
        np.save(fh, blocks)

    write_jsonl(out / "judgment_criminal.jsonl", result.criminal_examples)
    write_jsonl(out / "judgment_civil.jsonl", result.civil_examples)
    result.charge_table.save(out / "labels_charges.txt")
    result.law_table.save(out / "labels_laws.txt")
    result.cause_table.save(out / "labels_causes.txt")

    # each stats function gives one row per case kind, its keys in column order
    for name, stats in (("stats_pretrain.csv", corpus_stats(result.documents)),
                        ("stats_judgment.csv",
                         judgment_stats(result.criminal_examples, result.civil_examples,
                                        result.charge_table, result.law_table,
                                        result.cause_table))):
        write_csv(out / name, list(stats[0]), [list(row.values()) for row in stats])
    write_csv(out / "rejections.csv", ["reason", "count"], sorted(result.rejections.items()))

    _write_run_config(out, args, {"n_blocks": int(blocks.shape[0]),
                                  "vocab_size": len(vocab)})
    print(f"preprocess: {len(result.documents)} documents, "
          f"{len(result.criminal_examples)} criminal / {len(result.civil_examples)} civil "
          f"examples, {blocks.shape[0]} blocks")
    return 0


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    _at_least("--steps", args.steps, 0)
    if args.checkpoint_interval is not None:
        _at_least("--checkpoint-interval", args.checkpoint_interval, 1)
    out = Path(args.out)
    data = Path(args.data)
    blocks = np.load(data / "blocks.npy")
    vocab = CharVocab.load(data / "vocab.txt")
    sections = read_config(args, {"pretrain": PretrainConfig, "encoder": EncoderConfig})
    seq_len = int(blocks.shape[1])
    pre_kwargs = {"seq_len": seq_len, **sections.get("pretrain", {})}
    if args.seed is not None:
        pre_kwargs["seed"] = args.seed
    config = PretrainConfig(**pre_kwargs)
    if config.seq_len != seq_len:
        raise ValueError(f"--config pretrain.seq_len {config.seq_len} differs from the "
                         f"{seq_len}-token blocks of {data / 'blocks.npy'}")
    enc_config = EncoderConfig(**{"vocab_size": len(vocab), "max_positions": max(seq_len, 16),
                                  **sections.get("encoder", {})})
    check_blocks(blocks, enc_config)
    start_step = 0 if args.resume is None else check_resume(args.resume, enc_config)
    check_batches(blocks, config.batch_size, start_step, args.steps)
    _write_run_config(out, args, {"pretrain": asdict(config), "encoder": asdict(enc_config)})
    _, history = pretrain(blocks, config, enc_config, steps=args.steps, out_dir=out,
                          checkpoint_interval=args.checkpoint_interval,
                          resume_from=args.resume)
    last = (f", final loss {history[-1].loss:.4f}, masked acc {history[-1].masked_acc:.3f}"
            if history else "")
    print(f"pretrain: {args.steps} steps{last}")
    return 0


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def cmd_finetune(args) -> int:
    out = Path(args.out)
    rows = read_jsonl(args.data)
    vocab = CharVocab.load(args.vocab) if args.vocab else None
    sections = read_config(args, {"encoder": EncoderConfig},
                           flags=("steps", "lr", "seed", "model_type", "folds"))
    encoder = None
    if "encoder" in sections:
        if vocab is None:
            raise ValueError("an encoder section in --config requires --vocab")
        encoder = EncoderConfig(**{"vocab_size": len(vocab), **sections["encoder"]})
        if encoder.vocab_size < len(vocab):
            raise ValueError(f"--config encoder.vocab_size {encoder.vocab_size} is smaller "
                             f"than the {len(vocab)} tokens of {args.vocab}")
    _at_least("--steps", args.steps, 0)
    _at_least("--seed", args.seed, 0)
    if args.folds < 0 or args.folds == 1:
        raise ValueError(f"--folds {args.folds}: k-fold cross-validation needs at least "
                         f"2 folds (0 turns it off)")
    if args.folds and args.task != "retrieval":
        raise ValueError(f"--folds (k-fold cross-validation) applies to the retrieval "
                         f"task only, not {args.task}")
    if args.model_type != "long" and args.task != "retrieval":
        raise ValueError(f"--model-type {args.model_type} (the truncating dense baseline) "
                         f"applies to the retrieval task only, not {args.task}")
    cls, fixed, score = TASKS[args.task]
    kwargs = dict(fixed, vocab=vocab, steps=args.steps, lr=args.lr, seed=args.seed,
                  encoder=encoder)
    if args.task == "retrieval":
        kwargs["model_type"] = args.model_type
    cls(**kwargs).check_rows(rows)
    plan = None
    if args.folds:
        plan = FoldPlan.from_query_ids({ex["query_id"] for ex in rows}, args.folds)
        plan.check_nonempty()
    _write_run_config(out, args, {"encoder": asdict(encoder) if encoder else None})

    if plan is not None:
        result = run_cross_validation(rows, plan, lambda train: cls(**kwargs).fit(train),
                                      lambda model, test: model.evaluate(test))
        metrics_rows = [{"task": f"retrieval-fold{i}", **m}
                        for i, m in enumerate(result["folds"])]
        metrics_rows.append({"task": "retrieval-mean", **result["mean"]})
        _write_metrics_csv(out / "metrics.csv", metrics_rows)
        print(f"finetune retrieval {args.folds}-fold: "
              f"mean MAP {result['mean']['MAP']:.4f}")
        return 0

    model = cls(**kwargs).fit(rows)
    model.model_.save(out / "model", {"task": args.task}, vocab=model.vocab_)
    preds = model.predict(rows)
    write_jsonl(out / "predictions.jsonl", preds)
    metrics = score(preds, rows)
    _write_metrics_csv(out / "metrics.csv", [{"task": args.task, **metrics}])
    shown = {k: round(v, 4) for k, v in metrics.items() if isinstance(v, float)}
    print(f"finetune {args.task}: {shown}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    cls, fixed, score = TASKS[args.task]
    pred_rows, gold_rows = read_jsonl(args.pred), read_jsonl(args.gold)
    head = cls(**fixed)
    head.check_rows(gold_rows, gold=True)
    check_fields(pred_rows, head.pred_fields, f"{args.task} prediction")
    # retrieval aligns its scores to the gold rows by (query_id, candidate_id)
    if len(pred_rows) != len(gold_rows) and args.task != "retrieval":
        raise ValueError("pred and gold files must align")
    metrics = score(pred_rows, gold_rows)
    # --out is the CSV file itself, or without a suffix the run directory
    out = Path(args.out)
    run_dir = out.parent if out.suffix else out
    _write_run_config(run_dir, args)
    _write_metrics_csv(out if out.suffix else run_dir / "metrics.csv",
                       [{"task": args.task, **metrics}])
    print(f"evaluate {args.task}: " +
          " ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def interleaved_median_ms(cases: dict, repeats: int = 5) -> dict:
    """Median wall time in ms of each callable in `cases`, by key.

    Every case runs once untimed before any is timed, so the largest case has
    raised the allocator's thresholds before the smallest is timed. Then each
    of `repeats` rounds times every case once, so a slow phase of the host
    falls on all cases alike. Each timed call directly follows an untimed
    call of the same case: the allocator hands a large call's temporaries
    back to the OS, and without that call a small case would pay the page
    faults of faulting them in again.
    """
    for fn in cases.values():
        fn()
    times = {key: [] for key in cases}
    for _ in range(repeats):
        for key, fn in cases.items():
            fn()
            start = time.perf_counter()
            fn()
            times[key].append((time.perf_counter() - start) * 1000.0)
    return {key: statistics.median(samples) for key, samples in times.items()}


def attention_cases(lengths, params: AttentionParams, pattern: AttentionPattern,
                    heads: int, rng, backward: bool = False) -> dict:
    """One call per kernel and length, each length on its own [1, L,
    hidden_dim] input drawn from `rng`. Keyed ("sparse" or "dense", L): a
    no-grad forward. With `backward`, also ("sparse_fwdbwd" or
    "dense_fwdbwd", L): a forward whose output sum is backpropagated into
    the parameters, whose gradients are then cleared."""
    kernels = {"sparse": sparse_attention_forward, "dense": dense_attention_oracle}

    def forward(kernel, hidden):
        def run():
            with T.no_grad():
                kernel(hidden, params, pattern, heads)
        return run

    def forward_backward(kernel, hidden):
        def run():
            T.reduce_sum(kernel(hidden, params, pattern, heads)).backward()
            for p in params.named().values():
                p.zero_grad()
        return run

    cases = {}
    for L in lengths:
        hidden = T.Tensor(rng.standard_normal((1, L, params.hidden_dim)))
        for name, kernel in kernels.items():
            cases[(name, L)] = forward(kernel, hidden)
            if backward:
                cases[(f"{name}_fwdbwd", L)] = forward_backward(kernel, hidden)
    return cases


def cmd_benchmark_attention(args) -> int:
    if args.heads < 1:
        raise ValueError(f"--heads {args.heads}: attention needs at least 1 head")
    try:
        lengths = [int(x) for x in args.lengths.split(",")]
    except ValueError:
        raise ValueError(f"--lengths {args.lengths}: not a comma-separated list of "
                         "integers") from None
    if min(lengths) < 1:
        raise ValueError(f"--lengths {args.lengths}: every length must be at least 1")
    if lengths != sorted(lengths):
        raise ValueError("lengths must be ascending")
    if not 0 <= args.n_global <= lengths[0]:
        raise ValueError(f"--n-global {args.n_global}: the global positions 0..n-1 must "
                         f"lie in the shortest length, {lengths[0]}")
    if lengths and lengths[-1] > args.max_positions:
        raise ValueError(f"length {lengths[-1]} exceeds max positions {args.max_positions}")
    heads, dim = args.heads, args.dim
    rng = np.random.default_rng(args.seed or 0)
    params = AttentionParams(dim, rng)
    pattern = AttentionPattern(
        window=args.window, dilation_per_head=(args.dilation,) * heads,
        global_positions=tuple(range(args.n_global)))
    times = interleaved_median_ms(attention_cases(lengths, params, pattern, heads, rng,
                                                  backward=True))
    rows = [{
        "L": L,
        "sparse_flops": attention_flop_count(L, args.window, args.n_global,
                                             heads, dim, dilation=args.dilation),
        "dense_flops": dense_attention_flop_count(L, heads, dim),
        "sparse_ms": round(times[("sparse", L)], 3),
        "dense_ms": round(times[("dense", L)], 3),
        "sparse_fwdbwd_ms": round(times[("sparse_fwdbwd", L)], 3),
        "dense_fwdbwd_ms": round(times[("dense_fwdbwd", L)], 3),
    } for L in lengths]
    out = Path(args.out)
    _write_run_config(out.parent, args)
    write_csv(out, list(rows[0]), [list(row.values()) for row in rows])
    for row in rows:
        print(row)
    return 0


# ---------------------------------------------------------------------------
# smoke
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _smoke_stage(stage: str, timings: list):
    """Run one smoke stage. A failure becomes a StageError naming the stage;
    a completed stage appends (stage, wall seconds, peak RSS in MiB so far)
    to `timings`."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(stage, exc) from exc
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    timings.append((stage, time.perf_counter() - start, peak_kib / 1024.0))


def cmd_smoke(args) -> int:
    _at_least("--steps", args.steps, 0)
    _at_least("--seed", args.seed, 0)
    seed, steps = args.seed, args.steps
    out = Path(args.out)
    _write_run_config(out, args)
    timings: list = []

    with _smoke_stage("fixtures", timings):
        fixture_paths = write_fixture_files(out / "fixtures", seed=seed)
        fixture_rows = {name: read_jsonl(path) for name, path in fixture_paths.items()}

    with _smoke_stage("preprocess", timings):
        rules = Ruleset()
        result = process_corpus(fixture_rows["raw_cases"], rules)
        if not result.criminal_examples or not result.civil_examples:
            raise RuntimeError("fixture corpus produced no training examples")
        texts = [doc.full_text() for doc in result.documents]
        for name in ("retrieval", "rc", "mcq"):
            for row in fixture_rows[name]:
                texts.extend(str(v) for v in row.values() if isinstance(v, str))
                if name == "rc":
                    texts.extend(row["context"])
                if name == "mcq":
                    texts.extend(row["choices"])
        vocab = build_vocab(texts)
        vocab.save(out / "vocab.txt")
        blocks = pack_documents([vocab.transform(t) for t in texts[:len(result.documents)]], 48)

    with _smoke_stage("pretrain", timings):
        pre_cfg = PretrainConfig(seq_len=48, batch_size=4, peak_lr=5e-3,
                                 total_steps=max(steps, 2), warmup_steps=min(10, steps // 2),
                                 mask_rate=0.15, seed=seed)
        enc_cfg = EncoderConfig(n_layers=1, n_heads=2, hidden_dim=32, ffn_dim=64,
                                vocab_size=len(vocab), max_positions=64, window=4)
        pretrain(blocks, pre_cfg, enc_cfg, steps=steps, out_dir=out / "pretrain")

    # each head at its default depth and length, at the smoke widths; the
    # judgment heads take their label counts from the preprocess tables
    small = dict(n_heads=2, hidden_dim=32, ffn_dim=64, window=4, vocab_size=len(vocab))
    rows = {"judgment-criminal": result.criminal_examples,
            "judgment-civil": result.civil_examples, **fixture_rows}
    counts = {task: {"n_label_a": len(table), "n_laws": len(result.law_table)}
              for task, table in (("judgment-criminal", result.charge_table),
                                  ("judgment-civil", result.cause_table))}
    metric_rows = []
    for task, (cls, fixed, _) in TASKS.items():
        with _smoke_stage(f"finetune-{task}", timings):
            model = cls(**fixed, **counts.get(task, {}), vocab=vocab, steps=steps, lr=3e-3,
                        seed=seed)
            model.encoder = EncoderConfig(n_layers=model.n_layers,
                                          max_positions=model.max_positions, **small)
            metrics = model.fit(rows[task]).evaluate(rows[task])
            metric_rows.append({"task": task, **metrics})

    with _smoke_stage("evaluate", timings):
        _write_metrics_csv(out / "metrics.csv", metric_rows)

    write_csv(out / "stages.csv", ["stage", "wall_s", "peak_rss_mib"],
              ([stage, f"{wall:.6f}", f"{rss:.1f}"] for stage, wall, rss in timings))
    print(f"smoke: wrote {out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lctx",
                                     description="long-context legal transformer toolkit")
    parser.add_argument("--threads", type=int, default=0,
                        help="BLAS thread cap for the command (falls back to "
                             "LCTX_THREADS; benchmark-attention defaults to 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="segment, filter, annotate, pack a raw corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--rules", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=128)
    p.add_argument("--min-fact-tokens", dest="min_fact_tokens", type=int, default=50)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="run MLM pretraining over packed blocks")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--config", default=None, help="JSON {pretrain: {...}, encoder: {...}}")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--checkpoint-interval", dest="checkpoint_interval", type=int, default=None)
    p.add_argument("--resume", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a task head on JSONL examples")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--config", default=None,
                   help="JSON hyperparameters; overrides flag defaults")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=0,
                   help="retrieval only: k-fold cross-validation")
    p.add_argument("--model-type", dest="model_type", default="long",
                   choices=("long", "dense"))
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score prediction files against gold")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True,
                   help="metrics CSV path, or a suffix-less directory for "
                        "metrics.csv and run.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark-attention", help="flop counts and wall times vs L")
    p.add_argument("--lengths", default="256,512,1024")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--dilation", type=int, default=0)
    p.add_argument("--n-global", dest="n_global", type=int, default=1)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--max-positions", dest="max_positions", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_benchmark_attention)

    p = sub.add_parser("smoke", help="fixture corpus end-to-end run")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_smoke)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.threads = _resolve_threads(args)
        # for the process, which runs this one command; run.json records it
        args.malloc_thresholds = raise_malloc_thresholds()
        with blas_thread_limit(args.threads) as blas_threads:
            # run.json records the count read back from the library (None: unknown)
            args.blas_threads = blas_threads
            return args.func(args)
    except (StageError, ValueError, FileNotFoundError, KeyError) as exc:
        # a KeyError's str() is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
