"""The benchmark's workloads set themselves up against this checkout: each
builds its heads, vocabulary and pretraining with the keywords that
lctxbench/workloads.py passes, so a change to those constructors fails here
and not only in a benchmark run. Each workload then runs one round under the
benchmark's tracer, whose wrappers call the kernels and Encoder.encode with
fixed signatures, so a call those wrappers cannot take fails here too.

The retrieval heads read row 0 only, and their last (only) layer computes it
without the kernel the tracer's attention wrapper takes. So after its round
the retrieval workload also encodes one long pair and one dense pair with
every row, which does call that kernel."""

import time
from pathlib import Path

import pytest

from lctx import tensor as T
from lctx.attention import AttentionPattern
from lctx.tasks import retrieval_input

BENCH = Path(__file__).resolve().parents[1] / "lctxbench"


def _encode_every_row(workload) -> None:
    row = workload.pools[0][0]
    for kind, model in workload.models.items():
        vocab = model.vocab_
        enc = retrieval_input(vocab.transform(row["query"]), vocab.transform(row["candidate"]),
                              kind)
        pattern = AttentionPattern(window=2 * (len(enc) - 1)) if kind == "dense" else None
        with T.no_grad():
            model.model_.encode([enc], pattern)


@pytest.mark.parametrize("name", ["pretrain", "finetune", "retrieval-long"])
def test_benchmark_workload_setup_runs(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling generators
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    try:
        assert isinstance(workload.setup(), str)  # the digest of its inputs
        with tracing.traced(tracing.Tracer()) as tracer:
            result = workload.round(0, time.perf_counter)
            if name == "retrieval-long":
                _encode_every_row(workload)
        assert result["ops"] == workload.ops_per_round()
        assert tracer.counts["attention.calls"] > 0
    finally:
        workload.cleanup()
