"""The benchmark's workloads set themselves up against this checkout: each
builds its heads, vocabulary and pretraining with the keywords that
lctxbench/workloads.py passes, so a change to those constructors fails here
and not only in a benchmark run. The finetune and retrieval-long workloads
then run one round under the benchmark's tracer, whose wrappers call the
kernels with fixed signatures, so a kernel signature those wrappers cannot
take fails here too."""

import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "lctxbench"


@pytest.mark.parametrize("name", ["pretrain", "finetune", "retrieval-long"])
def test_benchmark_workload_setup_runs(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling generators
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    try:
        assert isinstance(workload.setup(), str)  # the digest of its inputs
        if name != "pretrain":
            with tracing.traced(tracing.Tracer()) as tracer:
                result = workload.round(0, time.perf_counter)
            assert result["ops"] == workload.ops_per_round()
            assert tracer.counts["attention.calls"] > 0
    finally:
        workload.cleanup()
