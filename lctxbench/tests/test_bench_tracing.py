import sys

import numpy as np
import pytest

import tracing
import workloads
from lctx import tensor as T
from lctx.encoder import Encoder, EncoderConfig


def _span(name, start, end, parent=-1, origin=-1):
    return [name, start, end, parent, origin]


def test_self_time_subtracts_child_spans():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, parent=0),
             _span("c", 2.0, 3.0, parent=1),
             _span("d", 5.0, 9.0, parent=0),
             _span("e", 11.0, 12.0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    # nested spans of one name count once; siblings add up
    assert tracing.outer_total(spans, {"a", "b"}) == pytest.approx(10.0)
    assert tracing.outer_total(spans, {"b", "d"}) == pytest.approx(7.0)


def test_backward_time_is_booked_to_the_creating_span():
    spans = [_span("tensor.matmul", 0.0, 1.0),
             _span("tensor.backward", 2.0, 6.0),
             _span(tracing.BACKWARD, 2.5, 4.0, parent=1, origin=0)]
    assert tracing.backward_total(spans, lambda i: spans[i][0] == "tensor.matmul") == 1.5
    assert tracing.self_times(spans)[1] == pytest.approx(2.5)


def _attributes():
    """Identity of every attribute of every lctx module and lctx class."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lctx" or name.startswith("lctx.")):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("lctx"):
                for key, member in vars(value).items():
                    snap[(name, attr, key)] = id(member)
    return snap


def test_traced_wrappers_restore_every_patched_attribute():
    tracing.install(tracing.Tracer())  # imports every traced module, then undo
    before = _attributes()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        during = _attributes()
        changed = {k for k in before if during.get(k) != before[k]}
        # by-name imports are patched too
        assert ("lctx.encoder", "sparse_attention_forward") in changed
        assert ("lctx.attention", "make_op") in changed
        assert ("lctx.tasks.model", "adam_step") in changed
        assert ("lctx.tensor", "Tensor", "backward") in changed
    assert _attributes() == before


def test_traced_encode_reports_every_per_layer_metric():
    cfg = EncoderConfig(n_layers=1, n_heads=2, hidden_dim=16, ffn_dim=32, vocab_size=20,
                        max_positions=32, window=4)
    enc = Encoder(cfg, np.random.default_rng(0))
    ids = np.random.default_rng(1).integers(5, 20, size=(2, 24))
    alloc = tracing.Tracer(measure_alloc=True)
    with tracing.traced(alloc):
        enc.encode(ids)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        t0 = tracing.time.perf_counter()
        loss = T.reduce_mean(enc.mlm_logits(enc.encode(ids)))
        loss.backward()
        wall = tracing.time.perf_counter() - t0
    assert not tracing.tracemalloc.is_tracing()
    metrics = tracing.layer_metrics(tracer, 1, wall, wall, examples=2,
                                    peak_alloc_bytes=alloc.peak_alloc_bytes)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["attention.calls"] == 1
    assert metrics["attention.bwd_s"] > 0 and metrics["tensor.matmul_bwd_s"] > 0
    assert metrics["attention.peak_alloc_mib"] > 0
    assert metrics["work.tokens"] == ids.size
    assert metrics["tensor.ops"] == metrics["tensor.ops_per_example"] * 2
    # band of 5 slots per row, minus the slots that fall off either end
    assert metrics["attention.slot_fill_ratio"] == pytest.approx(
        (24 * 5 - 2 * 3) / (24 * 5))
    assert metrics["trace.unattributed_s"] >= 0


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert workloads.tail_percentile(values) == (90.0, 90)
    assert workloads.tail_percentile(values[:40]) == (75.0, 30)
    assert workloads.tail_percentile(values[:15]) == (100.0, 15)
    assert workloads.percentile(values, 50) == 50
