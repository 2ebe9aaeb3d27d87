"""Encoder stack: determinism, locality, dense-reference parity, checkpointing."""

import json

import numpy as np
import pytest

from lctx import attention as attention_module
from lctx import encoder as encoder_module
from lctx import tensor as T
from lctx.attention import AttentionPattern
from lctx.checkpoint import load_params, save_params
from lctx.encoder import Encoder, EncoderConfig, model_marker, read_model_marker
from lctx.vocab import CLS_ID


def tiny_config(**over):
    base = dict(n_layers=1, n_heads=2, hidden_dim=16, ffn_dim=32,
                vocab_size=30, max_positions=32, window=2)
    base.update(over)
    return EncoderConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(n_heads=3, hidden_dim=16)


@pytest.mark.parametrize("over, named", [
    ({"n_layers": 0}, "n_layers"),
    ({"ffn_dim": 0}, "ffn_dim"),
    ({"max_positions": 0}, "max_positions"),
    ({"window": 3}, "window"),
    ({"window": -2}, "window"),
    ({"dilation": (1,)}, "dilation"),
    ({"dilation": (0, -1)}, "dilation"),
], ids=["n-layers", "ffn-dim", "max-positions", "window-odd", "window-negative",
        "dilation-length", "dilation-negative"])
def test_config_ranges_checked_on_construction(over, named):
    with pytest.raises(ValueError, match=named):
        tiny_config(**over)


def write_marker(directory, text=None, **over):
    """A model directory's state.json: `text`, or else tiny_config's marker
    with `over` set in its encoder section."""
    directory.mkdir(exist_ok=True)
    if text is None:
        marker = json.loads(model_marker({"step": 1}, tiny_config()))
        marker["encoder"].update(over)
        text = json.dumps(marker)
    (directory / "state.json").write_text(text, encoding="utf-8")
    return directory / "state.json"


@pytest.mark.parametrize("over, named", [
    ({"n_layers": True}, "encoder.n_layers must be an integer, got true"),
    ({"dilation": [0, "x"]}, 'encoder.dilation must be null or a list of integers, got [0, "x"]'),
    ({"window": 3}, "window"),
    ({"bogus": 1}, "unknown key 'bogus' in the encoder section"),
    ({"text": "n_layers=1\n"}, "Expecting value"),
], ids=["bool", "dilation", "range", "unknown-key", "not-json"])
def test_config_file_errors_name_the_file_and_key(tmp_path, over, named):
    path = write_marker(tmp_path / "m", **over)
    with pytest.raises(ValueError) as info:
        read_model_marker(tmp_path / "m", "state.json")
    assert str(path) in str(info.value) and named in str(info.value)


def test_config_file_roundtrip(tmp_path):
    cfg = tiny_config(dilation=(0, 1))
    (tmp_path / "meta.json").write_text(model_marker({"task": "rc"}, cfg), encoding="utf-8")
    assert read_model_marker(tmp_path, "meta.json") == ({"task": "rc"}, cfg)


def test_config_from_json_list_dilation_roundtrips(tmp_path):
    # a --config JSON file gives dilation as a list
    cfg = tiny_config(dilation=[0, 1])
    (tmp_path / "meta.json").write_text(model_marker({}, cfg), encoding="utf-8")
    assert read_model_marker(tmp_path, "meta.json")[1] == cfg == tiny_config(dilation=(0, 1))


def test_marker_of_the_old_layout_is_refused(tmp_path):
    # before the config moved into the marker, it was key=value lines in model.cfg
    path = write_marker(tmp_path, text='{"step": 1}')
    (tmp_path / "model.cfg").write_text("n_layers=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no encoder section .*model.cfg") as info:
        read_model_marker(tmp_path, "state.json")
    assert str(path) in str(info.value)


def test_marker_without_an_encoder_field_is_refused(tmp_path):
    # a marker without window used to load with the default window 4
    marker = json.loads(model_marker({"step": 1}, tiny_config()))
    del marker["encoder"]["window"], marker["encoder"]["dilation"]
    path = write_marker(tmp_path, text=json.dumps(marker))
    with pytest.raises(ValueError) as info:
        read_model_marker(tmp_path, "state.json")
    assert str(info.value) == f"no 'window', 'dilation' in the encoder section of {path}"


@pytest.mark.parametrize("marker, meta, named", [
    ("state.json", {"step": "100"}, 'step must be an integer, got "100"'),
    ("meta.json", {"task": 5}, "task must be a string, got 5"),
    ("meta.json", {"head_shapes": {"w": [16, "1"]}},
     'head_shapes must be an object of shapes (lists of integers >= 0), got {"w": [16, "1"]}'),
    ("meta.json", {"head_shapes": {"w": [16, -1]}}, "head_shapes must be an object of shapes"),
    ("meta.json", {"step": 1}, "unknown key 'step' in the top level of"),
], ids=["step-string", "task-number", "shape-string", "shape-negative", "key-of-the-other"])
def test_marker_keys_are_typed(tmp_path, marker, meta, named):
    (tmp_path / marker).write_text(model_marker(meta, tiny_config()), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_model_marker(tmp_path, marker)
    assert str(tmp_path / marker) in str(info.value) and named in str(info.value)


def test_marker_without_a_required_key_is_refused(tmp_path):
    (tmp_path / "meta.json").write_text(model_marker({"task": "rc"}, tiny_config()),
                                        encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_model_marker(tmp_path, "meta.json", required=("task", "head_shapes"))
    assert str(info.value) == f"no 'head_shapes' in the top level of {tmp_path / 'meta.json'}"


def test_out_of_range_ids_rejected():
    enc = Encoder(tiny_config(), np.random.default_rng(0))
    with pytest.raises(IndexError):
        enc.encode(np.array([[0, 99]]))
    with pytest.raises(ValueError):
        enc.encode(np.zeros((1, 40), dtype=int))


def test_eval_determinism_bit_identical():
    enc = Encoder(tiny_config(), np.random.default_rng(1))
    ids = np.random.default_rng(2).integers(0, 30, (2, 12))
    with T.no_grad():
        a = enc.encode(ids).data
        b = enc.encode(ids).data
    assert np.array_equal(a, b)


def test_batch_permutation_permutes_outputs():
    enc = Encoder(tiny_config(), np.random.default_rng(3))
    ids = np.random.default_rng(4).integers(0, 30, (3, 10))
    with T.no_grad():
        out = enc.encode(ids).data
        out_swapped = enc.encode(ids[[2, 0, 1]]).data
    np.testing.assert_array_equal(out_swapped, out[[2, 0, 1]])


def test_global_token_locality_one_layer():
    """w=0 + global {0}: token 0 sees everything; token k>0 sees itself and 0."""
    cfg = tiny_config(window=0)
    enc = Encoder(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    L = 8
    ids = rng.integers(5, 30, (1, L))
    pat = AttentionPattern(window=0, global_positions=(0,))
    with T.no_grad():
        base = enc.encode(ids, pattern=pat).data[0]

    def moved_rows(j, new_id):
        flipped = ids.copy()
        flipped[0, j] = new_id
        with T.no_grad():
            out = enc.encode(flipped, pattern=pat).data[0]
        return {i for i in range(L) if np.abs(out[i] - base[i]).max() > 1e-7}

    # perturbing a non-global token j: only rows j (itself) and 0 (global) react
    assert moved_rows(4, 1) <= {0, 4}
    # perturbing token 0 reaches every row
    assert moved_rows(0, 1) == set(range(L))


def test_window_locality_bound():
    """No-global encoder: row i is unaffected by tokens beyond n_layers*(w/2)*(d+1)."""
    cfg = tiny_config(n_layers=2, window=2)
    enc = Encoder(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    L = 16
    ids = rng.integers(5, 30, (1, L))
    pat = AttentionPattern(window=2)
    with T.no_grad():
        base = enc.encode(ids, pattern=pat).data[0]
    flipped = ids.copy()
    flipped[0, 0] = 1
    with T.no_grad():
        out = enc.encode(flipped, pattern=pat).data[0]
    reach = cfg.n_layers * (cfg.window // 2)  # = 2
    changed = {i for i in range(L) if np.abs(out[i] - base[i]).max() > 1e-7}
    assert changed <= set(range(reach + 1))
    assert 0 in changed


def test_full_window_matches_dense_reference():
    cfg = tiny_config(max_positions=16)
    enc = Encoder(cfg, np.random.default_rng(9))
    ids = np.random.default_rng(10).integers(0, 30, (2, 9))
    pat = AttentionPattern(window=2 * (9 - 1), global_positions=(0,))
    with T.no_grad():
        sparse = enc.encode(ids, pattern=pat).data
        dense = enc.encode_dense_reference(ids, pattern=pat).data
    assert np.abs(sparse - dense).max() <= 1e-5


def test_mlm_logits_shape_and_uniform_at_zero():
    cfg = tiny_config()
    enc = Encoder(cfg, np.random.default_rng(11))
    ids = np.zeros((2, 5), dtype=int)
    with T.no_grad():
        hidden = enc.encode(ids)
        logits = enc.mlm_logits(hidden)
    assert logits.shape == (2, 5, cfg.vocab_size)
    enc.mlm_w.data[:] = 0
    enc.mlm_b.data[:] = 0
    with T.no_grad():
        probs = T.softmax(enc.mlm_logits(hidden), axis=-1).data
    np.testing.assert_allclose(probs, 1.0 / cfg.vocab_size, atol=1e-6)


def test_position_type_ids_change_output():
    enc = Encoder(tiny_config(), np.random.default_rng(12))
    ids = np.full((1, 6), CLS_ID)
    with T.no_grad():
        a = enc.encode(ids, position_type_ids=np.zeros((1, 6), dtype=int)).data
        b = enc.encode(ids, position_type_ids=np.ones((1, 6), dtype=int)).data
    assert np.abs(a - b).max() > 1e-4


def test_checkpoint_roundtrip_forward_bit_identical(tmp_path):
    cfg = tiny_config()
    enc = Encoder(cfg, np.random.default_rng(13))
    ids = np.random.default_rng(14).integers(0, 30, (1, 8))
    with T.no_grad():
        before = enc.encode(ids).data.copy()
    path = tmp_path / "enc.ckpt"
    save_params(path, enc.named_params())
    other = Encoder(cfg, np.random.default_rng(999))  # different init
    load_params(path, other.named_params())
    with T.no_grad():
        after = other.encode(ids).data
    assert np.array_equal(before, after)


def test_checkpoint_vocab_mismatch_names_the_parameter(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_params(path, Encoder(tiny_config(), np.random.default_rng(13)).named_params())
    other = Encoder(tiny_config(vocab_size=40), np.random.default_rng(14))
    before = {k: p.data.copy() for k, p in other.named_params().items()}
    with pytest.raises(ValueError, match="'embed.tok'"):
        load_params(path, other.named_params())
    # a rejected checkpoint changes no parameter
    assert all(np.array_equal(p.data, before[k]) for k, p in other.named_params().items())


def test_checkpoint_layer_count_mismatch_lists_the_names(tmp_path):
    two, one = tmp_path / "two.ckpt", tmp_path / "one.ckpt"
    def params(n_layers, seed):
        return Encoder(tiny_config(n_layers=n_layers), np.random.default_rng(seed)).named_params()

    save_params(two, params(2, 13))
    save_params(one, params(1, 13))
    with pytest.raises(ValueError, match="unexpected") as err:
        load_params(two, params(1, 14))
    assert "layer1.w1" in str(err.value) and "layer0" not in str(err.value)
    with pytest.raises(ValueError, match="missing") as err:
        load_params(one, params(2, 14))
    assert "layer1.w1" in str(err.value)


# ---------------------------------------------------------------------------
# the last layer at chosen rows only
# ---------------------------------------------------------------------------


def _count_full_calls(monkeypatch) -> list:
    """The hidden shape of each full sparse_attention_forward call, patched
    in both modules that look it up, as the benchmark's tracer does."""
    calls = []
    real = attention_module.sparse_attention_forward

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    for module in (encoder_module, attention_module):
        monkeypatch.setattr(module, "sparse_attention_forward", counting)
    return calls


@pytest.mark.parametrize("rows, alone, width", [
    ((0,), True, 16), ((0, 4), True, 16), ((4,), True, 16), ((3,), False, 16),
    ((0, 3), False, 16), ((0,), True, 64), ((3,), False, 64),
], ids=["cls", "two-globals", "other-global", "not-global", "mixed", "cls-gemv-width",
        "not-global-gemv-width"])
def test_encode_rows_equals_the_rows_of_encode(rows, alone, width, monkeypatch):
    """Rows that are all global are computed alone in the last layer, with
    no full kernel call there; others fall back to computing every row and
    selecting. Either way the rows have encode()'s bytes at this shape. At
    width 64 numpy's one-row products (gemv) round otherwise than its
    many-row ones (gemm), so there a lone row keeps them only because it
    is carried twice."""
    enc = Encoder(tiny_config(n_layers=2, hidden_dim=width, ffn_dim=2 * width),
                  np.random.default_rng(15))
    ids = np.random.default_rng(16).integers(0, 30, (3, 20))
    pat = AttentionPattern(window=2, global_positions=(0, 4))
    lengths = [20, 17, 12]
    with T.no_grad():
        want = enc.encode(ids, pattern=pat, lengths=lengths).data[:, list(rows)]
        calls = _count_full_calls(monkeypatch)
        got = enc.encode(ids, pattern=pat, lengths=lengths, rows=rows).data
    assert got.shape == (3, len(rows), width)
    assert got.tobytes() == want.tobytes()
    assert len(calls) == (1 if alone else 2)


@pytest.mark.parametrize("width", [16, 64], ids=["width-16", "gemv-width-64"])
def test_encode_rows_of_the_dense_baseline_compute_row_0_alone(width, monkeypatch):
    # the full-window baseline has no global position: its row 0 is
    # computed alone through the local projections, one score row per
    # head, with no full kernel call and no global projection
    enc = Encoder(tiny_config(hidden_dim=width, ffn_dim=2 * width), np.random.default_rng(17))
    ids = np.random.default_rng(18).integers(0, 30, (2, 9))
    pat = AttentionPattern(window=2 * (9 - 1))
    with T.no_grad():
        want = enc.encode(ids, pattern=pat).data[:, :1]
    calls = _count_full_calls(monkeypatch)
    got = enc.encode(ids, pattern=pat, rows=(0,))
    T.reduce_sum(got).backward()
    assert calls == []
    assert got.shape == (2, 1, width)
    assert got.data.tobytes() == want.tobytes()
    attn = enc.layers[0]["attn"]
    assert all(getattr(attn, name).grad is None for name in ("wq_g", "bq_g", "wk_g", "bk_g",
                                                             "wv_g", "bv_g"))
    assert attn.wq.grad is not None


@pytest.mark.parametrize("globals_", [(1,), ()], ids=["global", "no-global"])
@pytest.mark.parametrize("lengths", [None, [11, 7, 2]], ids=["full", "ragged"])
def test_encode_masked_rows_are_the_masked_rows_of_encode(lengths, globals_, monkeypatch):
    """A [B, L] mask gives its True rows in order, [N, H], within the oracle
    bound of encode()'s (one [N, H] product may round otherwise), one
    masked row too; no row of a padded tail is asked for. Without a global
    position the last layer computes the masked rows alone, with no full
    kernel call there; with one it computes every row and keeps those."""
    enc = Encoder(tiny_config(n_layers=2), np.random.default_rng(20))
    ids = np.random.default_rng(21).integers(0, 30, (3, 11))
    pat = AttentionPattern(window=2, global_positions=globals_)
    valid = np.arange(11)[None] < np.asarray(lengths or [11] * 3)[:, None]
    one = np.zeros((3, 11), dtype=bool)
    one[1, 6] = True
    for mask in (np.random.default_rng(22).random((3, 11)) < 0.3, one):
        mask &= valid
        with T.no_grad():
            want = enc.encode(ids, pattern=pat, lengths=lengths).data[mask]
            with monkeypatch.context() as patched:
                calls = _count_full_calls(patched)
                got = enc.encode(ids, pattern=pat, lengths=lengths, rows=mask).data
        assert mask.any() and got.shape == (mask.sum(), 16)
        assert np.abs(got - want).max() <= 1e-5
        assert len(calls) == (2 if globals_ else 1)


def test_encode_masked_rows_under_the_pretraining_pattern_compute_the_last_layer_alone(
        monkeypatch):
    """encode(rows=mask) under the config's own pattern, as MLM pretraining
    calls it, computes the last layer's attention at the masked rows alone:
    the full kernel runs only for the layers before."""
    calls = _count_full_calls(monkeypatch)
    enc = Encoder(tiny_config(n_layers=3, window=4), np.random.default_rng(24))
    ids = np.random.default_rng(25).integers(5, 30, (2, 20))
    mask = np.random.default_rng(26).random((2, 20)) < 0.15
    enc.encode(ids, lengths=[20, 14], rows=mask)
    assert len(calls) == 2


@pytest.mark.parametrize("rows", [
    pytest.param((50,), id="past-the-end"),
    pytest.param((-1,), id="negative"),
    pytest.param((3, 3), id="repeated"),
    pytest.param((1.0,), id="not-integer"),
    pytest.param(np.ones((2, 19), dtype=bool), id="mask-shape"),
    pytest.param(np.ones((2, 20), dtype=np.int64), id="mask-not-boolean"),
])
@pytest.mark.parametrize("pattern", [
    AttentionPattern(4), AttentionPattern(4, None, (0, 3)), AttentionPattern(40),
], ids=["banded", "globals", "covering"])
def test_encode_refuses_rows_that_are_neither_positions_nor_a_mask(pattern, rows):
    """One check, the same under every kind of pattern: positions must be
    distinct and in [0, L), a mask boolean [B, L]."""
    enc = Encoder(tiny_config(), np.random.default_rng(27))
    ids = np.random.default_rng(28).integers(0, 30, (2, 20))
    with pytest.raises(ValueError, match=r"^rows .* are neither distinct positions in "
                                         r"\[0, 20\) nor a boolean \[2, 20\] mask$"):
        enc.encode(ids, pattern=pattern, rows=rows)


def _assert_gradients_match_finite_differences(enc, loss):
    """Analytic float64 gradients of loss(), built with a graph, against
    central differences of loss() without one, at criterion 2's bound, for
    every parameter the loss reaches. Returns the names reached."""
    loss().backward()
    params = enc.named_params()
    reached = {name for name, p in params.items() if p.grad is not None}

    def value():
        with T.no_grad():
            return loss().item()

    h = 1e-3
    fds = {}
    for name in reached:
        flat = params[name].data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = value()
            flat[i] = orig - h
            lo = value()
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * h)
        fds[name] = fd.reshape(params[name].shape)
    scale = max(np.abs(params[n].grad).max() for n in fds)
    for name, fd in fds.items():
        g = params[name].grad
        denom = max(np.abs(g).max(), np.abs(fd).max(), scale)
        assert np.abs(g - fd).max() / denom <= 1e-4, name
    return reached


def test_encode_rows_gradient_matches_finite_differences():
    """Analytic float64 gradients of a loss on row 0 of a 2-layer encoder,
    whose last layer computes row 0 alone, against central differences, at
    criterion 2's bound. The last layer's local projections are not
    reached."""
    cfg = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=8, ffn_dim=16,
                        vocab_size=20, max_positions=12, window=4)
    rng = np.random.default_rng(19)
    enc = Encoder(cfg, rng, dtype=np.float64, init_scale=0.1)
    ids = rng.integers(5, 20, (2, 12))
    pattern = AttentionPattern(window=4, global_positions=(0, 3))
    lengths = [12, 9]
    weights = rng.standard_normal((2, 1, cfg.hidden_dim))

    def loss():
        out = enc.encode(ids, pattern=pattern, lengths=lengths, rows=(0,))
        return T.reduce_sum(T.mul_const(out, weights))

    reached = _assert_gradients_match_finite_differences(enc, loss)
    assert {f"layer1.attn.{n}" for n in ("wq", "bq", "wk", "bk", "wv", "bv")} \
        .isdisjoint(reached)


def test_encode_masked_rows_gradient_matches_finite_differences():
    """Analytic float64 gradients of the MLM loss on masked rows of a
    2-layer encoder, whose last layer computes those rows alone
    (rows_attention's band rows), against central differences, at criterion 2's
    bound. Every parameter but the unused global projections is reached,
    the MLM head included."""
    cfg = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=8, ffn_dim=16,
                        vocab_size=20, max_positions=12, window=4)
    rng = np.random.default_rng(23)
    enc = Encoder(cfg, rng, dtype=np.float64, init_scale=0.1)
    ids = rng.integers(5, 20, (2, 12))
    lengths = [12, 9]
    mask = np.zeros((2, 12), dtype=bool)
    mask[0, [1, 6, 11]] = True
    mask[1, [0, 4]] = True
    labels = rng.integers(5, 20, int(mask.sum()))

    def loss():
        hidden = enc.encode(ids, lengths=lengths, rows=mask)
        return T.cross_entropy(enc.mlm_logits(hidden), labels)

    reached = _assert_gradients_match_finite_differences(enc, loss)
    assert reached == {name for name in enc.named_params()
                       if not (".attn." in name and name.endswith("_g"))}
