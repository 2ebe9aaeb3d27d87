"""Encoder stack: determinism, locality, dense-reference parity, checkpointing."""

import numpy as np
import pytest

from lctx import tensor as T
from lctx.attention import AttentionPattern
from lctx.encoder import CLS_ID, Encoder, EncoderConfig


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


@pytest.mark.parametrize("line, named", [
    ("n_layers=True", "n_layers=True"),
    ("dilation=0,x", "dilation=0,x"),
    ("window=3", "window"),
], ids=["bool", "dilation", "range"])
def test_config_file_errors_name_the_file_and_key(tmp_path, line, named):
    path = tmp_path / "model.cfg"
    tiny_config().save(path)
    key = line.partition("=")[0]
    path.write_text("".join(f"{line}\n" if old.startswith(key + "=") else f"{old}\n"
                            for old in path.read_text().splitlines()))
    with pytest.raises(ValueError) as info:
        EncoderConfig.load(path)
    assert str(path) in str(info.value) and named in str(info.value)


def test_config_file_roundtrip(tmp_path):
    cfg = tiny_config(dilation=(0, 1))
    path = tmp_path / "model.cfg"
    cfg.save(path)
    assert EncoderConfig.load(path) == cfg
    with pytest.raises(KeyError):
        (tmp_path / "bad.cfg").write_text("nonsense=1\n")
        EncoderConfig.load(tmp_path / "bad.cfg")


def test_config_from_json_list_dilation_roundtrips(tmp_path):
    # a --config JSON file gives dilation as a list
    cfg = tiny_config(dilation=[0, 1])
    cfg.save(tmp_path / "model.cfg")
    assert EncoderConfig.load(tmp_path / "model.cfg") == cfg == tiny_config(dilation=(0, 1))


def test_config_file_with_dropout_line_still_loads(tmp_path):
    # model.cfg files written before dropout was removed carry a dropout=
    # line; it is skipped on load and no longer written
    old = ("n_layers=1\nn_heads=2\nhidden_dim=16\nffn_dim=32\nvocab_size=30\n"
           "max_positions=32\nn_position_types=2\nwindow=2\ndilation=\ndropout=0.0\n")
    (tmp_path / "old.cfg").write_text(old)
    cfg = EncoderConfig.load(tmp_path / "old.cfg")
    assert cfg == tiny_config()
    cfg.save(tmp_path / "new.cfg")
    assert (tmp_path / "new.cfg").read_text() == old.replace("dropout=0.0\n", "")


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
    enc.save(path)
    other = Encoder(cfg, np.random.default_rng(999))  # different init
    other.load(path)
    with T.no_grad():
        after = other.encode(ids).data
    assert np.array_equal(before, after)


def test_checkpoint_vocab_mismatch_names_the_parameter(tmp_path):
    path = tmp_path / "enc.ckpt"
    Encoder(tiny_config(), np.random.default_rng(13)).save(path)
    other = Encoder(tiny_config(vocab_size=40), np.random.default_rng(14))
    before = {k: p.data.copy() for k, p in other.named_params().items()}
    with pytest.raises(ValueError, match="'embed.tok'"):
        other.load(path)
    # a rejected checkpoint changes no parameter
    assert all(np.array_equal(p.data, before[k]) for k, p in other.named_params().items())


def test_checkpoint_layer_count_mismatch_lists_the_names(tmp_path):
    two, one = tmp_path / "two.ckpt", tmp_path / "one.ckpt"
    Encoder(tiny_config(n_layers=2), np.random.default_rng(13)).save(two)
    Encoder(tiny_config(), np.random.default_rng(13)).save(one)
    with pytest.raises(ValueError, match="unexpected") as err:
        Encoder(tiny_config(), np.random.default_rng(14)).load(two)
    assert "layer1.w1" in str(err.value) and "layer0" not in str(err.value)
    with pytest.raises(ValueError, match="missing") as err:
        Encoder(tiny_config(n_layers=2), np.random.default_rng(14)).load(one)
    assert "layer1.w1" in str(err.value)
