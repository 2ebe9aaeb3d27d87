"""Adam update rule and checkpoint round-trips."""

import os
import signal
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

import lctx
from lctx import tensor as T
from lctx.tensor import Tensor
from lctx.checkpoint import load_arrays, save_arrays
from lctx.optim import AdamState, adam_step, zero_grads


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    params = {"p": p}
    state = AdamState(params, learning_rate=0.1)
    adam_step(params, state)
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_first_step_is_signed_lr():
    # bias correction cancels at t=1, so the step is ~ -sign(g) * lr
    p = Tensor([1.0, 1.0, 1.0], requires_grad=True)
    p.grad = np.array([0.5, -2.0, 1e-3], dtype=np.float32)
    params = {"p": p}
    state = AdamState(params, learning_rate=0.01)
    adam_step(params, state)
    np.testing.assert_allclose(p.data, 1.0 - 0.01 * np.sign(p.grad), atol=1e-4)


def test_quadratic_bowl_converges():
    p = Tensor([3.0], requires_grad=True)
    params = {"p": p}
    state = AdamState(params, learning_rate=0.1)
    for _ in range(200):
        p.grad = 2.0 * p.data  # d/dx x^2
        adam_step(params, state)
    assert abs(p.data[0]) < 1e-2


def test_step_counter_increments():
    p = Tensor([0.0], requires_grad=True)
    params = {"p": p}
    state = AdamState(params)
    for expected in (1, 2, 3):
        p.grad = np.ones(1, dtype=np.float32)
        adam_step(params, state)
        assert state.step == expected


def test_non_finite_gradient_rejected():
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([np.nan], dtype=np.float32)
    params = {"p": p}
    with pytest.raises(FloatingPointError):
        adam_step(params, AdamState(params))


def test_state_roundtrip_through_checkpoint(tmp_path):
    rng = np.random.default_rng(0)
    params = {"a": Tensor(rng.standard_normal(4), requires_grad=True),
              "b": Tensor(rng.standard_normal((2, 3)), requires_grad=True)}
    state = AdamState(params, learning_rate=0.05)
    for _ in range(3):
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        adam_step(params, state)

    save_arrays(tmp_path / "opt.ckpt", state.state_arrays())
    restored = AdamState(params, learning_rate=0.05)
    restored.load_arrays(load_arrays(tmp_path / "opt.ckpt"))
    assert restored.step == state.step
    for k in params:
        np.testing.assert_array_equal(restored.first_moment[k], state.first_moment[k])
        np.testing.assert_array_equal(restored.second_moment[k], state.second_moment[k])

    # continuing from the restored state is bit-identical to continuing in place
    snap = {k: p.data.copy() for k, p in params.items()}
    g = {k: rng.standard_normal(p.shape).astype(np.float32) for k, p in params.items()}
    for k, p in params.items():
        p.grad = g[k].copy()
    adam_step(params, state)
    after_live = {k: p.data.copy() for k, p in params.items()}
    for k, p in params.items():
        p.data = snap[k].copy()
        p.grad = g[k].copy()
    adam_step(params, restored)
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, after_live[k])


def test_zero_grads():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    zero_grads({"p": p})
    assert p.grad is None


class TestCheckpointFormat:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {
            "embed.tok": rng.standard_normal((7, 3)).astype(np.float32),
            "scalar": np.asarray([2.5], dtype=np.float32),
            "层.权重": rng.standard_normal(5).astype(np.float32),  # UTF-8 names
        }
        path = tmp_path / "m.ckpt"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, {"x": np.zeros((2, 3), dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == b"LCTX"
        assert int.from_bytes(blob[4:8], "little") == 2      # version
        assert int.from_bytes(blob[8:12], "little") == 1     # count
        assert int.from_bytes(blob[12:16], "little") == 1    # name length
        assert blob[16:17] == b"x"
        assert int.from_bytes(blob[17:21], "little") == 2    # rank
        assert int.from_bytes(blob[21:29], "little") == 2    # dim 0 (u64)
        assert int.from_bytes(blob[29:37], "little") == 3    # dim 1 (u64)
        assert len(blob) == 37 + 4 * 6 + 4                   # f32 payload, crc32
        # the checksum covers the record from the name length through the payload
        assert int.from_bytes(blob[-4:], "little") == zlib.crc32(blob[12:-4])

    def test_version_1_file_loads(self, tmp_path):
        # the layout before checksums: no crc32 after each payload
        w = np.arange(6, dtype=np.float32).reshape(2, 3)
        blob = (b"LCTX" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
                + (1).to_bytes(4, "little") + b"w" + (2).to_bytes(4, "little")
                + (2).to_bytes(8, "little") + (3).to_bytes(8, "little") + w.tobytes()
                + (1).to_bytes(4, "little") + b"b" + (1).to_bytes(4, "little")
                + (2).to_bytes(8, "little") + np.ones(2, dtype=np.float32).tobytes())
        path = tmp_path / "v1.ckpt"
        path.write_bytes(blob)
        loaded = load_arrays(path)
        assert list(loaded) == ["w", "b"]
        np.testing.assert_array_equal(loaded["w"], w)
        np.testing.assert_array_equal(loaded["b"], np.ones(2, dtype=np.float32))

    def test_flipped_payload_byte_names_the_file_and_the_array(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "层.b": np.ones(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[-6] ^= 0x01                                     # a payload byte of the last array
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="m.ckpt: checksum mismatch in array '层.b'"):
            load_arrays(path)

    def test_every_flipped_byte_is_a_named_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "b": np.ones(2, dtype=np.float32)})
        blob = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            with pytest.raises(ValueError, match="bad.ckpt"):
                load_arrays(bad)

    def test_truncated_file_is_a_named_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "b": np.ones(2, dtype=np.float32)})
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ValueError, match="cut.ckpt"):
                load_arrays(cut)
        cut.write_bytes(blob[:-1])
        with pytest.raises(ValueError, match="payload of array 'b'"):
            load_arrays(cut)

    def test_killed_write_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, {"w": np.arange(6, dtype=np.float32)})
        before = path.read_bytes()
        # a child process is killed (SIGKILL, no cleanup) between two arrays
        script = textwrap.dedent("""
            import os, signal, sys
            import numpy as np
            from lctx.checkpoint import save_arrays

            class KilledAfterOneArray(dict):
                def items(self):
                    for i, item in enumerate(super().items()):
                        if i == 1:
                            os.kill(os.getpid(), signal.SIGKILL)
                        yield item

            save_arrays(sys.argv[1], KilledAfterOneArray(
                w=np.ones(6, np.float32), b=np.ones(2, np.float32)))
        """)
        src = str(Path(lctx.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == -signal.SIGKILL
        assert (tmp_path / "m.ckpt.tmp").exists()       # the write had begun
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_arrays(path)["w"], np.arange(6, dtype=np.float32))
        # the next save replaces both the stale temporary and the file
        save_arrays(path, {"b": np.ones(2, dtype=np.float32)})
        assert list(load_arrays(path)) == ["b"]
        assert not (tmp_path / "m.ckpt.tmp").exists()

    def test_failed_write_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, {"w": np.arange(6, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_arrays(path, {"w": np.ones(6, np.float32), "bad": np.array(["x"])})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_arrays(path)
