"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# moment decay rates and denominator guard of Adam's original presentation
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3):
        self.learning_rate = float(learning_rate)
        self.step = 0
        self.first_moment = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.second_moment = {k: np.zeros_like(p.data) for k, p in params.items()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flatten moments + step into named arrays for checkpointing."""
        out = {f"m.{k}": v for k, v in self.first_moment.items()}
        out.update({f"v.{k}": v for k, v in self.second_moment.items()})
        out["step"] = np.asarray([float(self.step)], dtype=np.float32)
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Take moments and step from state_arrays()'s names, at its shapes."""
        for k in self.first_moment:
            self.first_moment[k] = arrays[f"m.{k}"].copy()
            self.second_moment[k] = arrays[f"v.{k}"].copy()
        self.step = int(arrays["step"][0])


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update from the parameters' .grad buffers.

    A parameter with no gradient this step counts as a zero gradient: its
    moments decay, and it still moves by the step they give. Non-finite
    gradients are a checked error.
    """
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / c1
        vhat = v / c2
        p.data -= (state.learning_rate * mhat / (np.sqrt(vhat) + EPSILON)).astype(p.data.dtype)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
