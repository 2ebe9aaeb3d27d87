"""Estimator plumbing: sklearn-style get_params/set_params and input checks.

Estimators here follow the scikit-learn protocol (constructor args stored
verbatim, fitted attributes suffixed with underscore) so they compose with
that ecosystem's pipelines and cloning without importing it.
"""

from __future__ import annotations

import inspect

import numpy as np


class ParamMixin:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name, p in sig.parameters.items()
                if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self


class NotFittedError(RuntimeError):
    pass


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first")


def check_random_state(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

