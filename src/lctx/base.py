"""The fitted-state check: a model's fit() sets attributes suffixed with `_`,
and a method that needs them names the misuse of calling it before fit()."""


class NotFittedError(RuntimeError):
    pass


def check_fitted(model, attribute: str) -> None:
    if not hasattr(model, attribute):
        raise NotFittedError(f"{type(model).__name__} is not fitted yet; call fit() first")
