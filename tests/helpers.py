"""Shared test helpers (gradient checking, tensor factories, artifact tampering).

Kept in a uniquely-named module (not ``conftest.py``) so ``from helpers
import ...`` resolves unambiguously regardless of pytest's rootdir ordering —
``benchmarks/conftest.py`` would otherwise shadow ``tests/conftest.py`` on
``sys.path``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["numerical_gradient", "assert_gradients_close", "make_tensor", "rewrite_header"]


def numerical_gradient(func, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    iterator = np.nditer(array, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = func()
        array[index] = original - eps
        minus = func()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
    return grad


def assert_gradients_close(analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-5):
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=atol)


def make_tensor(shape, rng: np.random.Generator | None = None, requires_grad: bool = True) -> Tensor:
    rng = rng or np.random.default_rng(0)
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad, dtype=np.float64)


def rewrite_header(path, **fields) -> None:
    """Set top-level fields of a compiled artifact's header in place, state untouched."""
    with np.load(path, allow_pickle=False) as data:
        entries = {name: data[name] for name in data.files}
    header = json.loads(bytes(entries["__header__"]).decode("utf-8"))
    header.update(fields)
    entries["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as handle:  # np.savez(path) would append .npz
        np.savez(handle, **entries)
