"""Flat-parameter buffers: optimiser state as a few contiguous arrays.

The eager optimisers walk the parameter list in Python, issuing a handful of
small NumPy ops per parameter per step — for a MobileNetV2-scale model that is
hundreds of interpreter round-trips per update.  :class:`FlatParams` instead
rebinds every trainable parameter's ``data`` to a *view* into one contiguous
buffer (and every ``grad`` to a view into a parallel gradient buffer), after
which SGD with momentum/Nesterov/weight-decay becomes a handful of vectorised
in-place ops over the whole model at once.

Because the autograd tape accumulates gradients with ``param.grad += g`` when
a gradient buffer is already bound (see ``Tensor._accumulate``), the eager
backward pass writes straight into the flat gradient buffer — no gather step
is needed in :meth:`FlatSGD.step`.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Parameter
from .sgd import SGD

__all__ = ["FlatParams", "FlatSGD"]


class FlatParams:
    """View a list of parameters as one contiguous data/grad buffer pair.

    Parameters
    ----------
    params:
        Trainable parameters.  Duplicates (shared parameters) are kept once.

    Attributes
    ----------
    data:
        1-D ``float32`` buffer; each parameter's ``data`` is a reshaped view
        into it, so in-place updates on either side are immediately visible
        on the other.
    grad:
        1-D gradient buffer of the same size; :meth:`bind_grads` points each
        parameter's ``grad`` at its slice.
    params:
        The deduplicated parameter list, in traversal order.
    """

    def __init__(self, params: list[Parameter]):
        seen: set[int] = set()
        unique: list[Parameter] = []
        for param in params:
            if id(param) not in seen:
                seen.add(id(param))
                unique.append(param)
        for param in unique:
            if param.data.dtype != np.float32:
                # Rebinding into the float32 buffer would silently downcast.
                raise TypeError(
                    f"FlatParams requires float32 parameters, got {param.data.dtype}; "
                    "use the per-parameter SGD for mixed-precision models"
                )
        self.params = unique
        total = int(sum(p.data.size for p in unique))
        self.data = np.empty(total, dtype=np.float32)
        self.grad = np.zeros(total, dtype=np.float32)
        self._data_views: list[np.ndarray] = []
        self._grad_views: list[np.ndarray] = []
        offset = 0
        for param in unique:
            size = param.data.size
            data_view = self.data[offset : offset + size].reshape(param.data.shape)
            grad_view = self.grad[offset : offset + size].reshape(param.data.shape)
            np.copyto(data_view, param.data)
            param.data = data_view
            self._data_views.append(data_view)
            self._grad_views.append(grad_view)
            offset += size

    @property
    def size(self) -> int:
        """Total number of scalar parameters in the buffer."""
        return self.data.size

    def bind_grads(self) -> None:
        """Zero the gradient buffer and point every ``param.grad`` at it.

        After this, tape accumulation (``grad += g``) lands directly in
        :attr:`grad`; no per-parameter gather is needed before an update.
        """
        self.grad.fill(0.0)
        for param, view in zip(self.params, self._grad_views):
            param.grad = view

    def sync_grads(self) -> None:
        """Re-absorb gradients that were rebound away from the flat buffer.

        Code that calls ``model.zero_grad()`` (setting ``grad = None``) makes
        the next backward pass allocate a fresh gradient array; this folds
        such strays back into the flat buffer and re-binds the views.
        """
        for index, (param, view) in enumerate(zip(self.params, self._grad_views)):
            grad = param.grad
            if grad is view:
                continue
            if grad is None:
                view.fill(0.0)
            else:
                np.copyto(view, grad)
            param.grad = view

    def check_bound(self) -> bool:
        """True while every parameter's ``data`` is still a flat-buffer view."""
        return all(p.data is v for p, v in zip(self.params, self._data_views))


class FlatSGD(SGD):
    """Drop-in :class:`~repro.optim.sgd.SGD` over a flat parameter buffer.

    The update math is element-wise identical to ``SGD`` (same operations in
    the same order per element), so swapping it in does not change training
    trajectories — it only collapses the per-parameter Python loop into ~5
    whole-model vectorised ops with zero per-step allocations.

    Notes
    -----
    Parameters whose gradient never arrives are treated as having a zero
    gradient (the flat buffer is dense): with ``weight_decay > 0`` they decay
    towards zero, where the eager ``SGD`` would skip them entirely.  Inside
    the training loop every live parameter receives a gradient each step, so
    the trajectories coincide.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(params, lr, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
        self.flat = FlatParams(self.params)
        # Re-point the (deduplicated) parameter list at the flat ordering.
        self.params = self.flat.params
        self._velocity_flat = np.zeros(self.flat.size, dtype=np.float32) if momentum else None
        self._scratch = np.empty(self.flat.size, dtype=np.float32)
        self._scratch2 = np.empty(self.flat.size, dtype=np.float32) if nesterov else None
        self.flat.bind_grads()

    def zero_grad(self) -> None:
        """Zero the flat gradient buffer and re-bind every ``param.grad``."""
        self.flat.bind_grads()

    def step(self) -> None:
        """One vectorised update over the whole flat buffer.

        Element-wise the operations and their order match ``SGD.step``
        exactly, so the two optimisers produce bit-identical trajectories.
        """
        self.flat.sync_grads()
        data, grad, scratch = self.flat.data, self.flat.grad, self._scratch
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=scratch)
            scratch += grad
            update = scratch
        else:
            update = grad
        if self.momentum:
            velocity = self._velocity_flat
            velocity *= self.momentum
            velocity += update
            if self.nesterov:
                if update is not scratch:
                    np.copyto(scratch, update)
                    update = scratch
                np.multiply(velocity, self.momentum, out=self._scratch2)
                update += self._scratch2
            else:
                update = velocity
        # The final scaled step goes through the scratch buffer so the
        # gradient and velocity buffers survive the update unmodified.
        np.multiply(update, self.lr, out=scratch)
        data -= scratch

    def state_dict(self) -> dict:
        """Optimiser state as flat arrays (velocity buffer + learning rate).

        The parameter buffer itself is *not* included — it aliases the
        model's parameters and belongs to the model checkpoint.
        """
        velocity = self._velocity_flat
        return {
            "velocity": velocity.copy() if velocity is not None else np.empty(0, np.float32),
            "lr": np.float64(self.lr),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place (buffers keep identity)."""
        velocity = np.asarray(state["velocity"], dtype=np.float32)
        if self._velocity_flat is None:
            if velocity.size:
                raise ValueError("checkpoint has momentum state but momentum is disabled")
        else:
            if velocity.size != self._velocity_flat.size:
                raise ValueError(
                    f"velocity size mismatch: checkpoint {velocity.size} vs "
                    f"model {self._velocity_flat.size}"
                )
            np.copyto(self._velocity_flat, velocity)
        self.lr = float(state["lr"])
