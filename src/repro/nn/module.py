"""Module system: parameters, buffers and composable network components.

The design mirrors the familiar ``torch.nn.Module`` contract at a much
smaller scale: modules register :class:`Parameter` attributes and child
modules automatically, support train/eval switching, and can export /
import flat state dictionaries for checkpointing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Chain", "Sequential", "Identity", "ModuleList"]


class Parameter(Tensor):
    """A trainable tensor; automatically registered by :class:`Module`."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all network components.

    Subclasses define parameters/child modules in ``__init__`` and implement
    :meth:`forward`.  Attribute assignment handles registration, so the usual
    idiom applies::

        class Block(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(8, 16, 3)

            def forward(self, x):
                return self.conv(x)
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable state array (e.g. BN running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def children(self) -> list["Module"]:
        return list(self._modules.values())

    def named_children(self) -> list[tuple[str, "Module"]]:
        return list(self._modules.items())

    def get_submodule(self, path: str) -> "Module":
        """Return the child module addressed by a dotted ``path``."""
        module: Module = self
        if path == "":
            return module
        for part in path.split("."):
            if part not in module._modules:
                raise KeyError(f"no submodule named {path!r} (missing {part!r})")
            module = module._modules[part]
        return module

    def set_submodule(self, path: str, new_module: "Module") -> None:
        """Replace the child module addressed by a dotted ``path``."""
        if path == "":
            raise ValueError("cannot replace the root module")
        *parents, leaf = path.split(".")
        parent = self.get_submodule(".".join(parents))
        if leaf not in parent._modules:
            raise KeyError(f"no submodule named {path!r}")
        setattr(parent, leaf, new_module)

    # ------------------------------------------------------------------ #
    # train / eval and gradient management
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        for param in self.parameters():
            param.requires_grad = flag
        return self

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing = []
        for name, value in state.items():
            if name in params:
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                params[name].data[...] = value
            elif name in buffers:
                buffers[name][...] = value
            elif strict:
                missing.append(name)
        if strict:
            absent = (set(params) | set(buffers)) - set(state)
            if missing or absent:
                raise KeyError(f"unexpected keys {missing}, missing keys {sorted(absent)}")

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines)


class Identity(Module):
    """A no-op module, handy as a placeholder after layer removal."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Chain(Module):
    """Run child modules in registration order, then add the input back if
    :attr:`use_residual` is set.

    Every block and model of the zoo, and every NetBooster expanded block, is
    a chain: the order in which its ``__init__`` registers children is its
    forward, and the compile tracer and the contraction step read the same
    order.  Every registered child runs, so register only modules meant to run.
    """

    use_residual = False

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for module in self._modules.values():
            out = module(out)
        if self.use_residual:
            out = out + x
        return out


class Sequential(Chain):
    """Run child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self


class ModuleList(Module):
    """A list container whose elements are registered as child modules."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        for index, module in enumerate(modules or []):
            setattr(self, str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called directly")
