"""Spans and counters recorded from the benchmark's side of each layer boundary.

The library is not modified: a traced run wraps public functions and methods
of the layers (``repro.data``, ``repro.train``, ``repro.optim``,
``repro.core``, ``repro.runtime``, ``repro.compress``) for the duration of
:func:`instrument` and restores them afterwards.  Untraced runs never install
the wrappers, so end-to-end metrics are measured without their cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time


class Tracer:
    """In-memory span tree plus named counters, for one benchmark run.

    Spans are recorded on the thread that drives the benchmark; every layer
    call the wrappers see there nests under the span open at that moment.
    A disabled tracer records nothing, so untraced runs pay one attribute
    check per explicit span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.phase = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def _under(self, root: str | None):
        """Spans nested (at any depth) under the first span named ``root``."""
        if root is None:
            return self.spans
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        inside = []
        for i, s in enumerate(self.spans):
            parent = s[3]
            while parent != -1 and parent not in roots:
                parent = self.spans[parent][3]
            if parent != -1 or i in roots:
                inside.append(s)
        return inside

    def durations(self, name: str, root: str | None = None) -> list[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [s[2] - s[1] for s in self._under(root) if s[0] == name and s[2] is not None]

    def total_ms(self, name: str, root: str | None = None) -> float:
        return 1e3 * sum(self.durations(name, root))

    def mean_ms(self, name: str, root: str | None = None) -> float:
        values = self.durations(name, root)
        return 1e3 * sum(values) / len(values) if values else 0.0

    def child_total_ms(self, root: str) -> float:
        """Summed duration of the direct children of span ``root``."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        return 1e3 * sum(s[2] - s[1] for s in self.spans if s[3] in roots and s[2] is not None)

    def dump(self, path: str) -> None:
        """Write the span tree and counters as JSON (relative times in ms)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start_ms": 1e3 * (a - t0), "end_ms": 1e3 * (b - t0), "parent": p}
            for n, a, b, p in self.spans
            if b is not None
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": self.counters}, fh)


def _patch(restore: list, owner, attr: str, wrapper_factory) -> None:
    original = getattr(owner, attr)
    restore.append((owner, attr, original))
    setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public entry points with spans for the ``with`` body.

    ``tracer.phase`` labels training steps (``giant``, ``plt``, ``vanilla``);
    the pipeline sets it before each ``fit``.
    """
    if not tracer.enabled:
        yield
        return
    import repro.runtime
    import repro.runtime.frontend
    import repro.train.trainer
    from repro.core.plt import PLTSchedule
    from repro.data.dataloader import DataLoader
    from repro.optim.flat import FlatSGD
    from repro.runtime.training import TrainStep
    from repro.train.trainer import Trainer

    restore: list = []

    def spanned(name):
        def factory(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return factory

    def train_step_factory(original):
        def wrapper(self, *args, **kwargs):
            fused_before = tracer.counters.get("runtime.train_steps", 0)
            with tracer.span(f"train.{tracer.phase}_step"):
                result = original(self, *args, **kwargs)
            if tracer.counters.get("runtime.train_steps", 0) == fused_before:
                tracer.count("train.eager_steps")
            tracer.count("train.steps")
            return result

        return wrapper

    def fused_step_factory(original):
        def wrapper(self, *args, **kwargs):
            tracer.count("runtime.train_steps")
            with tracer.span("runtime.train_step"):
                return original(self, *args, **kwargs)

        return wrapper

    def loader_iter_factory(original):
        def wrapper(self):
            # Only batches drawn by fit count as data wait; evaluate's
            # loader time belongs to train.eval.
            iterator = original(self)
            if tracer.current() != "train.fit":
                yield from iterator
                return
            while True:
                with tracer.span("data.wait"):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def compile_factory(original):
        def wrapper(model, mode="infer", *args, **kwargs):
            name = "runtime.int8_compile" if str(mode).lower() in ("int8", "quantized") else "runtime.compile"
            with tracer.span(name):
                return original(model, mode, *args, **kwargs)

        return wrapper

    try:
        _patch(restore, Trainer, "fit", spanned("train.fit"))
        _patch(restore, Trainer, "train_step", train_step_factory)
        _patch(restore, TrainStep, "__call__", fused_step_factory)
        _patch(restore, FlatSGD, "step", spanned("optim.step"))
        _patch(restore, DataLoader, "__iter__", loader_iter_factory)
        _patch(restore, PLTSchedule, "step", spanned("core.plt_step"))
        _patch(restore, repro.train.trainer, "evaluate", spanned("train.eval"))
        # repro.compile and the library's own `from ..runtime import
        # compile_model` resolve these two names at call time.
        _patch(restore, repro.runtime.frontend, "compile_model", compile_factory)
        restore.append((repro.runtime, "compile_model", repro.runtime.compile_model))
        repro.runtime.compile_model = repro.runtime.frontend.compile_model
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
