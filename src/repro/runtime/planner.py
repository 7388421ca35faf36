"""Static memory planner for compiled inference programs.

Every activation (and scratch) buffer of a compiled program is requested from
an :class:`ArenaPlanner` during lowering, together with the *lifetime* implied
by the op schedule (the step that writes it and the last step that reads it).
After lowering, :meth:`ArenaPlanner.solve` packs all buffers into one flat
arena with the classic greedy offset-assignment used by MCU deployment stacks
(TFLite-Micro style): buffers are placed largest-first at the lowest offset
that does not collide with any already-placed buffer whose lifetime overlaps.
Two buffers may therefore share the same bytes whenever their live ranges are
disjoint — execution touches a single preallocated allocation and the
steady-state inference path performs **zero** heap allocation.

The planner also produces the deployment-relevant accounting: the peak
simultaneous working set in *logical int8 bytes* (one byte per activation
element, the format the engine models on-device), which is the number
:func:`repro.eval.deployment.peak_activation_memory` approximates analytically
as ``max(layer input + output)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Buffer", "ArenaPlanner", "MemoryPlan", "IOPlan", "plan_io"]


class Buffer:
    """A planner-managed array slot with an explicit live range.

    Attributes
    ----------
    shape:
        Array shape of the slot (element dtype is the arena's ``float32``;
        values held are integer grid points for quantized tensors).
    kind:
        ``"value"`` for op inputs/outputs (counted by the activation
        accounting) or ``"scratch"`` for kernel-internal staging buffers
        (reported separately — analytic SRAM models ignore them).
    birth, death:
        First / last step index at which the slot's contents are live.
    a:
        The backing ``ndarray`` view; assigned by :meth:`ArenaPlanner.solve`.
    """

    __slots__ = ("shape", "size", "kind", "name", "birth", "death", "offset", "a")

    def __init__(self, shape: tuple[int, ...], kind: str, name: str):
        self.shape = tuple(int(s) for s in shape)
        self.size = int(np.prod(self.shape)) if self.shape else 1
        self.kind = kind
        self.name = name
        self.birth: int | None = None
        self.death: int | None = None
        self.offset = -1
        self.a: np.ndarray | None = None

    def touch(self, step: int) -> None:
        """Extend the live range to cover ``step`` (first touch sets birth)."""
        if self.birth is None or step < self.birth:
            self.birth = step
        if self.death is None or step > self.death:
            self.death = step

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Buffer({self.name}, {self.shape}, steps {self.birth}..{self.death}, off {self.offset})"


@dataclass
class MemoryPlan:
    """Result of arena packing, with deployment-style accounting.

    ``peak_value_int8_bytes`` is the planner's peak simultaneous working set
    over *value* buffers at one logical byte per activation element — directly
    comparable to
    :func:`repro.eval.deployment.peak_activation_memory(..., bytes_per_element=1)`.
    ``constant_bytes`` counts the host bytes of constant arrays the program
    reads outside the arena (conv kernels' spatial operators and gather
    indices), so the arena size does not hide them.
    """

    arena_elements: int
    arena_bytes_host: int
    peak_value_int8_bytes: int
    peak_total_int8_bytes: int
    buffers: list = field(default_factory=list)
    constant_bytes: int = 0

    def summary(self) -> str:
        lines = [
            f"arena             : {self.arena_elements} elements "
            f"({self.arena_bytes_host / 1024:.1f} kB host float32)",
            f"peak working set  : {self.peak_value_int8_bytes / 1024:.2f} kB int8 activations "
            f"({self.peak_total_int8_bytes / 1024:.2f} kB incl. scratch)",
            f"buffers           : {len(self.buffers)}",
            f"constants         : {self.constant_bytes / 1024:.1f} kB host outside the arena "
            "(spatial operators, gather indices)",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class IOPlan:
    """Per-request serving buffer sizes derived from a compiled executor.

    The serving fleet moves request/response tensors through fixed-size
    ``multiprocessing.shared_memory`` slots; this is the planner-backed sizing
    contract for one slot.  A slot holds the request's input tensor and its
    output tensor side by side (``slot_elements = input + output``) so the
    input survives the reply — a redispatch after a replica crash or a corrupt
    reply re-reads the original bytes instead of asking the client again.

    ``peak_value_int8_bytes`` carries the executor's arena-planner working-set
    accounting (``None`` for backends without a memory plan, e.g. eager
    callables), so fleet capacity math can sit next to the per-replica SRAM
    numbers the deployment reports use.
    """

    input_shape: tuple[int, ...]
    input_elements: int
    output_shape: tuple[int, ...]
    output_elements: int
    peak_value_int8_bytes: int | None = None

    @property
    def slot_elements(self) -> int:
        return self.input_elements + self.output_elements

    @property
    def slot_bytes(self) -> int:
        """Bytes per shared-memory slot (float32 wire format)."""
        return self.slot_elements * 4

    def summary(self) -> str:
        peak = (
            f"{self.peak_value_int8_bytes / 1024:.2f} kB planned peak"
            if self.peak_value_int8_bytes is not None
            else "no memory plan"
        )
        return (
            f"slot: {self.input_elements} in + {self.output_elements} out elements "
            f"({self.slot_bytes} B); replica working set: {peak}"
        )


def plan_io(net, input_shape: tuple[int, ...]) -> IOPlan:
    """Derive a serving :class:`IOPlan` from an executor and per-sample shape.

    ``net`` is anything servable — a compiled executor with ``numpy_forward``
    (:class:`~repro.runtime.CompiledNet` / :class:`~repro.runtime.QuantizedNet`)
    or a bare callable.  The output shape comes from one batch-1 probe
    forward; when the executor exposes ``memory_plan`` the arena planner's
    peak working set is attached as well.
    """
    input_shape = tuple(int(s) for s in input_shape)
    forward = net.numpy_forward if hasattr(net, "numpy_forward") else net
    probe = np.zeros((1,) + input_shape, dtype=np.float32)
    out = np.asarray(forward(probe))
    output_shape = tuple(int(s) for s in out.shape[1:])
    peak = None
    if hasattr(net, "memory_plan"):
        peak = int(net.memory_plan((1,) + input_shape).peak_value_int8_bytes)
    return IOPlan(
        input_shape=input_shape,
        input_elements=int(np.prod(input_shape)) if input_shape else 1,
        output_shape=output_shape,
        output_elements=int(np.prod(output_shape)) if output_shape else 1,
        peak_value_int8_bytes=peak,
    )


class ArenaPlanner:
    """Collects buffer requests during lowering, then packs them into an arena."""

    def __init__(self):
        self.buffers: list[Buffer] = []
        self.constants: dict[int, np.ndarray] = {}
        self._step = 0

    # ------------------------------------------------------------------ #
    # lowering-time API
    # ------------------------------------------------------------------ #
    @property
    def step(self) -> int:
        """Index of the next step to be emitted."""
        return self._step

    def advance(self) -> int:
        """Mark the start of a new execution step; returns its index."""
        self._step += 1
        return self._step

    def alloc(self, shape: tuple[int, ...], kind: str = "value", name: str = "") -> Buffer:
        """Request a buffer; its live range is set by subsequent touches."""
        buf = Buffer(shape, kind, name or f"buf{len(self.buffers)}")
        self.buffers.append(buf)
        return buf

    def constant(self, array: np.ndarray) -> np.ndarray:
        """Record a constant array the program reads outside the arena (a
        kernel's operator or index); returns it."""
        self.constants[id(array)] = array
        return array

    # ------------------------------------------------------------------ #
    # packing
    # ------------------------------------------------------------------ #
    def solve(self) -> tuple[np.ndarray, MemoryPlan]:
        """Pack all requested buffers and return ``(arena, plan)``.

        Greedy offset assignment: process buffers by decreasing size, place
        each at the lowest offset that does not overlap (in offset space) any
        already-placed buffer with an overlapping live range.  The arena is
        exactly ``plan.arena_elements`` long: every buffer is a contiguous
        slice inside it, and no kernel reads past a buffer's end.
        """
        for buf in self.buffers:  # never-touched requests get a zero-length life
            if buf.birth is None:
                buf.birth = buf.death = 0
        placed: list[Buffer] = []
        for buf in sorted(self.buffers, key=lambda b: (-b.size, b.birth)):
            conflicts = sorted(
                (
                    (p.offset, p.offset + p.size)
                    for p in placed
                    if p.birth <= buf.death and buf.birth <= p.death
                ),
            )
            offset = 0
            for lo, hi in conflicts:
                if offset + buf.size <= lo:
                    break
                offset = max(offset, hi)
            buf.offset = offset
            placed.append(buf)
        total = max((b.offset + b.size for b in self.buffers), default=0)
        arena = np.zeros(total, dtype=np.float32)
        for buf in self.buffers:
            buf.a = arena[buf.offset : buf.offset + buf.size].reshape(buf.shape)
        peak_value, peak_total = self._peaks()
        plan = MemoryPlan(
            arena_elements=total,
            arena_bytes_host=total * 4,
            peak_value_int8_bytes=peak_value,
            peak_total_int8_bytes=peak_total,
            buffers=list(self.buffers),
            constant_bytes=sum(a.nbytes for a in self.constants.values()),
        )
        return arena, plan

    def _peaks(self) -> tuple[int, int]:
        """Peak simultaneous live bytes at 1 byte / element, by buffer kind."""
        peak_value = peak_total = 0
        for step in range(self._step + 1):
            live = [b for b in self.buffers if b.birth <= step <= b.death]
            value = sum(b.size for b in live if b.kind == "value")
            total = sum(b.size for b in live)
            peak_value = max(peak_value, value)
            peak_total = max(peak_total, total)
        return peak_value, peak_total
