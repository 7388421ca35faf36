"""Operator-level microbenchmarks for the compute core.

Times the hot primitives (conv2d forward/backward, depthwise conv, pointwise
conv, max-pool, batch-norm) and an end-to-end MobileNetV2-Tiny inference step,
comparing the stride-trick/fused implementations against the seed's
copy-based im2col implementation (re-created here verbatim).  The
``small_map_kernels_b*`` lanes time the planned executor's small-map conv
kernels against the kernels they replace, at MobileNetV2-Tiny res-20 shapes.
Results are written to ``BENCH_ops.json`` so successive PRs can track the
perf trajectory.

Run with::

    PYTHONPATH=src python benchmarks/bench_ops.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_ops.py --smoke    # CI-sized

This is a standalone script (not a pytest-benchmark suite) so CI can invoke
it cheaply.  Each lane times its new and seed kernels interleaved and records
the median with its quartiles (``<key>_p25`` / ``<key>_p75``) and the host's
CPU count, so a run is read against its own noise.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, set before NumPy loads (as perfbench does): a
    # multi-threaded GEMM on a small shared host swings a lane by several x.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import platform
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro
from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.models import create_model
from repro.runtime import program
from repro.utils import seed_everything


# --------------------------------------------------------------------------- #
# seed (copy-based im2col) reference implementations
# --------------------------------------------------------------------------- #
def _col2im_reference(cols, input_shape, kernel, stride, padding):
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def seed_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride=1, padding=0, groups=1):
    """The seed repo's conv2d: copy-based im2col + grouped einsum + col2im."""
    xd, wd = x.data, weight.data
    n, c_in, h, w = xd.shape
    c_out, c_in_g, kh, kw = wd.shape
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)

    cols = F.im2col_reference(xd, (kh, kw), stride, padding)
    cols_mat = cols.reshape(n, groups, c_in_g * kh * kw, out_h * out_w)
    w_mat = wd.reshape(groups, c_out // groups, c_in_g * kh * kw)
    out = np.einsum("goc,ngcp->ngop", w_mat, cols_mat, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad = np.asarray(grad, dtype=xd.dtype)
        grad_mat = grad.reshape(n, groups, c_out // groups, out_h * out_w)
        if weight.requires_grad:
            grad_w = np.einsum("ngop,ngcp->goc", grad_mat, cols_mat, optimize=True)
            weight._accumulate(grad_w.reshape(wd.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.einsum("goc,ngop->ngcp", w_mat, grad_mat, optimize=True)
            grad_cols = grad_cols.reshape(n, c_in, kh, kw, out_h, out_w)
            x._accumulate(_col2im_reference(grad_cols, xd.shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def seed_max_pool2d(x: Tensor, kernel: int, stride=None, padding=0):
    stride = stride or kernel
    xd = x.data
    n, c, h, w = xd.shape
    cols = F.im2col_reference(xd, (kernel, kernel), stride, padding)
    flat = cols.reshape(n, c, kernel * kernel, cols.shape[4], cols.shape[5])
    return Tensor(flat.max(axis=2))


# --------------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------------- #
def interleaved_ms(fns: dict, repeats: int, warmup: int = 1) -> dict[str, list[float]]:
    """Time each callable ``repeats`` times, one call of each per round.

    The order rotates every round, so slow drift of a shared machine (and
    the cache state one call leaves the next) biases every callable equally.
    """
    for fn in fns.values():
        for _ in range(warmup):
            fn()
    names = list(fns)
    timings: dict[str, list[float]] = {name: [] for name in names}
    for round_index in range(repeats):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            fns[name]()
            timings[name].append((time.perf_counter() - start) * 1e3)
    return timings


def quartiles(key: str, values) -> dict[str, float]:
    """``{key: median, key_p25: ..., key_p75: ...}`` of ``values``."""
    p25, median, p75 = np.percentile(values, [25, 50, 75])
    return {key: float(median), f"{key}_p25": float(p25), f"{key}_p75": float(p75)}


def versus_seed(new_fn, seed_fn, repeats: int) -> dict[str, float]:
    """Interleaved timings of a kernel and its seed re-creation."""
    timings = interleaved_ms({"new": new_fn, "seed": seed_fn}, repeats)
    row = {**quartiles("median_ms", timings["new"]), **quartiles("seed_median_ms", timings["seed"])}
    row["speedup"] = row["seed_median_ms"] / row["median_ms"]
    return row


@contextmanager
def _small_map_kernels_off():
    """Plans built inside run the kernels the small-map rules replace."""
    saved = program._OPERATOR_SIDE, program._GATHER_BUDGET
    program._OPERATOR_SIDE, program._GATHER_BUDGET = 0, -1
    try:
        yield
    finally:
        program._OPERATOR_SIDE, program._GATHER_BUDGET = saved


def small_map_kernels(batch: int, repeats: int) -> dict[str, float]:
    """The small-map conv kernels against the kernels they replace.

    Two float plans of MobileNetV2-Tiny at res 20: one as the rule picks
    (every depthwise conv on the operator matmul, the stem on the gathered
    gemm), one with the small-map rules off (windowed tap-stack / einsum
    depthwise kernels on padded slots, the stem on the windowed einsum).
    Both time their spatial-conv steps (the kernel plus its epilogue, and
    the pad fill and copy that fill a padded slot) and the whole forward,
    interleaved.
    """
    model = create_model("mobilenetv2-tiny", num_classes=16)
    model.eval()
    x = np.random.default_rng(0).normal(size=(batch, 3, 20, 20)).astype(np.float32)
    plan = repro.compile(model).plan(x.shape)
    with _small_map_kernels_off():
        replaced = repro.compile(model).plan(x.shape)

    def conv_steps(p):
        steps = [s for s, label in zip(p.steps, p.step_labels) if label.split(".")[0] in ("dw", "im2col", "fill", "copy")]
        p.run(x)  # leave real values in the arena

        def run():
            for step in steps:
                step()

        return run

    timings = interleaved_ms(
        {
            "new": conv_steps(plan),
            "replaced": conv_steps(replaced),
            "forward": lambda: plan.run(x),
            "replaced_forward": lambda: replaced.run(x),
        },
        repeats,
    )
    row = {
        **quartiles("median_ms", timings["new"]),
        **quartiles("replaced_median_ms", timings["replaced"]),
        **quartiles("forward_median_ms", timings["forward"]),
        **quartiles("replaced_forward_median_ms", timings["replaced_forward"]),
    }
    row["speedup"] = row["replaced_median_ms"] / row["median_ms"]
    row["speedup_forward"] = row["replaced_forward_median_ms"] / row["forward_median_ms"]
    return row


def run_benchmarks(smoke: bool, repeats: int) -> dict:
    seed_everything(0)
    rng = np.random.default_rng(0)
    results: dict[str, dict] = {}

    if smoke:
        conv_x = rng.normal(size=(4, 8, 16, 16)).astype(np.float32)
        conv_w = rng.normal(size=(16, 8, 3, 3)).astype(np.float32)
        dw_x = rng.normal(size=(4, 16, 16, 16)).astype(np.float32)
        dw_w = rng.normal(size=(16, 1, 3, 3)).astype(np.float32)
        pw_w = rng.normal(size=(24, 8, 1, 1)).astype(np.float32)
        pool_x = rng.normal(size=(4, 8, 16, 16)).astype(np.float32)
        bn_x = rng.normal(size=(4, 16, 16, 16)).astype(np.float32)
        infer_batch = 4
        resolution = 16
    else:
        conv_x = rng.normal(size=(16, 16, 28, 28)).astype(np.float32)
        conv_w = rng.normal(size=(32, 16, 3, 3)).astype(np.float32)
        dw_x = rng.normal(size=(16, 32, 28, 28)).astype(np.float32)
        dw_w = rng.normal(size=(32, 1, 3, 3)).astype(np.float32)
        pw_w = rng.normal(size=(48, 16, 1, 1)).astype(np.float32)
        pool_x = rng.normal(size=(16, 16, 28, 28)).astype(np.float32)
        bn_x = rng.normal(size=(16, 32, 28, 28)).astype(np.float32)
        infer_batch = 8
        resolution = 24

    # ---------------------------------------------------------- conv2d forward
    with nn.no_grad():
        results["conv2d_fwd_3x3_s1"] = versus_seed(
            lambda: F.conv2d(Tensor(conv_x), Tensor(conv_w), stride=1, padding=1),
            lambda: seed_conv2d(Tensor(conv_x), Tensor(conv_w), stride=1, padding=1),
            repeats,
        )

    # --------------------------------------------------- conv2d forward+backward
    def fwd_bwd(conv_fn):
        x = Tensor(conv_x, requires_grad=True)
        w = Tensor(conv_w, requires_grad=True)
        out = conv_fn(x, w, stride=1, padding=1)
        out.backward(np.ones_like(out.data))

    results["conv2d_fwd_bwd_3x3_s1"] = versus_seed(
        lambda: fwd_bwd(F.conv2d), lambda: fwd_bwd(seed_conv2d), repeats
    )

    # ------------------------------------------------------------ depthwise conv
    groups = dw_x.shape[1]
    with nn.no_grad():
        results["depthwise_conv_fwd_3x3"] = versus_seed(
            lambda: F.conv2d(Tensor(dw_x), Tensor(dw_w), stride=1, padding=1, groups=groups),
            lambda: seed_conv2d(Tensor(dw_x), Tensor(dw_w), stride=1, padding=1, groups=groups),
            repeats,
        )

    # ------------------------------------------------------------ pointwise conv
    with nn.no_grad():
        results["pointwise_conv_fwd_1x1"] = versus_seed(
            lambda: F.conv2d(Tensor(conv_x), Tensor(pw_w)),
            lambda: seed_conv2d(Tensor(conv_x), Tensor(pw_w)),
            repeats,
        )

    # ---------------------------------------------------------------- max pool
    with nn.no_grad():
        results["max_pool_fwd_2x2"] = versus_seed(
            lambda: F.max_pool2d(Tensor(pool_x), 2),
            lambda: seed_max_pool2d(Tensor(pool_x), 2),
            repeats,
        )

    # -------------------------------------------------------------- batch norm
    gamma = Tensor(np.ones(bn_x.shape[1], dtype=np.float32))
    beta = Tensor(np.zeros(bn_x.shape[1], dtype=np.float32))
    running_mean = np.zeros(bn_x.shape[1], dtype=np.float32)
    running_var = np.ones(bn_x.shape[1], dtype=np.float32)
    with nn.no_grad():
        bn = interleaved_ms(
            {"new": lambda: F.batch_norm2d(Tensor(bn_x), gamma, beta, running_mean, running_var, training=True)},
            repeats,
        )
    results["batch_norm_fwd_train"] = quartiles("median_ms", bn["new"])

    # ----------------------------------------- MobileNetV2-Tiny inference step
    model = create_model("mobilenetv2-tiny", num_classes=16)
    model.eval()
    images = rng.normal(size=(infer_batch, 3, resolution, resolution)).astype(np.float32)
    probe = Tensor(images)
    # The cross-PR trajectory of compiled_median_ms in BENCH_ops.json is the
    # regression record of the planned float program.
    net = repro.compile(model)

    from repro.nn import layers as _layers  # noqa: F401  (layers resolve F.conv2d at call time)

    def eager_step():
        with nn.no_grad():
            model(probe)

    def seed_step():
        original = F.conv2d
        F.conv2d = seed_conv2d
        try:
            with nn.no_grad():
                model(probe)
        finally:
            F.conv2d = original

    infer = interleaved_ms(
        {"compiled": lambda: net.numpy_forward(images), "eager": eager_step, "seed": seed_step},
        repeats,
    )
    row = {
        **quartiles("compiled_median_ms", infer["compiled"]),
        **quartiles("eager_median_ms", infer["eager"]),
        **quartiles("seed_median_ms", infer["seed"]),
    }
    compiled_t, eager_t, seed_t = (row[f"{k}_median_ms"] for k in ("compiled", "eager", "seed"))
    row.update(
        speedup=seed_t / compiled_t,
        speedup_eager_vs_seed=seed_t / eager_t,
        speedup_compiled_vs_eager=eager_t / compiled_t,
    )
    results["mobilenetv2_tiny_infer"] = row

    # --------------------------- small-map conv kernels vs what they replace
    for batch in (1, 8):
        results[f"small_map_kernels_b{batch}"] = small_map_kernels(batch, repeats * 3)

    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes / few repeats (CI)")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per op")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_ops.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()
    repeats = args.repeats if args.repeats is not None else (3 if args.smoke else 11)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    results = run_benchmarks(smoke=args.smoke, repeats=repeats)
    report = {
        "suite": "bench_ops",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benchmarks": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(name) for name in results)
    print(f"{'benchmark':<{width}s} {'median ms':>10s} {'seed ms':>10s} {'speedup':>8s}")
    for name, stats in results.items():
        median = stats.get("median_ms", stats.get("compiled_median_ms"))
        seed = stats.get("seed_median_ms")
        speed = stats.get("speedup")
        print(
            f"{name:<{width}s} {median:>10.3f} "
            f"{seed if seed is not None else float('nan'):>10.3f} "
            f"{speed if speed is not None else float('nan'):>8.2f}"
        )
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
