"""Tests for the planned float inference runtime and the stride-trick conv core."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.core.expansion import EXPANDED_BLOCK_TYPES, ExpansionConfig, expand_network
from repro.core.plt import PLTSchedule
from repro.nn import functional as F
from repro.models import create_model
from repro.models.blocks import BasicBlock, Bottleneck, ConvBNAct, InvertedResidual
from repro.runtime import CompiledNet


def _randomize_bn_stats(model: nn.Module, rng: np.random.Generator) -> None:
    """Give every BatchNorm non-trivial running statistics so folding is exercised."""
    for _, module in model.named_modules():
        if isinstance(module, nn.BatchNorm2d):
            module.running_mean[...] = rng.normal(0.0, 0.2, size=module.num_features)
            module.running_var[...] = rng.uniform(0.5, 1.5, size=module.num_features)


# The expanded MobileNetV2-Tiny giant, one per block type (the paper's default
# keeps the plain name).  Each has a residual site (``features.1``) and
# several non-residual ones.
GIANTS = {
    "mobilenetv2-tiny-giant" + ("" if block_type == "inverted_residual" else f"-{block_type}"): block_type
    for block_type in EXPANDED_BLOCK_TYPES
}


def _mid_plt_giant(block_type: str) -> nn.Module:
    """The expanded MobileNetV2-Tiny giant, 4 of 10 PLT steps in."""
    model, _ = expand_network(
        create_model("mobilenetv2-tiny", num_classes=8), ExpansionConfig(block_type=block_type)
    )
    schedule = PLTSchedule(model, total_steps=10)
    for _ in range(4):
        schedule.step()
    return model


def _bn_first_basic_block(channels: int) -> BasicBlock:
    """A residual block whose body starts with a standalone BN + activation."""
    block = BasicBlock(channels, channels)
    block.conv1.conv = nn.Identity()
    return block


class TestIm2ColEquivalence:
    """The zero-copy im2col must match the seed's copy-based reference."""

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [((3, 3), 1, 0), ((3, 3), 1, 1), ((3, 3), 2, 1), ((5, 5), 2, 2), ((1, 1), 1, 0), ((2, 2), 2, 0)],
    )
    def test_matches_reference(self, rng, kernel, stride, padding):
        x = rng.normal(size=(2, 3, 9, 9))
        fast = F.im2col(x, kernel, stride, padding)
        reference = F.im2col_reference(x, kernel, stride, padding)
        assert fast.shape == reference.shape
        np.testing.assert_allclose(np.asarray(fast), reference)

    def test_zero_copy_view(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, (3, 3), stride=1, padding=0)
        assert cols.base is not None  # a view, not a materialised buffer

    @pytest.mark.parametrize("stride,padding,groups", [(1, 1, 1), (2, 1, 2), (1, 0, 4), (2, 2, 1)])
    def test_conv2d_matches_reference_im2col_path(self, rng, stride, padding, groups):
        """Grouped/strided/padded conv agrees with the explicit im2col formulation."""
        n, c_in, c_out, k = 2, 4, 8, 3
        x = rng.normal(size=(n, c_in, 7, 7))
        w = rng.normal(size=(c_out, c_in // groups, k, k))
        out = F.conv2d(
            nn.Tensor(x, dtype=np.float64),
            nn.Tensor(w, dtype=np.float64),
            stride=stride,
            padding=padding,
            groups=groups,
        ).numpy()
        cols = F.im2col_reference(x, (k, k), stride, padding)
        oh, ow = cols.shape[4], cols.shape[5]
        cols_mat = cols.reshape(n, groups, (c_in // groups) * k * k, oh * ow)
        w_mat = w.reshape(groups, c_out // groups, (c_in // groups) * k * k)
        expected = np.einsum("goc,ngcp->ngop", w_mat, cols_mat).reshape(n, c_out, oh, ow)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)


class TestCompiledNet:
    @pytest.mark.parametrize("name", ["mobilenetv2-tiny", "mcunet", *GIANTS])
    def test_compiled_matches_eager_model(self, rng, name):
        if name in GIANTS:
            # The expanded giant mid-PLT: its expanded blocks trace to typed
            # conv/BN/activation nodes; the replaced conv's BN, after a
            # residual expanded block, stays a standalone BN with a fused
            # activation.
            model = _mid_plt_giant(GIANTS[name])
        else:
            model = create_model(name, num_classes=8)
        _randomize_bn_stats(model, rng)
        model.eval()
        net = repro.compile(model)
        assert isinstance(net, CompiledNet)
        for batch in (1, 3, 4, 8):
            x = rng.normal(size=(batch, 3, 20, 20)).astype(np.float32)
            with nn.no_grad():
                eager = model(nn.Tensor(x)).numpy()
            compiled = net.numpy_forward(x)
            np.testing.assert_allclose(compiled, eager, rtol=1e-4, atol=1e-4)
        assert "eager" not in net.ops

    @pytest.mark.parametrize("block_type", list(EXPANDED_BLOCK_TYPES))
    def test_quantized_giant_compiles_to_int8(self, rng, block_type):
        """A calibrated giant lowers to the integer engine with no eager node."""
        model = _mid_plt_giant(block_type)
        _randomize_bn_stats(model, rng)
        model.eval()
        quantize_model(model)
        calibrate(model, [rng.normal(0.2, 0.8, size=(8, 3, 16, 16)).astype(np.float32) for _ in range(2)])
        net = repro.compile(model, mode="int8")
        batch = rng.normal(0.2, 0.8, size=(8, 3, 16, 16)).astype(np.float32)
        rows = net.numpy_forward(batch)
        assert "eager" not in net.ops
        for size in (1, 2):
            for start in range(0, len(batch), size):
                part = net.numpy_forward(batch[start : start + size])
                np.testing.assert_array_equal(part, rows[start : start + size])

    @pytest.mark.parametrize(
        "in_channels,block",
        [
            (3, lambda: ConvBNAct(3, 8, kernel_size=3, stride=2)),
            (6, lambda: InvertedResidual(6, 6, stride=1, expand_ratio=4)),  # residual path
            (6, lambda: InvertedResidual(6, 8, stride=2, expand_ratio=1, kernel_size=5)),
            (5, lambda: BasicBlock(5, 5)),
            (8, lambda: Bottleneck(8, 8)),
            (4, lambda: _bn_first_basic_block(4)),  # in-place BN + act on the identity
        ],
    )
    def test_compiled_blocks_match_eager(self, rng, in_channels, block):
        module = block()
        _randomize_bn_stats(module, rng)
        module.eval()
        x = rng.normal(size=(2, in_channels, 12, 12)).astype(np.float32)
        with nn.no_grad():
            eager = module(nn.Tensor(x)).numpy()
        compiled = repro.compile(module).numpy_forward(x)
        np.testing.assert_allclose(compiled, eager, rtol=1e-4, atol=1e-4)

    def test_decayable_activations_supported(self, rng):
        """PLT-annealed giants (leaky / interpolated ReLU6) compile exactly."""
        block = ConvBNAct(3, 6, kernel_size=3)
        block.act = nn.DecayableReLU6(alpha=0.4)
        _randomize_bn_stats(block, rng)
        block.eval()
        x = rng.normal(size=(2, 3, 10, 10)).astype(np.float32)
        with nn.no_grad():
            eager = block(nn.Tensor(x)).numpy()
        compiled = repro.compile(block).numpy_forward(x)
        np.testing.assert_allclose(compiled, eager, rtol=1e-4, atol=1e-4)

    def test_unknown_module_falls_back_to_eager(self, rng):
        class Odd(nn.Module):
            def __init__(self):
                super().__init__()
                self.linear = nn.Linear(6, 4)

            def forward(self, x):
                return self.linear(x).tanh() * 2.0

        model = Odd()
        x = rng.normal(size=(3, 6)).astype(np.float32)
        with nn.no_grad():
            eager = model(nn.Tensor(x)).numpy()
        compiled = repro.compile(model).numpy_forward(x)
        np.testing.assert_allclose(compiled, eager, rtol=1e-5, atol=1e-6)

    def test_accepts_tensor_and_returns_detached_tensor(self, rng):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        model.eval()
        net = repro.compile(model)
        out = net(nn.Tensor(rng.normal(size=(1, 3, 16, 16)).astype(np.float32)))
        assert isinstance(out, nn.Tensor)
        assert not out.requires_grad

    def test_residual_does_not_clobber_input(self, rng):
        block = InvertedResidual(6, 6, stride=1, expand_ratio=2)
        block.eval()
        x = rng.normal(size=(1, 6, 8, 8)).astype(np.float32)
        x_before = x.copy()
        repro.compile(block).numpy_forward(x)
        np.testing.assert_array_equal(x, x_before)

    def test_compiled_evaluate_matches_eager_evaluate(self, rng):
        from repro.data import ClassificationDataset
        from repro.train import evaluate

        model = create_model("mobilenetv2-tiny", num_classes=3)
        _randomize_bn_stats(model, rng)
        images = rng.normal(size=(30, 3, 16, 16)).astype(np.float32)
        labels = np.arange(30) % 3
        dataset = ClassificationDataset(images, labels, 3)
        assert evaluate(model, dataset, compiled=True) == evaluate(model, dataset, compiled=False)
