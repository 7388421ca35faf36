"""Unit tests for NetBooster's contraction: BN folding, kernel merging, exactness."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    ExpansionConfig,
    PLTSchedule,
    add_identity_to_kernel,
    contract_block,
    contract_network,
    densify_grouped_kernel,
    expand_network,
    fuse_conv_bn,
    merge_sequential_kernels,
)
from repro.core.expansion import (
    ExpandedBasicBlock,
    ExpandedBottleneck,
    ExpandedInvertedResidual,
)
from repro.eval import count_complexity, count_parameters
from repro.models import mobilenet_v2
from repro.nn import functional as F


def _randomise_bn(module: nn.Module, rng: np.random.Generator) -> None:
    """Give BatchNorms non-trivial statistics so folding is actually exercised."""
    for _, m in module.named_modules():
        if isinstance(m, nn.BatchNorm2d):
            m.running_mean[...] = rng.normal(0, 0.5, m.num_features)
            m.running_var[...] = rng.uniform(0.5, 1.5, m.num_features)
            m.weight.data[...] = rng.normal(1.0, 0.2, m.num_features)
            m.bias.data[...] = rng.normal(0, 0.2, m.num_features)


class TestFuseConvBn:
    def test_fused_conv_matches_conv_then_bn(self, rng):
        conv = nn.Conv2d(3, 5, 3, padding=1, bias=True)
        bn = nn.BatchNorm2d(5)
        _randomise_bn(bn, rng)
        bn.eval()
        x = nn.Tensor(rng.random((2, 3, 7, 7)).astype(np.float32))
        expected = bn(conv(x)).numpy()

        weight, bias = fuse_conv_bn(conv.weight.data, conv.bias.data, bn)
        fused = F.conv2d(x, nn.Tensor(weight), nn.Tensor(bias), stride=1, padding=1)
        np.testing.assert_allclose(fused.numpy(), expected, rtol=1e-4, atol=1e-5)

    def test_fuse_without_bias(self, rng):
        conv = nn.Conv2d(4, 4, 1, bias=False)
        bn = nn.BatchNorm2d(4)
        _randomise_bn(bn, rng)
        bn.eval()
        weight, bias = fuse_conv_bn(conv.weight.data, None, bn)
        assert weight.shape == conv.weight.shape
        assert bias.shape == (4,)


class TestDensifyGroupedKernel:
    def test_identity_for_single_group(self, rng):
        w = rng.random((4, 3, 1, 1)).astype(np.float32)
        assert densify_grouped_kernel(w, 1) is w

    def test_depthwise_densification_preserves_function(self, rng):
        channels = 6
        w = rng.random((channels, 1, 3, 3)).astype(np.float32)
        dense = densify_grouped_kernel(w, channels)
        assert dense.shape == (channels, channels, 3, 3)
        x = nn.Tensor(rng.random((2, channels, 5, 5)).astype(np.float32))
        grouped_out = F.conv2d(x, nn.Tensor(w), padding=1, groups=channels)
        dense_out = F.conv2d(x, nn.Tensor(dense), padding=1, groups=1)
        np.testing.assert_allclose(grouped_out.numpy(), dense_out.numpy(), rtol=1e-5, atol=1e-6)

    def test_two_group_densification(self, rng):
        w = rng.random((4, 2, 1, 1)).astype(np.float32)
        dense = densify_grouped_kernel(w, 2)
        x = nn.Tensor(rng.random((1, 4, 3, 3)).astype(np.float32))
        np.testing.assert_allclose(
            F.conv2d(x, nn.Tensor(w), groups=2).numpy(),
            F.conv2d(x, nn.Tensor(dense)).numpy(),
            rtol=1e-5,
            atol=1e-6,
        )


class TestMergeSequentialKernels:
    def test_pointwise_chain_exact(self, rng):
        w1 = rng.random((8, 3, 1, 1)).astype(np.float32)
        b1 = rng.random(8).astype(np.float32)
        w2 = rng.random((5, 8, 1, 1)).astype(np.float32)
        b2 = rng.random(5).astype(np.float32)
        merged_w, merged_b = merge_sequential_kernels(w1, b1, w2, b2)
        assert merged_w.shape == (5, 3, 1, 1)

        x = nn.Tensor(rng.random((2, 3, 6, 6)).astype(np.float32))
        expected = F.conv2d(F.conv2d(x, nn.Tensor(w1), nn.Tensor(b1)), nn.Tensor(w2), nn.Tensor(b2))
        merged = F.conv2d(x, nn.Tensor(merged_w), nn.Tensor(merged_b))
        np.testing.assert_allclose(merged.numpy(), expected.numpy(), rtol=1e-4, atol=1e-5)

    def test_general_kernel_sizes_match_paper_formula(self, rng):
        """Merging a 3x3 then a 3x3 conv gives a 5x5 conv (Eq. 3-4).

        The merge is exact when the second convolution reads no zero-padded
        positions of the intermediate map (always true for the 1x1 chains
        NetBooster builds); here the second convolution uses padding 0.
        """
        w1 = rng.random((4, 2, 3, 3)).astype(np.float32)
        w2 = rng.random((3, 4, 3, 3)).astype(np.float32)
        merged_w, merged_b = merge_sequential_kernels(w1, None, w2, None)
        assert merged_w.shape == (3, 2, 5, 5)
        np.testing.assert_allclose(merged_b, np.zeros(3), atol=1e-7)

        x = nn.Tensor(rng.random((1, 2, 9, 9)).astype(np.float32))
        expected = F.conv2d(F.conv2d(x, nn.Tensor(w1), padding=1), nn.Tensor(w2), padding=0)
        merged = F.conv2d(x, nn.Tensor(merged_w), padding=1)
        np.testing.assert_allclose(merged.numpy(), expected.numpy(), rtol=1e-3, atol=1e-4)

    def test_mixed_kernel_sizes(self, rng):
        w1 = rng.random((4, 2, 1, 1)).astype(np.float32)
        w2 = rng.random((3, 4, 3, 3)).astype(np.float32)
        merged_w, _ = merge_sequential_kernels(w1, None, w2, None)
        assert merged_w.shape == (3, 2, 3, 3)
        x = nn.Tensor(rng.random((1, 2, 7, 7)).astype(np.float32))
        expected = F.conv2d(F.conv2d(x, nn.Tensor(w1)), nn.Tensor(w2), padding=1)
        merged = F.conv2d(x, nn.Tensor(merged_w), padding=1)
        np.testing.assert_allclose(merged.numpy(), expected.numpy(), rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        w1 = rng.random((4, 2, 1, 1)).astype(np.float32)
        w2 = rng.random((3, 5, 1, 1)).astype(np.float32)
        with pytest.raises(ValueError):
            merge_sequential_kernels(w1, None, w2, None)


class TestAddIdentity:
    def test_identity_addition_equals_residual(self, rng):
        w = rng.random((4, 4, 1, 1)).astype(np.float32)
        with_identity = add_identity_to_kernel(w)
        x = nn.Tensor(rng.random((2, 4, 5, 5)).astype(np.float32))
        expected = F.conv2d(x, nn.Tensor(w)) + x
        np.testing.assert_allclose(
            F.conv2d(x, nn.Tensor(with_identity)).numpy(), expected.numpy(), rtol=1e-5, atol=1e-6
        )

    def test_requires_square_channels(self, rng):
        with pytest.raises(ValueError):
            add_identity_to_kernel(rng.random((3, 4, 1, 1)).astype(np.float32))

    def test_requires_odd_kernel(self, rng):
        with pytest.raises(ValueError):
            add_identity_to_kernel(rng.random((3, 3, 2, 2)).astype(np.float32))


class TestContractBlock:
    @pytest.mark.parametrize(
        "block_cls", [ExpandedInvertedResidual, ExpandedBasicBlock, ExpandedBottleneck]
    )
    @pytest.mark.parametrize("channels", [(6, 10), (8, 8)])
    def test_contraction_is_exact_for_linear_blocks(self, block_cls, channels, rng):
        in_c, out_c = channels
        block = block_cls(in_c, out_c, expansion_ratio=4)
        _randomise_bn(block, rng)
        block.eval()
        for act in block.decayable_activations():
            act.set_alpha(1.0)
        x = nn.Tensor(rng.random((3, in_c, 7, 7)).astype(np.float32))
        expected = block(x).numpy()
        conv = contract_block(block)
        conv.eval()
        np.testing.assert_allclose(conv(x).numpy(), expected, rtol=1e-3, atol=1e-4)
        assert conv.kernel_size == 1
        assert conv.in_channels == in_c and conv.out_channels == out_c

    def test_contract_refuses_nonlinear_block(self):
        block = ExpandedInvertedResidual(4, 4)
        with pytest.raises(RuntimeError):
            contract_block(block)

    def test_force_contraction_without_linearity(self):
        block = ExpandedInvertedResidual(4, 4)
        conv = contract_block(block, require_linear=False)
        assert isinstance(conv, nn.Conv2d)


class TestContractNetwork:
    def _linearised_giant(self, rng, fraction=0.5):
        model = mobilenet_v2("tiny", num_classes=8)
        giant, records = expand_network(model, ExpansionConfig(fraction=fraction))
        # Populate BN statistics with a few training-mode forward passes.
        giant.train()
        x = nn.Tensor(rng.random((8, 3, 24, 24)).astype(np.float32))
        for _ in range(3):
            giant(x)
        PLTSchedule(giant, total_steps=1).finalize()
        return model, giant, records

    def test_contracted_model_matches_giant_outputs(self, rng):
        model, giant, records = self._linearised_giant(rng)
        giant.eval()
        x = nn.Tensor(rng.random((4, 3, 24, 24)).astype(np.float32))
        expected = giant(x).numpy()
        contracted = contract_network(giant, records)
        contracted.eval()
        np.testing.assert_allclose(contracted(x).numpy(), expected, rtol=1e-3, atol=1e-4)

    def test_contracted_model_restores_original_complexity_exactly(self, rng):
        model, giant, records = self._linearised_giant(rng, fraction=1.0)
        contracted = contract_network(giant, records)
        original = count_complexity(model, (3, 24, 24))
        restored = count_complexity(contracted, (3, 24, 24))
        assert restored.flops == original.flops
        assert restored.params == original.params

    def test_contraction_requires_linearity_by_default(self, rng):
        model = mobilenet_v2("tiny", num_classes=8)
        giant, records = expand_network(model, ExpansionConfig(fraction=0.5))
        with pytest.raises(RuntimeError):
            contract_network(giant, records)

    def test_contracting_twice_fails_cleanly(self, rng):
        _, giant, records = self._linearised_giant(rng)
        contracted = contract_network(giant, records)
        with pytest.raises(TypeError):
            contract_network(contracted, records)

    def test_quantized_giant_raises_a_typed_error(self, rng):
        from repro.compress import quantize_model

        _, giant, records = self._linearised_giant(rng)
        quantize_model(giant)
        with pytest.raises(TypeError, match=r"'expand_conv' is a QuantizedConv2d.*before quantize_model"):
            contract_network(giant, records)

    def test_giant_left_intact_unless_inplace(self, rng):
        _, giant, records = self._linearised_giant(rng)
        params_before = count_parameters(giant)
        contract_network(giant, records)
        assert count_parameters(giant) == params_before
        contract_network(giant, records, inplace=True)
        assert count_parameters(giant) < params_before
