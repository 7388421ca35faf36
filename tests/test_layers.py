"""Unit tests for the layer modules (Conv2d, Linear, BatchNorm2d, pooling)."""

import numpy as np
import pytest

from repro import nn


class TestConv2d:
    def test_output_shape(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(nn.Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 8, 8, 8)

    def test_depthwise_groups(self):
        conv = nn.Conv2d(6, 6, 3, padding=1, groups=6)
        assert conv.weight.shape == (6, 1, 3, 3)
        out = conv(nn.Tensor(np.zeros((1, 6, 5, 5), dtype=np.float32)))
        assert out.shape == (1, 6, 5, 5)

    def test_bias_optional(self):
        assert nn.Conv2d(3, 4, 1, bias=False).bias is None
        assert nn.Conv2d(3, 4, 1, bias=True).bias is not None

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 4, 1, groups=2)

    def test_parameters_registered(self):
        conv = nn.Conv2d(3, 4, 3)
        names = dict(conv.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_gradient_flows_to_weight(self):
        conv = nn.Conv2d(2, 3, 3, padding=1)
        out = conv(nn.Tensor(np.random.rand(1, 2, 4, 4).astype(np.float32)))
        (out * out).sum().backward()
        assert conv.weight.grad is not None
        assert conv.weight.grad.shape == conv.weight.shape


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        layer = nn.Linear(5, 3)
        x = rng.normal(size=(4, 5)).astype(np.float32)
        out = layer(nn.Tensor(x))
        expected = x @ layer.weight.numpy().T + layer.bias.numpy()
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-5, atol=1e-6)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestBatchNorm2d:
    def test_running_stats_update_only_in_training(self, rng):
        bn = nn.BatchNorm2d(4)
        x = nn.Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)).astype(np.float32))
        bn.eval()
        bn(x)
        np.testing.assert_allclose(bn.running_mean, np.zeros(4))
        bn.train()
        bn(x)
        assert np.abs(bn.running_mean).sum() > 0

    def test_eval_after_training_approximates_normalisation(self, rng):
        bn = nn.BatchNorm2d(3, momentum=0.5)
        x = nn.Tensor(rng.normal(1.0, 2.0, size=(16, 3, 6, 6)).astype(np.float32))
        for _ in range(20):
            bn(x)
        bn.eval()
        out = bn(x).numpy()
        assert abs(out.mean()) < 0.2
        assert abs(out.std() - 1.0) < 0.2

    def test_state_dict_contains_buffers(self):
        bn = nn.BatchNorm2d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state


class TestPoolingAndMisc:
    def test_global_avg_pool_and_flatten(self):
        model = nn.Sequential(nn.GlobalAvgPool2d(), nn.Flatten())
        out = model(nn.Tensor(np.ones((2, 7, 3, 3), dtype=np.float32)))
        assert out.shape == (2, 7)

    def test_dropout_respects_training_flag(self):
        drop = nn.Dropout(0.9, seed=0)
        x = nn.Tensor(np.ones((10, 10), dtype=np.float32))
        drop.eval()
        np.testing.assert_allclose(drop(x).numpy(), x.numpy())
        drop.train()
        assert (drop(x).numpy() == 0).any()
