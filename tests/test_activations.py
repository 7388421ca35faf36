"""Unit tests for activation modules, especially the decayable activations."""

import numpy as np
import pytest

from repro import nn


class TestStandardActivations:
    def test_relu(self):
        out = nn.ReLU()(nn.Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.numpy(), [0.0, 2.0])

    def test_relu6_clips_both_sides(self):
        out = nn.ReLU6()(nn.Tensor(np.array([-3.0, 3.0, 9.0])))
        np.testing.assert_allclose(out.numpy(), [0.0, 3.0, 6.0])


class TestDecayableReLU:
    def test_alpha_zero_is_relu(self, rng):
        act = nn.DecayableReLU(alpha=0.0)
        x = nn.Tensor(rng.normal(size=(20,)).astype(np.float32))
        np.testing.assert_allclose(act(x).numpy(), np.maximum(x.numpy(), 0))

    def test_alpha_one_is_identity(self, rng):
        act = nn.DecayableReLU(alpha=1.0)
        x = nn.Tensor(rng.normal(size=(20,)).astype(np.float32))
        np.testing.assert_allclose(act(x).numpy(), x.numpy())
        assert act.is_linear

    def test_intermediate_alpha_interpolates(self):
        act = nn.DecayableReLU(alpha=0.5)
        x = nn.Tensor(np.array([-2.0, 2.0]))
        np.testing.assert_allclose(act(x).numpy(), [-1.0, 2.0])
        assert not act.is_linear

    def test_monotone_in_alpha_for_negative_inputs(self):
        """As alpha grows the output decays monotonically from ReLU(x)=0 towards x."""
        x = nn.Tensor(np.array([-3.0]))
        values = []
        act = nn.DecayableReLU()
        for alpha in np.linspace(0, 1, 11):
            act.set_alpha(float(alpha))
            values.append(float(act(x).numpy()[0]))
        assert values == sorted(values, reverse=True)
        assert values[0] == 0.0 and values[-1] == -3.0

    def test_set_alpha_clamps(self):
        act = nn.DecayableReLU()
        act.set_alpha(2.0)
        assert act.alpha == 1.0
        act.set_alpha(-1.0)
        assert act.alpha == 0.0

    def test_gradient_uses_slope(self):
        act = nn.DecayableReLU(alpha=0.3)
        x = nn.Tensor(np.array([-1.0, 1.0]), requires_grad=True)
        act(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.3, 1.0])


class TestDecayableReLU6:
    def test_alpha_zero_is_relu6(self, rng):
        act = nn.DecayableReLU6(alpha=0.0)
        x = nn.Tensor(np.array([-2.0, 3.0, 8.0]))
        np.testing.assert_allclose(act(x).numpy(), [0.0, 3.0, 6.0])

    def test_alpha_one_is_identity(self):
        act = nn.DecayableReLU6(alpha=1.0)
        x = nn.Tensor(np.array([-2.0, 3.0, 8.0]))
        np.testing.assert_allclose(act(x).numpy(), [-2.0, 3.0, 8.0])

    def test_intermediate_blends_clip_and_identity(self):
        act = nn.DecayableReLU6(alpha=0.5)
        x = nn.Tensor(np.array([8.0]))
        np.testing.assert_allclose(act(x).numpy(), [7.0])

    def test_repr_shows_alpha(self):
        assert "0.250" in repr(nn.DecayableReLU(alpha=0.25))
        assert "DecayableReLU6" in repr(nn.DecayableReLU6())
