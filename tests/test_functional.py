"""Unit tests for convolution, pooling, batch norm and loss primitives."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from helpers import assert_gradients_close, make_tensor, numerical_gradient


class TestIm2Col:
    def test_roundtrip_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, (3, 3), stride=1, padding=1)
        assert cols.shape == (2, 3, 3, 3, 8, 8)

    def test_col2im_adjoint_property(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, (3, 3), stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, (3, 3), stride=2, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_output_size_helper(self):
        assert F.conv_output_size(24, 3, 2, 1) == 12
        assert F.conv_output_size(24, 1, 1, 0) == 24


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,groups", [(1, 0, 1), (2, 1, 1), (1, 1, 2)])
    def test_matches_naive_convolution(self, rng, stride, padding, groups):
        x = rng.normal(size=(2, 4, 7, 7))
        w = rng.normal(size=(6, 4 // groups, 3, 3))
        out = F.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), stride=stride, padding=padding, groups=groups)

        # Naive reference implementation.
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh = F.conv_output_size(7, 3, stride, padding)
        expected = np.zeros((2, 6, oh, oh))
        in_per_group = 4 // groups
        out_per_group = 6 // groups
        for n in range(2):
            for o in range(6):
                g = o // out_per_group
                for i in range(oh):
                    for j in range(oh):
                        patch = xp[n, g * in_per_group : (g + 1) * in_per_group, i * stride : i * stride + 3, j * stride : j * stride + 3]
                        expected[n, o, i, j] = (patch * w[o]).sum()
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-6)

    def test_gradients_full_and_depthwise(self, rng):
        # (groups, C_out): dense, depthwise, and depthwise with multiplier 2
        for groups, c_out in ((1, 3), (3, 3), (3, 6)):
            x = make_tensor((2, 3, 6, 6), rng)
            w = make_tensor((c_out, 3 // groups, 3, 3), rng)
            b = make_tensor((c_out,), rng)
            out = F.conv2d(x, w, b, stride=1, padding=1, groups=groups)
            (out * out).sum().backward()

            def f():
                return float(
                    (F.conv2d(Tensor(x.data, dtype=np.float64), Tensor(w.data, dtype=np.float64), Tensor(b.data, dtype=np.float64), 1, 1, groups).data ** 2).sum()
                )

            assert_gradients_close(x.grad, numerical_gradient(f, x.data))
            assert_gradients_close(w.grad, numerical_gradient(f, w.data))
            assert_gradients_close(b.grad, numerical_gradient(f, b.data))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_pointwise_fast_path_gradients(self, rng, stride, padding):
        """The 1x1 matmul fast path must match numerical gradients."""
        x = make_tensor((2, 3, 6, 6), rng)
        w = make_tensor((4, 3, 1, 1), rng)
        b = make_tensor((4,), rng)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        (out * out).sum().backward()

        def f():
            return float(
                (F.conv2d(Tensor(x.data, dtype=np.float64), Tensor(w.data, dtype=np.float64), Tensor(b.data, dtype=np.float64), stride, padding).data ** 2).sum()
            )

        assert_gradients_close(x.grad, numerical_gradient(f, x.data))
        assert_gradients_close(w.grad, numerical_gradient(f, w.data))
        assert_gradients_close(b.grad, numerical_gradient(f, b.data))

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 1, 1)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_pointwise_conv_equals_matmul(self, rng):
        x = rng.normal(size=(2, 5, 4, 4)).astype(np.float32)
        w = rng.normal(size=(7, 5, 1, 1)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w))
        expected = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-5, atol=1e-5)


class TestPooling:
    def test_max_pool_values_and_gradient(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4), requires_grad=True)
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.numpy(), [[[[5, 7], [13, 15]]]])
        out.sum().backward()
        assert x.grad.sum() == 4
        assert x.grad[0, 0, 1, 1] == 1

    def test_pool_gradients_match_numeric(self, rng):
        x = make_tensor((2, 2, 6, 6), rng)
        (F.max_pool2d(x, 2) ** 2).sum().backward()

        def f():
            return float((F.max_pool2d(Tensor(x.data, dtype=np.float64), 2).data ** 2).sum())

        assert_gradients_close(x.grad, numerical_gradient(f, x.data))

    @pytest.mark.parametrize("stride,padding", [(2, 0), (2, 1), (3, 1)])
    def test_strided_padded_pool_gradients(self, rng, stride, padding):
        """Overlapping/strided/padded windows through the slice-based backward."""
        x = make_tensor((2, 2, 7, 7), rng)
        (F.max_pool2d(x, 3, stride, padding) ** 2).sum().backward()

        def f():
            return float((F.max_pool2d(Tensor(x.data, dtype=np.float64), 3, stride, padding).data ** 2).sum())

        assert_gradients_close(x.grad, numerical_gradient(f, x.data))

    def test_global_avg_pool_shape(self, rng):
        x = make_tensor((2, 5, 6, 6), rng)
        assert F.global_avg_pool2d(x).shape == (2, 5, 1, 1)


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 5, 5)), dtype=np.float64, requires_grad=True)
        gamma = Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
        beta = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
        running_mean = np.zeros(4)
        running_var = np.ones(4)
        out = F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.numpy().mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.numpy().std(axis=(0, 2, 3)), 1.0, atol=1e-3)
        # Running stats moved towards the batch statistics.
        assert np.all(running_mean != 0.0)

    def test_eval_uses_running_statistics(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 2, 2)), dtype=np.float64)
        gamma = Tensor(np.ones(3), dtype=np.float64)
        beta = Tensor(np.zeros(3), dtype=np.float64)
        mean = np.array([1.0, 2.0, 3.0])
        var = np.array([4.0, 4.0, 4.0])
        out = F.batch_norm2d(x, gamma, beta, mean, var, training=False)
        expected = (x.numpy() - mean.reshape(1, 3, 1, 1)) / np.sqrt(var.reshape(1, 3, 1, 1) + 1e-5)
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-6)

    def test_training_gradients_match_numeric(self, rng):
        x = make_tensor((4, 2, 3, 3), rng)
        gamma = make_tensor((2,), rng)
        beta = make_tensor((2,), rng)

        def forward(xv, gv, bv):
            return F.batch_norm2d(
                Tensor(xv, dtype=np.float64), Tensor(gv, dtype=np.float64), Tensor(bv, dtype=np.float64),
                np.zeros(2), np.ones(2), training=True,
            )

        out = F.batch_norm2d(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        (out * out).sum().backward()

        def f():
            return float((forward(x.data, gamma.data, beta.data).data ** 2).sum())

        assert_gradients_close(x.grad, numerical_gradient(f, x.data), atol=1e-4)
        assert_gradients_close(gamma.grad, numerical_gradient(f, gamma.data), atol=1e-4)
        assert_gradients_close(beta.grad, numerical_gradient(f, beta.data), atol=1e-4)


class TestLosses:
    def test_softmax_sums_to_one(self, rng):
        logits = make_tensor((5, 7), rng)
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.numpy().sum(axis=1), np.ones(5), rtol=1e-6)

    def test_log_softmax_consistent_with_softmax(self, rng):
        logits = make_tensor((5, 7), rng)
        np.testing.assert_allclose(
            F.log_softmax(logits).numpy(), np.log(F.softmax(logits).numpy()), rtol=1e-5, atol=1e-6
        )

    def test_cross_entropy_perfect_prediction_is_near_zero(self):
        logits = Tensor(np.array([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform_logits_is_log_c(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(8), rel=1e-5)

    def test_cross_entropy_gradient(self, rng):
        logits = make_tensor((6, 4), rng)
        labels = np.array([0, 1, 2, 3, 0, 1])
        F.cross_entropy(logits, labels).backward()

        def f():
            return float(F.cross_entropy(Tensor(logits.data, dtype=np.float64), labels).data)

        assert_gradients_close(logits.grad, numerical_gradient(f, logits.data))

    def test_label_smoothing_increases_loss_of_confident_prediction(self):
        logits = Tensor(np.array([[15.0, 0.0, 0.0]]))
        plain = F.cross_entropy(logits, np.array([0]))
        smoothed = F.cross_entropy(logits, np.array([0]), label_smoothing=0.2)
        assert smoothed.item() > plain.item()

    def test_soft_target_cross_entropy(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]))
        targets = np.array([[0.2, 0.5, 0.3]], dtype=np.float32)
        loss = F.cross_entropy(logits, targets, soft_targets=True)
        log_probs = np.log(np.exp(logits.numpy()) / np.exp(logits.numpy()).sum())
        assert loss.item() == pytest.approx(float(-(targets * log_probs).sum()), rel=1e-5)

    def test_kl_divergence_zero_for_identical_distributions(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        loss = F.kl_divergence(logits, logits, temperature=2.0)
        assert abs(loss.item()) < 1e-5

    def test_kl_divergence_positive_and_differentiable(self, rng):
        teacher = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        student = Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
        loss = F.kl_divergence(teacher, student, temperature=4.0)
        assert loss.item() > 0
        loss.backward()
        assert student.grad is not None

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0, 5.0]), requires_grad=True)
        target = np.array([1.0, 2.0, 2.0])
        assert F.mse_loss(pred, target).item() == pytest.approx(3.0)

    def test_bce_with_logits_matches_reference(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        targets = (rng.random((3, 4)) > 0.5).astype(np.float32)
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.numpy()))
        reference = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss.item() == pytest.approx(float(reference), rel=1e-4)
        loss.backward()
        assert logits.grad is not None

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_dropout_eval_is_identity_and_train_scales(self, rng):
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        assert F.dropout(x, 0.5, training=False, rng=rng) is x
        out = F.dropout(x, 0.5, training=True, rng=rng)
        # Expected value is preserved by inverted dropout.
        assert out.numpy().mean() == pytest.approx(1.0, abs=0.05)
