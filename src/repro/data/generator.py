"""Procedural image generator used as the stand-in for natural-image datasets.

The paper evaluates NetBooster on ImageNet and five downstream classification
datasets.  Neither the images nor a GPU are available here, so this module
provides a *class-conditional procedural generator* with a controllable
difficulty profile:

* every class corresponds to a centre in a latent space;
* a sample is the class centre plus intra-class jitter plus free "nuisance"
  dimensions;
* the latent vector is pushed through a fixed **random non-linear decoder**
  (two rounds of upsampling + random convolutions + ``tanh``) to produce an
  RGB image.

The decoder never materialises an upsampled map.  A 3x3 conv after a
nearest 2x upsample reads, for each of the four output parities, only
low-res pixels, so each tap's channel sum is computed once on the low-res
grid and added into the parities (the phase decomposition of sub-pixel
convolution; see :func:`_upsample_conv`).  Maps are carried batch-innermost,
``(C, H, W, N)``.  The bits are those of the plain upsample-then-conv
reference that ``tests/test_data.py`` keeps.

Because the decoder is non-linear, recovering the class label from pixels
requires learning a non-trivial hierarchy of features, so model capacity
matters: tiny networks under-fit exactly as described in the paper, while
wider/deeper "giants" fit the data — which is the phenomenon NetBooster
exploits.  Downstream datasets reuse the *same decoder* with new class
centres, reproducing the pretrain-then-transfer setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecoderSpec", "RandomImageDecoder", "LatentClassSampler"]


#: Images decoded per step of :meth:`RandomImageDecoder.decode_batch`.  Bounds
#: the decoder's scratch memory (about 1 MiB beyond the output at resolution 20)
#: and keeps it cache-resident.  No output bit depends on it: the batch axis is
#: innermost and no sum runs along it.
DECODE_CHUNK = 64


def _upsample_conv(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``tanh(conv3x3_same(upsample2x(x)) + bias)``, computed on the low-res grid.

    ``x`` is the zero-padded low-res map ``(C, h + 2, w + 2, N)`` with the batch
    innermost; ``kernels`` is ``(O, C, 3, 3)`` and ``bias`` ``(O, 1, 1, 1)``.
    Returns the parity planes ``(2, 2, O, h, w, N)``: plane ``[s, t]`` holds the
    output pixels ``(2m + s, 2q + t)``.

    After a nearest 2x upsample, tap ``(i, j)`` of output pixel
    ``(2m + s, 2q + t)`` reads padded low-res pixel ``(m + (s + i + 1) // 2,
    q + (t + j + 1) // 2)``, so each tap's channel sum is one einsum over the
    low-res map, shared by all four parities.  Every output element still gets
    ``0 + T_00 + T_01 + ... + T_22`` in row-major tap order, each ``T`` the same
    einsum over the same channels as a conv on the upsampled map: the bits match.
    """
    _, hp, wp, n = x.shape
    h, w = hp - 2, wp - 2
    out = np.zeros((2, 2, len(kernels), h, w, n), dtype=x.dtype)
    for i in range(3):
        for j in range(3):
            tap = np.einsum("oc,chwn->ohwn", kernels[:, :, i, j], x)
            for s in range(2):
                a = (s + i + 1) // 2
                for t in range(2):
                    b = (t + j + 1) // 2
                    out[s, t] += tap[:, a : a + h, b : b + w]
    out += bias
    return np.tanh(out, out=out)


@dataclass
class DecoderSpec:
    """Configuration of the random decoder.

    Attributes
    ----------
    latent_dim:
        Dimensionality of the class/nuisance latent vector.
    base_size:
        Spatial size of the seed feature map; the output resolution is
        ``base_size * 4`` (two upsampling stages).
    base_channels:
        Channels of the seed feature map.
    mid_channels:
        Channels after the first decoding convolution.
    seed:
        Seed for the fixed random decoder weights.  Datasets that should share
        transferable features must share this seed.
    """

    latent_dim: int = 32
    base_size: int = 6
    base_channels: int = 8
    mid_channels: int = 6
    seed: int = 1234

    @property
    def resolution(self) -> int:
        return self.base_size * 4


class RandomImageDecoder:
    """Fixed random non-linear decoder from latent vectors to RGB images."""

    def __init__(self, spec: DecoderSpec | None = None):
        self.spec = spec or DecoderSpec()
        rng = np.random.default_rng(self.spec.seed)
        s = self.spec
        scale = 1.0 / np.sqrt(s.latent_dim)
        self._w_seed = rng.normal(0.0, scale, size=(s.latent_dim, s.base_channels * s.base_size**2)).astype(np.float32)
        self._k1 = rng.normal(0.0, 0.4, size=(s.mid_channels, s.base_channels, 3, 3)).astype(np.float32)
        self._k2 = rng.normal(0.0, 0.4, size=(3, s.mid_channels, 3, 3)).astype(np.float32)
        self._b1 = rng.normal(0.0, 0.1, size=(s.mid_channels, 1, 1)).astype(np.float32)
        self._b2 = rng.normal(0.0, 0.1, size=(3, 1, 1)).astype(np.float32)

    def decode(self, latent: np.ndarray) -> np.ndarray:
        """Decode one latent vector to an image of shape ``(3, R, R)`` in [0, 1]."""
        return self.decode_batch(np.asarray(latent)[None])[0]

    def decode_batch(self, latents: np.ndarray) -> np.ndarray:
        """Decode ``(N, latent_dim)`` latents to ``(N, 3, R, R)`` images in [0, 1]."""
        r = self.spec.resolution
        images = np.empty((len(latents), 3, r, r), dtype=np.float32)
        for start in range(0, len(latents), DECODE_CHUNK):
            chunk = latents[start : start + DECODE_CHUNK]
            self._decode_chunk(chunk, images[start : start + len(chunk)])
        return images

    def _decode_chunk(self, latents: np.ndarray, images: np.ndarray) -> None:
        """Decode ``latents`` into the ``(N, 3, R, R)`` view ``images``.

        Maps are carried as ``(C, H, W, N)``, so every slice and add runs over
        contiguous ``w * N`` spans.  Each stage's parity planes are
        interleaved once: into the next stage's zero-padded input, and, after
        the last stage, through one transpose into ``images``.
        """
        s = self.spec
        n, b = len(latents), s.base_size
        # One gemv per latent: a batched sgemm (or einsum) rounds differently
        # in the last bit on some BLAS builds, and the corpora must not change.
        seed = np.tanh(np.stack([z @ self._w_seed for z in latents]))
        x = np.zeros((s.base_channels, b + 2, b + 2, n), dtype=np.float32)
        x[:, 1:-1, 1:-1] = seed.reshape(n, s.base_channels, b, b).transpose(1, 2, 3, 0)
        planes = _upsample_conv(x, self._k1, self._b1[..., None])
        x = np.zeros((s.mid_channels, 2 * b + 2, 2 * b + 2, n), dtype=np.float32)
        x[:, 1:-1, 1:-1].reshape(s.mid_channels, b, 2, b, 2, n)[...] = planes.transpose(2, 3, 0, 4, 1, 5)
        planes = _upsample_conv(x, self._k2, self._b2[..., None])
        planes += 1.0
        planes *= 0.5
        pixels = planes.transpose(2, 3, 0, 4, 1, 5).reshape(-1, n)  # (3 * R * R, N), interleaved
        images.reshape(n, -1)[...] = pixels.T


class LatentClassSampler:
    """Samples class-conditional latent vectors.

    Each class owns a centre on a hypersphere; a sample mixes the centre, an
    intra-class jitter and free nuisance dimensions.  The relative magnitude of
    signal vs. jitter controls how hard the classification problem is.
    """

    def __init__(
        self,
        num_classes: int,
        latent_dim: int,
        signal_scale: float = 2.5,
        intra_class_std: float = 0.6,
        nuisance_std: float = 0.5,
        class_seed: int = 0,
    ):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_classes = num_classes
        self.latent_dim = latent_dim
        self.signal_scale = signal_scale
        self.intra_class_std = intra_class_std
        self.nuisance_std = nuisance_std
        rng = np.random.default_rng(class_seed)
        centres = rng.normal(size=(num_classes, latent_dim)).astype(np.float32)
        centres /= np.linalg.norm(centres, axis=1, keepdims=True)
        self.centres = centres
        # Half the dimensions carry class signal, the rest are nuisance.
        mask = np.zeros(latent_dim, dtype=np.float32)
        mask[rng.permutation(latent_dim)[: latent_dim // 2]] = 1.0
        self.signal_mask = mask

    def sample(self, label: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one latent vector for ``label``."""
        return self.sample_batch(np.array([label]), rng)[0]

    def sample_batch(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one latent vector per label, as ``(N, latent_dim)`` float32.

        Consumes ``rng`` exactly like ``len(labels)`` :meth:`sample` calls:
        per sample, ``latent_dim`` jitter normals then ``latent_dim`` nuisance
        normals.
        """
        labels = np.asarray(labels, dtype=np.int64)
        scales = np.array([[self.intra_class_std], [self.nuisance_std]])
        noise = rng.normal(0.0, scales, size=(len(labels), 2, self.latent_dim)).astype(np.float32)
        centre = self.centres[labels] * self.signal_mask
        jitter = noise[:, 0] * self.signal_mask
        nuisance = noise[:, 1] * (1.0 - self.signal_mask)
        return self.signal_scale * centre + jitter + nuisance
