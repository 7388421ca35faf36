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
#: the decoder's scratch memory (about 2 MiB beyond the output at resolution 20)
#: and keeps it cache-resident; 32-128 decode fastest at resolutions 12-32.
#: No output bit depends on it: each image's arithmetic is the same per chunk.
DECODE_CHUNK = 64


def _upsample2x(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling of a ``(N, C, H, W)`` array."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def _conv2d_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Plain (non-autograd) same-padded convolution used by the decoder.

    ``x`` is ``(N, C_in, H, W)``; ``kernels`` is ``(C_out, C_in, k, k)`` with
    odd ``k``.  One einsum per tap, accumulated in row-major tap order: the
    summation order the corpora's bits depend on.
    """
    c_out, _, k, _ = kernels.shape
    pad = k // 2
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, _, h, w = x.shape
    out = np.zeros((n, c_out, h, w), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            patch = padded[:, :, i : i + h, j : j + w]
            out += np.einsum("oc,nchw->nohw", kernels[:, :, i, j], patch)
    return out


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
            images[start : start + len(chunk)] = self._decode_chunk(chunk)
        return images

    def _decode_chunk(self, latents: np.ndarray) -> np.ndarray:
        s = self.spec
        # One gemv per latent: a batched sgemm (or einsum) rounds differently
        # in the last bit on some BLAS builds, and the corpora must not change.
        seed = np.stack([z @ self._w_seed for z in latents])
        x = np.tanh(seed).reshape(len(latents), s.base_channels, s.base_size, s.base_size)
        x = _upsample2x(x)
        x = np.tanh(_conv2d_same(x, self._k1) + self._b1)
        x = _upsample2x(x)
        x = np.tanh(_conv2d_same(x, self._k2) + self._b2)
        return 0.5 * (x + 1.0)


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
