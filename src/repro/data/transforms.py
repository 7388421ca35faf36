"""Data-augmentation transforms operating on ``(3, H, W)`` float arrays.

The paper's Fig. 1(a) argument is that strong augmentation/regularisation,
which helps large DNNs, *hurts* tiny networks because they under-fit.  The
transforms here implement the standard recipes (flip/crop/erasing/colour
jitter and a light RandAugment-style policy) so that this comparison can be
reproduced on the synthetic corpus.

Every transform has two entry points:

* ``__call__(image, rng)`` — the original per-image form;
* ``batch(images, rng)`` — vectorised across a ``(N, 3, H, W)`` batch, used
  by :class:`~repro.data.dataloader.DataLoader`.  The default
  implementation falls back to the per-image loop, so custom transforms only
  need ``__call__``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Transform",
    "Compose",
    "RandomHorizontalFlip",
    "RandomCrop",
    "RandomErasing",
    "ColorJitter",
    "GaussianNoise",
    "RandAugmentLite",
    "Normalize",
]


class Transform:
    """Base class: transforms are callables ``image -> image``."""

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the transform across a ``(N, C, H, W)`` batch.

        Subclasses override this with a vectorised implementation; the
        default applies ``__call__`` per image.
        """
        return np.stack([self(image, rng) for image in images])


class Compose(Transform):
    """Apply transforms in sequence."""

    def __init__(self, transforms: list[Transform]):
        self.transforms = list(transforms)

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in self.transforms:
            image = transform(image, rng)
        return image

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in self.transforms:
            images = (
                transform.batch(images, rng)
                if isinstance(transform, Transform)
                else np.stack([transform(image, rng) for image in images])
            )
        return images


class RandomHorizontalFlip(Transform):
    """Flip the image left-right with probability ``p``."""

    def __init__(self, p: float = 0.5):
        self.p = p

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < self.p:
            return image[:, :, ::-1].copy()
        return image

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flip = rng.random(len(images)) < self.p
        if not flip.any():
            return images
        out = images.copy()
        out[flip] = out[flip, :, :, ::-1]
        return out


class RandomCrop(Transform):
    """Pad by ``padding`` pixels then crop back to the original size."""

    def __init__(self, padding: int = 2):
        self.padding = padding

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.padding == 0:
            return image
        c, h, w = image.shape
        padded = np.pad(image, ((0, 0), (self.padding, self.padding), (self.padding, self.padding)))
        top = int(rng.integers(0, 2 * self.padding + 1))
        left = int(rng.integers(0, 2 * self.padding + 1))
        return padded[:, top : top + h, left : left + w].copy()

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.padding == 0:
            return images
        n, c, h, w = images.shape
        pad = self.padding
        padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        tops = rng.integers(0, 2 * pad + 1, size=n)
        lefts = rng.integers(0, 2 * pad + 1, size=n)
        # One gather over the zero-copy window view replaces N slice-copies.
        windows = sliding_window_view(padded, (h, w), axis=(2, 3))
        return windows[np.arange(n), :, tops, lefts]


class RandomErasing(Transform):
    """Cutout-style square erasing (a strong regulariser)."""

    def __init__(self, p: float = 0.5, size_fraction: float = 0.3):
        self.p = p
        self.size_fraction = size_fraction

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if rng.random() >= self.p:
            return image
        c, h, w = image.shape
        size = max(int(min(h, w) * self.size_fraction), 1)
        top = int(rng.integers(0, h - size + 1))
        left = int(rng.integers(0, w - size + 1))
        out = image.copy()
        out[:, top : top + size, left : left + size] = rng.random()
        return out

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, c, h, w = images.shape
        erase = rng.random(n) < self.p
        if not erase.any():
            return images
        size = max(int(min(h, w) * self.size_fraction), 1)
        tops = rng.integers(0, h - size + 1, size=n)
        lefts = rng.integers(0, w - size + 1, size=n)
        fills = rng.random(n)
        out = images.copy()
        for k in np.flatnonzero(erase):
            out[k, :, tops[k] : tops[k] + size, lefts[k] : lefts[k] + size] = fills[k]
        return out


class ColorJitter(Transform):
    """Random brightness/contrast scaling."""

    def __init__(self, brightness: float = 0.2, contrast: float = 0.2):
        self.brightness = brightness
        self.contrast = contrast

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = image
        if self.brightness > 0:
            out = out + rng.uniform(-self.brightness, self.brightness)
        if self.contrast > 0:
            factor = 1.0 + rng.uniform(-self.contrast, self.contrast)
            mean = out.mean()
            out = (out - mean) * factor + mean
        return np.clip(out, 0.0, 1.0).astype(np.float32)

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = images.astype(np.float32, copy=True)
        n = len(images)
        if self.brightness > 0:
            offsets = rng.uniform(-self.brightness, self.brightness, size=(n, 1, 1, 1))
            out += offsets.astype(np.float32)
        if self.contrast > 0:
            factors = (1.0 + rng.uniform(-self.contrast, self.contrast, size=(n, 1, 1, 1))).astype(
                np.float32
            )
            means = out.mean(axis=(1, 2, 3), keepdims=True)
            out -= means
            out *= factors
            out += means
        return np.clip(out, 0.0, 1.0, out=out)


class GaussianNoise(Transform):
    """Additive pixel noise."""

    def __init__(self, std: float = 0.05):
        self.std = std

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noisy = image + rng.normal(0.0, self.std, size=image.shape).astype(np.float32)
        return np.clip(noisy, 0.0, 1.0)

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noisy = images + rng.normal(0.0, self.std, size=images.shape).astype(np.float32)
        return np.clip(noisy, 0.0, 1.0, out=noisy)


class RandAugmentLite(Transform):
    """A small RandAugment-style policy: apply ``num_ops`` random transforms.

    The op *choice* is inherently per-image, so the batch form loops images
    but each chosen op still runs its (single-image) fast path.
    """

    def __init__(self, num_ops: int = 2, magnitude: float = 0.5):
        self.num_ops = num_ops
        self.pool: list[Transform] = [
            RandomHorizontalFlip(p=1.0),
            RandomCrop(padding=max(int(2 * magnitude), 1)),
            RandomErasing(p=1.0, size_fraction=0.2 + 0.3 * magnitude),
            ColorJitter(brightness=0.3 * magnitude, contrast=0.3 * magnitude),
            GaussianNoise(std=0.1 * magnitude),
        ]

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        indices = rng.choice(len(self.pool), size=self.num_ops, replace=False)
        for index in indices:
            image = self.pool[index](image, rng)
        return image


class Normalize(Transform):
    """Standardise with fixed per-channel statistics."""

    def __init__(self, mean: float = 0.5, std: float = 0.25):
        self.mean = mean
        self.std = std

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return ((image - self.mean) / self.std).astype(np.float32)

    def batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = images.astype(np.float32, copy=True)
        out -= np.float32(self.mean)
        out /= np.float32(self.std)
        return out
