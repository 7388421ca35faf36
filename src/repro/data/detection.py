"""Synthetic object-detection dataset (stand-in for Pascal VOC).

Images are composed of a textured background onto which one to three decoded
object patches are pasted at random positions; the ground truth is the list of
axis-aligned bounding boxes and class labels.  The dataset exercises the same
code path as the paper's VOC experiment: a classification backbone pretrained
on the large corpus, a detection head finetuned on the detection set, and an
AP50 evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import DecoderSpec, LatentClassSampler, RandomImageDecoder

__all__ = ["DetectionSample", "DetectionDataset", "SyntheticVOC"]


@dataclass
class DetectionSample:
    """One detection image with its ground-truth annotations.

    ``boxes`` are ``(num_objects, 4)`` arrays of ``(x_min, y_min, x_max, y_max)``
    in pixel coordinates; ``labels`` are the matching class indices.
    """

    image: np.ndarray
    boxes: np.ndarray
    labels: np.ndarray


class DetectionDataset:
    """A list of :class:`DetectionSample` with dataset-level metadata."""

    def __init__(self, samples: list[DetectionSample], num_classes: int, resolution: int, name: str = "detection"):
        self.samples = samples
        self.num_classes = num_classes
        self.resolution = resolution
        self.name = name

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> DetectionSample:
        return self.samples[index]

    def images(self) -> np.ndarray:
        """Stacked ``(N, 3, R, R)`` float32 image array (``N`` may be 0)."""
        if not self.samples:
            return np.zeros((0, 3, self.resolution, self.resolution), dtype=np.float32)
        return np.stack([sample.image for sample in self.samples])


class SyntheticVOC:
    """Procedurally generated detection benchmark.

    Parameters
    ----------
    num_classes:
        Number of object categories.
    num_train / num_val:
        Number of generated images in each split.
    resolution:
        Image resolution (square).
    object_size:
        Side length of pasted object patches, which is also the box size.
    decoder_seed:
        Seed of the shared random decoder (kept equal to the classification
        corpus so backbone features transfer).
    """

    def __init__(
        self,
        num_classes: int = 6,
        num_train: int = 96,
        num_val: int = 32,
        resolution: int = 32,
        object_size: int = 12,
        max_objects: int = 2,
        decoder_seed: int = 1234,
        seed: int = 0,
    ):
        if object_size % 4 != 0:
            raise ValueError("object_size must be a multiple of 4")
        self.num_classes = num_classes
        self.resolution = resolution
        self.object_size = object_size
        self.max_objects = max_objects
        self._decoder = RandomImageDecoder(
            DecoderSpec(latent_dim=32, base_size=object_size // 4, seed=decoder_seed)
        )
        self._sampler = LatentClassSampler(num_classes, 32, intra_class_std=0.7, class_seed=seed + 31)
        self.train = self._generate(num_train, seed=seed, name="synthetic-voc-train")
        self.val = self._generate(num_val, seed=seed + 1, name="synthetic-voc-val")

    def _background(self, rng: np.random.Generator) -> np.ndarray:
        """Smooth random-colour background with mild texture."""
        base = rng.uniform(0.2, 0.8, size=(3, 1, 1)).astype(np.float32)
        texture = rng.normal(0.0, 0.05, size=(3, self.resolution, self.resolution)).astype(np.float32)
        return np.clip(base + texture, 0.0, 1.0)

    def _generate(self, count: int, seed: int, name: str) -> DetectionDataset:
        rng = np.random.default_rng(seed)
        images: list[np.ndarray] = []
        objects: list[list[tuple[int, int, int]]] = []
        latents: list[np.ndarray] = []
        max_pos = self.resolution - self.object_size
        for _ in range(count):
            images.append(self._background(rng))
            num_objects = int(rng.integers(1, self.max_objects + 1))
            placed = []
            for _ in range(num_objects):
                label = int(rng.integers(self.num_classes))
                latents.append(self._sampler.sample(label, rng))
                x0 = int(rng.integers(0, max_pos + 1))
                y0 = int(rng.integers(0, max_pos + 1))
                placed.append((label, x0, y0))
            objects.append(placed)
        patches = iter(self._decoder.decode_batch(np.reshape(latents, (-1, self._decoder.spec.latent_dim))))
        samples: list[DetectionSample] = []
        for image, placed in zip(images, objects):
            for _, x0, y0 in placed:
                image[:, y0 : y0 + self.object_size, x0 : x0 + self.object_size] = next(patches)
            boxes = [[x0, y0, x0 + self.object_size, y0 + self.object_size] for _, x0, y0 in placed]
            samples.append(
                DetectionSample(
                    image=image.astype(np.float32),
                    boxes=np.asarray(boxes, dtype=np.float32),
                    labels=np.asarray([label for label, _, _ in placed], dtype=np.int64),
                )
            )
        return DetectionDataset(samples, self.num_classes, self.resolution, name=name)
