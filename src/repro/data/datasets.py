"""Synthetic classification datasets standing in for the paper's benchmarks.

``SyntheticImageNet`` plays the role of the large-scale pretraining corpus;
``downstream_dataset`` builds the five transfer targets (CIFAR-100, Cars,
Flowers102, Food101, Pets) from the *same* random decoder but with new class
centres, fewer samples and slightly different difficulty profiles, which is
what makes ImageNet-pretrained features useful for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import DECODE_CHUNK, DecoderSpec, LatentClassSampler, RandomImageDecoder

__all__ = [
    "ClassificationDataset",
    "SyntheticImageNet",
    "downstream_dataset",
    "DOWNSTREAM_SPECS",
    "DownstreamSpec",
]


class ClassificationDataset:
    """An in-memory labelled image dataset.

    Attributes
    ----------
    images:
        ``(N, 3, R, R)`` float32 array in ``[0, 1]``.
    labels:
        ``(N,)`` int64 array.
    num_classes:
        Number of distinct labels.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, num_classes: int, name: str = "dataset"):
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same length")
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = int(num_classes)
        self.name = name

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def resolution(self) -> int:
        return self.images.shape[-1]

    def subset(self, indices: np.ndarray) -> "ClassificationDataset":
        """Return a dataset restricted to ``indices`` (labels preserved)."""
        return ClassificationDataset(
            self.images[indices], self.labels[indices], self.num_classes, name=f"{self.name}-subset"
        )

    def split(self, train_fraction: float, seed: int = 0) -> tuple["ClassificationDataset", "ClassificationDataset"]:
        """Random stratification-free train/validation split."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        cut = int(len(self) * train_fraction)
        return self.subset(order[:cut]), self.subset(order[cut:])


def _build_classification_dataset(
    name: str,
    num_classes: int,
    samples_per_class: int,
    decoder: RandomImageDecoder,
    sampler: LatentClassSampler,
    pixel_noise: float,
    seed: int,
) -> ClassificationDataset:
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    rng.shuffle(labels)
    latents = sampler.sample_batch(labels, rng)
    images = decoder.decode_batch(latents)
    if pixel_noise > 0:
        # In place, one chunk of draws at a time: Generator.normal fills in C
        # order, so the stream and the bits match one corpus-sized draw, and
        # the peak stays near the corpus itself.
        for start in range(0, len(images), DECODE_CHUNK):
            chunk = images[start : start + DECODE_CHUNK]
            chunk += rng.normal(0.0, pixel_noise, size=chunk.shape).astype(np.float32)
            np.clip(chunk, 0.0, 1.0, out=chunk)
    return ClassificationDataset(images, labels, num_classes, name=name)


class SyntheticImageNet:
    """The large-scale pretraining corpus (stand-in for ImageNet).

    Parameters
    ----------
    num_classes:
        Number of classes; more classes make the task harder and the
        under-fitting of tiny models more pronounced.
    samples_per_class / val_samples_per_class:
        Training / validation samples generated per class.
    resolution:
        Output image resolution (must be a multiple of 4; the decoder's base
        size is ``resolution // 4``).
    decoder_seed:
        Seed of the shared random decoder.  Downstream datasets built with the
        same seed share low-level image statistics, which is what makes the
        pretrained features transferable.
    """

    def __init__(
        self,
        num_classes: int = 16,
        samples_per_class: int = 60,
        val_samples_per_class: int = 15,
        resolution: int = 24,
        latent_dim: int = 32,
        signal_scale: float = 2.5,
        intra_class_std: float = 0.6,
        nuisance_std: float = 0.5,
        pixel_noise: float = 0.02,
        decoder_seed: int = 1234,
        seed: int = 0,
    ):
        if resolution % 4 != 0:
            raise ValueError("resolution must be a multiple of 4")
        spec = DecoderSpec(latent_dim=latent_dim, base_size=resolution // 4, seed=decoder_seed)
        self.decoder = RandomImageDecoder(spec)
        self.sampler = LatentClassSampler(
            num_classes,
            latent_dim,
            signal_scale=signal_scale,
            intra_class_std=intra_class_std,
            nuisance_std=nuisance_std,
            class_seed=seed + 17,
        )
        self.num_classes = num_classes
        self.train = _build_classification_dataset(
            "synthetic-imagenet-train",
            num_classes,
            samples_per_class,
            self.decoder,
            self.sampler,
            pixel_noise,
            seed,
        )
        self.val = _build_classification_dataset(
            "synthetic-imagenet-val",
            num_classes,
            val_samples_per_class,
            self.decoder,
            self.sampler,
            pixel_noise,
            seed + 1,
        )


@dataclass(frozen=True)
class DownstreamSpec:
    """Difficulty profile of one downstream transfer dataset."""

    num_classes: int
    samples_per_class: int
    val_samples_per_class: int
    intra_class_std: float
    pixel_noise: float
    class_seed: int


#: Profiles loosely mirroring the relative difficulty of the paper's targets:
#: fine-grained sets (Cars, Flowers) have more classes and tighter clusters,
#: Food101 is noisier, Pets is small.
DOWNSTREAM_SPECS: dict[str, DownstreamSpec] = {
    "cifar100": DownstreamSpec(num_classes=10, samples_per_class=45, val_samples_per_class=16,
                               intra_class_std=0.70, pixel_noise=0.03, class_seed=101),
    "cars": DownstreamSpec(num_classes=12, samples_per_class=30, val_samples_per_class=16,
                           intra_class_std=0.55, pixel_noise=0.02, class_seed=202),
    "flowers102": DownstreamSpec(num_classes=12, samples_per_class=24, val_samples_per_class=16,
                                 intra_class_std=0.50, pixel_noise=0.02, class_seed=303),
    "food101": DownstreamSpec(num_classes=10, samples_per_class=36, val_samples_per_class=16,
                              intra_class_std=0.75, pixel_noise=0.05, class_seed=404),
    "pets": DownstreamSpec(num_classes=8, samples_per_class=27, val_samples_per_class=16,
                           intra_class_std=0.65, pixel_noise=0.03, class_seed=505),
}


def downstream_dataset(
    name: str,
    resolution: int = 24,
    latent_dim: int = 32,
    decoder_seed: int = 1234,
    seed: int = 0,
) -> tuple[ClassificationDataset, ClassificationDataset]:
    """Build the train/val split of a named downstream dataset.

    The decoder seed defaults to the one used by :class:`SyntheticImageNet`
    so that pretrained features transfer; pass a different seed to simulate an
    unrelated domain.
    """
    if name not in DOWNSTREAM_SPECS:
        raise KeyError(f"unknown downstream dataset {name!r}; available: {sorted(DOWNSTREAM_SPECS)}")
    spec = DOWNSTREAM_SPECS[name]
    decoder = RandomImageDecoder(DecoderSpec(latent_dim=latent_dim, base_size=resolution // 4, seed=decoder_seed))
    sampler = LatentClassSampler(
        spec.num_classes,
        latent_dim,
        intra_class_std=spec.intra_class_std,
        class_seed=spec.class_seed,
    )
    train = _build_classification_dataset(
        f"{name}-train", spec.num_classes, spec.samples_per_class, decoder, sampler, spec.pixel_noise, seed
    )
    val = _build_classification_dataset(
        f"{name}-val", spec.num_classes, spec.val_samples_per_class, decoder, sampler, spec.pixel_noise, seed + 1
    )
    return train, val
