"""Minibatch iteration with batched transforms.

The loader is a small pipeline:

1. at the start of an epoch the shuffle order and one RNG seed *per batch*
   are drawn from the loader's private generator — all randomness is fixed
   up front, so a batch's contents depend only on its index;
2. each batch is assembled by fancy-indexing the dataset and applying the
   transform *vectorised across the batch* (:meth:`Transform.batch`).

Sharded loading (``shard=(rank, world)``) rides on step 1: every
worker of a data-parallel run draws the *same* epoch plan (the shuffle order
and per-batch seeds consume the loader RNG identically regardless of the
shard), then yields only the global batch indices assigned to its rank
(``batch_index % world == rank``).  Shards are therefore disjoint, cover the
epoch exactly once, batch ``b`` has identical contents no matter which worker
builds it, and ``shard=(0, 1)`` is byte-identical to an unsharded loader.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .datasets import ClassificationDataset
from .transforms import Transform

__all__ = ["DataLoader"]

_SEED_MAX = 2**63


def _apply_transform(transform, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply ``transform`` to a batch, preferring its vectorised form.

    Plain callables (``image, rng -> image``) without a ``batch`` method are
    applied per image, preserving the pre-pipeline loader contract.
    """
    batch_fn = getattr(transform, "batch", None)
    if batch_fn is not None:
        return batch_fn(images, rng)
    return np.stack([transform(image, rng) for image in images])


class DataLoader:
    """Iterate over a :class:`ClassificationDataset` in shuffled minibatches.

    Parameters
    ----------
    dataset:
        The dataset to iterate over.
    batch_size:
        Number of samples per batch (the last batch may be smaller unless
        ``drop_last`` is set).
    shuffle:
        Reshuffle indices at the start of every epoch.
    transform:
        Optional augmentation applied on the fly.  :class:`Transform`
        subclasses are applied batched (vectorised across the batch); plain
        ``(image, rng)`` callables are applied per image.
    drop_last:
        Drop the final short batch.
    seed:
        Seed of the loader's private RNG (shuffling and augmentations).
    shard:
        Optional ``(rank, world_size)`` pair for data-parallel training.  The
        epoch plan (shuffle order + per-batch transform seeds) is drawn for
        the *whole* epoch on every worker, then only global batch indices
        with ``index % world_size == rank`` are yielded — shards are disjoint
        and jointly cover the epoch exactly once.
    """

    def __init__(
        self,
        dataset: ClassificationDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        transform: Transform | Callable | None = None,
        drop_last: bool = False,
        seed: int = 0,
        shard: tuple[int, int] | None = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if shard is not None:
            rank, world = shard
            if world <= 0 or not 0 <= rank < world:
                raise ValueError(f"invalid shard {shard}: need 0 <= rank < world_size")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.transform = transform
        self.drop_last = drop_last
        self.shard = shard
        self._rng = np.random.default_rng(seed)

    @property
    def num_global_batches(self) -> int:
        """Batches in one epoch across *all* shards (the unsharded length)."""
        if self.drop_last:
            return len(self.dataset) // self.batch_size
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def _assigned_batches(self) -> range:
        """Global batch indices this loader yields, in order."""
        total = self.num_global_batches
        if self.shard is None:
            return range(total)
        rank, world = self.shard
        return range(rank, total, world)

    def __len__(self) -> int:
        return len(self._assigned_batches())

    # ------------------------------------------------------------------ #
    # batch assembly
    # ------------------------------------------------------------------ #
    def _epoch_plan(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Draw the epoch's shuffle order and per-batch transform seeds.

        All RNG consumption happens here, up front, so a batch does not
        depend on *when* it is built or on which batches were built before
        it (an abandoned epoch leaves the next one intact).  Consumption is
        also shard-independent (the plan always covers the whole epoch), so
        every worker of a data-parallel run derives the identical plan from
        the same seed.
        """
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(indices)
        seeds = None
        if self.transform is not None:
            seeds = self._rng.integers(0, _SEED_MAX, size=self.num_global_batches, dtype=np.int64)
        return indices, seeds

    def _make_batch(
        self, indices: np.ndarray, seeds: np.ndarray | None, batch_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        start = batch_index * self.batch_size
        batch_idx = indices[start : start + self.batch_size]
        images = self.dataset.images[batch_idx]
        labels = self.dataset.labels[batch_idx]
        if self.transform is not None:
            rng = np.random.default_rng(int(seeds[batch_index]))
            images = _apply_transform(self.transform, images, rng)
        return images.astype(np.float32, copy=False), labels

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        indices, seeds = self._epoch_plan()
        for batch_index in self._assigned_batches():
            yield self._make_batch(indices, seeds, batch_index)
