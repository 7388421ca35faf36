"""Unit tests for the synthetic data substrate: generator, datasets, loader."""

import numpy as np
import pytest

from repro.data import (
    DOWNSTREAM_SPECS,
    ClassificationDataset,
    DataLoader,
    DecoderSpec,
    LatentClassSampler,
    RandomImageDecoder,
    SyntheticImageNet,
    SyntheticVOC,
    downstream_dataset,
)
from repro.data.generator import DECODE_CHUNK


class TestRandomImageDecoder:
    def test_output_shape_and_range(self, rng):
        decoder = RandomImageDecoder(DecoderSpec(base_size=6))
        image = decoder.decode(rng.normal(size=32).astype(np.float32))
        assert image.shape == (3, 24, 24)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_deterministic_given_latent(self, rng):
        decoder = RandomImageDecoder()
        z = rng.normal(size=32).astype(np.float32)
        assert np.array_equal(decoder.decode(z), decoder.decode(z))

    def test_same_seed_same_decoder(self, rng):
        z = rng.normal(size=32).astype(np.float32)
        a = RandomImageDecoder(DecoderSpec(seed=7)).decode(z)
        b = RandomImageDecoder(DecoderSpec(seed=7)).decode(z)
        c = RandomImageDecoder(DecoderSpec(seed=8)).decode(z)
        np.testing.assert_allclose(a, b)
        assert not np.allclose(a, c)

    def test_batch_decode(self, rng):
        decoder = RandomImageDecoder()
        latents = rng.normal(size=(5, 32)).astype(np.float32)
        images = decoder.decode_batch(latents)
        assert images.shape == (5, 3, 24, 24)

    def test_empty_batch(self):
        images = RandomImageDecoder().decode_batch(np.zeros((0, 32), np.float32))
        assert images.shape == (0, 3, 24, 24) and images.dtype == np.float32


class TestLatentClassSampler:
    def test_class_centres_are_distinct(self):
        sampler = LatentClassSampler(8, 32)
        distances = np.linalg.norm(sampler.centres[:, None] - sampler.centres[None, :], axis=-1)
        off_diagonal = distances[~np.eye(8, dtype=bool)]
        assert off_diagonal.min() > 0.1

    def test_samples_cluster_around_centres(self, rng):
        sampler = LatentClassSampler(4, 32, intra_class_std=0.1, nuisance_std=0.0)
        samples = sampler.sample_batch(np.zeros(20, dtype=int), rng)
        centre = sampler.signal_scale * sampler.centres[0] * sampler.signal_mask
        assert np.linalg.norm(samples.mean(axis=0) - centre) < 0.5

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            LatentClassSampler(1, 32)


class TestClassificationDataset:
    def _dataset(self, n=20, classes=4):
        images = np.random.rand(n, 3, 8, 8).astype(np.float32)
        labels = np.arange(n) % classes
        return ClassificationDataset(images, labels, classes)

    def test_len_getitem(self):
        ds = self._dataset()
        assert len(ds) == 20
        image, label = ds[3]
        assert image.shape == (3, 8, 8)
        assert label == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((3, 3, 4, 4)), np.zeros(2), 2)

    def test_subset_and_split(self):
        ds = self._dataset()
        subset = ds.subset(np.array([0, 1, 2]))
        assert len(subset) == 3
        train, val = ds.split(0.75, seed=1)
        assert len(train) == 15 and len(val) == 5


class TestSyntheticImageNet:
    def test_shapes_and_labels(self):
        data = SyntheticImageNet(num_classes=5, samples_per_class=6, val_samples_per_class=2, resolution=16)
        assert len(data.train) == 30
        assert len(data.val) == 10
        assert data.train.images.shape[1:] == (3, 16, 16)
        assert set(np.unique(data.train.labels)) == set(range(5))

    def test_resolution_must_be_multiple_of_four(self):
        with pytest.raises(ValueError):
            SyntheticImageNet(resolution=18)

    def test_empty_val_split(self):
        data = SyntheticImageNet(num_classes=3, samples_per_class=2, val_samples_per_class=0, resolution=16)
        assert data.val.images.shape == (0, 3, 16, 16) and data.val.images.dtype == np.float32
        assert data.val.labels.shape == (0,) and data.val.labels.dtype == np.int64
        assert len(data.train) == 6

    def test_classes_are_visually_distinguishable(self):
        """Per-class mean images should differ more across classes than noise."""
        data = SyntheticImageNet(num_classes=4, samples_per_class=20, val_samples_per_class=2, resolution=16,
                                 intra_class_std=0.3)
        means = np.stack([
            data.train.images[data.train.labels == c].mean(axis=0) for c in range(4)
        ])
        across = np.linalg.norm(means[0] - means[1])
        within = np.linalg.norm(
            data.train.images[data.train.labels == 0][0] - means[0]
        )
        assert across > 0.2 * within  # class signal is present

    def test_reproducible_with_seed(self):
        a = SyntheticImageNet(num_classes=3, samples_per_class=4, val_samples_per_class=2, resolution=16, seed=5)
        b = SyntheticImageNet(num_classes=3, samples_per_class=4, val_samples_per_class=2, resolution=16, seed=5)
        assert np.array_equal(a.train.images, b.train.images)
        assert np.array_equal(a.val.images, b.val.images)


class TestDownstreamDatasets:
    def test_all_specs_buildable(self):
        for name in DOWNSTREAM_SPECS:
            train, val = downstream_dataset(name, resolution=16)
            spec = DOWNSTREAM_SPECS[name]
            assert train.num_classes == spec.num_classes
            assert len(train) == spec.num_classes * spec.samples_per_class
            assert len(val) == spec.num_classes * spec.val_samples_per_class

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            downstream_dataset("imagenet22k")

    def test_shares_decoder_with_pretraining_corpus(self):
        """Downstream images use the same decoder seed, hence similar statistics."""
        corpus = SyntheticImageNet(num_classes=3, samples_per_class=5, val_samples_per_class=2, resolution=16)
        train, _ = downstream_dataset("pets", resolution=16)
        assert abs(corpus.train.images.mean() - train.images.mean()) < 0.2


class TestSyntheticVOC:
    def test_dataset_structure(self):
        voc = SyntheticVOC(num_classes=4, num_train=6, num_val=3, resolution=32, object_size=12)
        assert len(voc.train) == 6 and len(voc.val) == 3
        sample = voc.train[0]
        assert sample.image.shape == (3, 32, 32)
        assert sample.boxes.shape[1] == 4
        assert len(sample.boxes) == len(sample.labels)
        assert sample.boxes.max() <= 32

    def test_boxes_match_pasted_objects(self):
        voc = SyntheticVOC(num_classes=3, num_train=4, num_val=1, resolution=32, object_size=12, max_objects=1)
        sample = voc.train[0]
        x0, y0, x1, y1 = sample.boxes[0].astype(int)
        assert (x1 - x0) == 12 and (y1 - y0) == 12

    def test_object_size_validation(self):
        with pytest.raises(ValueError):
            SyntheticVOC(object_size=10)

    def test_images_helper_stacks(self):
        voc = SyntheticVOC(num_classes=2, num_train=3, num_val=1, resolution=32)
        assert voc.train.images().shape == (3, 3, 32, 32)

    def test_empty_val_split(self):
        voc = SyntheticVOC(num_classes=2, num_train=2, num_val=0, resolution=32)
        images = voc.val.images()
        assert images.shape == (0, 3, 32, 32) and images.dtype == np.float32
        assert len(voc.train) == 2


# The per-image generator every corpus was first built with, re-created here
# verbatim.  The batched generator must reproduce its bits exactly: recorded
# accuracies repeat per seed only because the corpora do.


def _reference_conv2d_same(x, kernels):
    c_out, c_in, k, _ = kernels.shape
    pad = k // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h, w = x.shape[1:]
    out = np.zeros((c_out, h, w), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            patch = padded[:, i : i + h, j : j + w]
            out += np.einsum("oc,chw->ohw", kernels[:, :, i, j], patch)
    return out


def _reference_upsample2x(x):
    return x.repeat(2, axis=1).repeat(2, axis=2)


def _reference_decode(decoder, latent):
    s = decoder.spec
    seed_map = np.tanh(latent @ decoder._w_seed).reshape(s.base_channels, s.base_size, s.base_size)
    x = _reference_upsample2x(seed_map)
    x = np.tanh(_reference_conv2d_same(x, decoder._k1) + decoder._b1)
    x = _reference_upsample2x(x)
    x = np.tanh(_reference_conv2d_same(x, decoder._k2) + decoder._b2)
    return (0.5 * (x + 1.0)).astype(np.float32)


def _reference_sample(sampler, label, rng):
    centre = sampler.centres[label] * sampler.signal_mask
    jitter = rng.normal(0.0, sampler.intra_class_std, size=sampler.latent_dim).astype(np.float32)
    nuisance = (
        rng.normal(0.0, sampler.nuisance_std, size=sampler.latent_dim).astype(np.float32)
        * (1.0 - sampler.signal_mask)
    )
    return sampler.signal_scale * centre + jitter * sampler.signal_mask + nuisance


def _reference_split(decoder, sampler, num_classes, samples_per_class, pixel_noise, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    rng.shuffle(labels)
    latents = np.stack([_reference_sample(sampler, int(label), rng) for label in labels])
    images = np.stack([_reference_decode(decoder, z) for z in latents])
    if pixel_noise > 0:
        images = images + rng.normal(0.0, pixel_noise, size=images.shape).astype(np.float32)
        images = np.clip(images, 0.0, 1.0)
    return images, labels


def _reference_voc_split(voc, count, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        image = voc._background(rng)
        num_objects = int(rng.integers(1, voc.max_objects + 1))
        boxes, labels = [], []
        for _ in range(num_objects):
            label = int(rng.integers(voc.num_classes))
            patch = _reference_decode(voc._decoder, _reference_sample(voc._sampler, label, rng))
            max_pos = voc.resolution - voc.object_size
            x0 = int(rng.integers(0, max_pos + 1))
            y0 = int(rng.integers(0, max_pos + 1))
            image[:, y0 : y0 + voc.object_size, x0 : x0 + voc.object_size] = patch
            boxes.append([x0, y0, x0 + voc.object_size, y0 + voc.object_size])
            labels.append(label)
        samples.append((image.astype(np.float32), np.asarray(boxes, np.float32), np.asarray(labels, np.int64)))
    return samples


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_synthetic_imagenet_at_benchmark_scale(self, seed):
        kwargs = dict(num_classes=10, signal_scale=4.0, intra_class_std=0.4)
        data = SyntheticImageNet(samples_per_class=60, val_samples_per_class=100, resolution=20, seed=seed, **kwargs)
        for split, per_class, split_seed in ((data.train, 60, seed), (data.val, 100, seed + 1)):
            images, labels = _reference_split(data.decoder, data.sampler, 10, per_class, 0.02, split_seed)
            _assert_same_bits(split.images, images)
            _assert_same_bits(split.labels, labels)

    @pytest.mark.parametrize("name", sorted(DOWNSTREAM_SPECS))
    def test_downstream_datasets(self, name):
        spec = DOWNSTREAM_SPECS[name]
        train, val = downstream_dataset(name)
        decoder = RandomImageDecoder(DecoderSpec(base_size=6))
        sampler = LatentClassSampler(spec.num_classes, 32, intra_class_std=spec.intra_class_std,
                                     class_seed=spec.class_seed)
        for split, per_class, seed in ((train, spec.samples_per_class, 0), (val, spec.val_samples_per_class, 1)):
            images, labels = _reference_split(decoder, sampler, spec.num_classes, per_class, spec.pixel_noise, seed)
            _assert_same_bits(split.images, images)
            _assert_same_bits(split.labels, labels)

    def test_synthetic_voc(self):
        voc = SyntheticVOC(num_classes=4, num_train=24, num_val=8, max_objects=3, seed=3)
        for split, count, seed in ((voc.train, 24, 3), (voc.val, 8, 4)):
            expected = _reference_voc_split(voc, count, seed)
            assert len(split) == count
            for sample, (image, boxes, labels) in zip(split.samples, expected):
                _assert_same_bits(sample.image, image)
                _assert_same_bits(sample.boxes, boxes)
                _assert_same_bits(sample.labels, labels)

    @pytest.mark.parametrize("n", [1, DECODE_CHUNK - 1, DECODE_CHUNK, DECODE_CHUNK + 1, 2 * DECODE_CHUNK + 3])
    def test_decode_batch_matches_rows_across_chunk_boundaries(self, n):
        decoder = RandomImageDecoder(DecoderSpec(base_size=5))
        latents = np.random.default_rng(n).normal(size=(n, 32)).astype(np.float32)
        images = decoder.decode_batch(latents)
        _assert_same_bits(images, np.stack([decoder.decode(z) for z in latents]))
        _assert_same_bits(images, np.stack([_reference_decode(decoder, z) for z in latents]))

    @pytest.mark.parametrize("n", [1, DECODE_CHUNK - 1, DECODE_CHUNK, DECODE_CHUNK + 1, 2 * DECODE_CHUNK + 3])
    @pytest.mark.parametrize("base_size", [3, 4, 5, 6, 8])
    def test_decode_batch_matches_reference_at_every_resolution(self, base_size, n):
        # res 12-32: odd and even low-res sides, so every parity slice meets the padding
        decoder = RandomImageDecoder(DecoderSpec(base_size=base_size, seed=base_size))
        latents = 2.0 * np.random.default_rng(base_size * 1000 + n).normal(size=(n, 32)).astype(np.float32)
        _assert_same_bits(decoder.decode_batch(latents), np.stack([_reference_decode(decoder, z) for z in latents]))

    def test_sample_batch_matches_sequential_samples(self):
        sampler = LatentClassSampler(6, 32, class_seed=9)
        labels = np.random.default_rng(1).integers(6, size=50)
        batch_rng, rng, reference_rng = (np.random.default_rng(7) for _ in range(3))
        batched = sampler.sample_batch(labels, batch_rng)
        _assert_same_bits(batched, np.stack([sampler.sample(int(label), rng) for label in labels]))
        _assert_same_bits(batched, np.stack([_reference_sample(sampler, int(label), reference_rng) for label in labels]))
        # All three leave the stream at the same point, so later draws match too.
        assert batch_rng.bit_generator.state == rng.bit_generator.state == reference_rng.bit_generator.state


class TestDataLoader:
    def _dataset(self, n=23):
        return ClassificationDataset(np.random.rand(n, 3, 8, 8).astype(np.float32), np.arange(n) % 3, 3)

    def test_batch_shapes_and_count(self):
        loader = DataLoader(self._dataset(), batch_size=8, shuffle=False)
        batches = list(loader)
        assert len(loader) == 3
        assert len(batches) == 3
        assert batches[0][0].shape == (8, 3, 8, 8)
        assert batches[-1][0].shape == (7, 3, 8, 8)

    def test_drop_last(self):
        loader = DataLoader(self._dataset(), batch_size=8, drop_last=True)
        assert len(loader) == 2
        assert all(len(labels) == 8 for _, labels in loader)

    def test_shuffle_changes_order_but_not_content(self):
        ds = self._dataset()
        loader = DataLoader(ds, batch_size=23, shuffle=True, seed=3)
        images, labels = next(iter(loader))
        assert sorted(labels.tolist()) == sorted(ds.labels.tolist())
        assert not np.array_equal(labels, ds.labels)

    def test_transform_applied(self):
        calls = []

        class Marker:
            def __call__(self, image, rng):
                calls.append(1)
                return image * 0

        loader = DataLoader(self._dataset(5), batch_size=5, transform=Marker())
        images, _ = next(iter(loader))
        assert len(calls) == 5
        assert images.sum() == 0

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._dataset(), batch_size=0)


class TestShardedLoader:
    """Sharded loading contract for data-parallel training: disjoint shards,
    exact epoch coverage, identical batch contents regardless of which worker
    assembles them."""

    def _dataset(self, n=23):
        rng = np.random.default_rng(11)
        return ClassificationDataset(rng.random((n, 3, 8, 8)).astype(np.float32), np.arange(n) % 3, 3)

    def _loader(self, ds, shard=None, seed=7):
        return DataLoader(ds, batch_size=4, shuffle=True, seed=seed, shard=shard)

    def test_invalid_shard(self):
        for shard in [(2, 2), (-1, 2), (0, 0)]:
            with pytest.raises(ValueError):
                DataLoader(self._dataset(), batch_size=4, shard=shard)

    def test_shards_disjoint_and_cover_epoch_exactly_once(self):
        ds = self._dataset()
        world = 3
        full = list(self._loader(ds))
        shard_batches = [list(self._loader(ds, shard=(r, world))) for r in range(world)]
        assert sum(len(b) for b in shard_batches) == len(full)
        # Rank r yields exactly the global batches r, r+world, r+2*world, ...
        for rank, batches in enumerate(shard_batches):
            for local, (images, labels) in enumerate(batches):
                ref_images, ref_labels = full[rank + local * world]
                np.testing.assert_array_equal(images, ref_images)
                np.testing.assert_array_equal(labels, ref_labels)
        # Disjoint + exhaustive: the union of yielded samples is the dataset.
        seen = np.concatenate([
            labels for batches in shard_batches for _, labels in batches
        ])
        assert len(seen) == len(ds)

    def test_shard_of_one_is_byte_identical_to_unsharded(self):
        ds = self._dataset()
        for (a_img, a_lab), (b_img, b_lab) in zip(self._loader(ds), self._loader(ds, shard=(0, 1))):
            np.testing.assert_array_equal(a_img, b_img)
            np.testing.assert_array_equal(a_lab, b_lab)

    def test_replay_identical_across_runs(self):
        ds = self._dataset()
        reference = list(self._loader(ds, shard=(1, 2)))
        run = list(self._loader(ds, shard=(1, 2)))
        assert len(run) == len(reference)
        for (images, labels), (ref_images, ref_labels) in zip(run, reference):
            np.testing.assert_array_equal(images, ref_images)
            np.testing.assert_array_equal(labels, ref_labels)

    def test_sharding_with_transform_keeps_per_batch_seeds_aligned(self):
        """Batch b gets the same augmentation no matter which rank builds it."""

        class Jitter:
            def __call__(self, image, rng):
                return image + rng.normal(0, 0.1, size=image.shape).astype(np.float32)

        ds = self._dataset()
        full = list(DataLoader(ds, batch_size=4, shuffle=True, seed=5, transform=Jitter()))
        for rank in range(2):
            sharded = list(DataLoader(ds, batch_size=4, shuffle=True, seed=5, transform=Jitter(), shard=(rank, 2)))
            for local, (images, labels) in enumerate(sharded):
                np.testing.assert_array_equal(images, full[rank + local * 2][0])

    def test_epoch_plans_advance_identically_across_shards(self):
        """Epoch 2 of rank 0 matches epoch 2 of the unsharded loader (the
        loader RNG consumes identically regardless of shard)."""
        ds = self._dataset()
        full = self._loader(ds)
        sharded = self._loader(ds, shard=(0, 2))
        list(full), list(sharded)  # burn epoch 1
        epoch2_full = list(full)
        epoch2_sharded = list(sharded)
        for local, (images, labels) in enumerate(epoch2_sharded):
            np.testing.assert_array_equal(images, epoch2_full[local * 2][0])
            np.testing.assert_array_equal(labels, epoch2_full[local * 2][1])
