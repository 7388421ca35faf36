"""Synthetic data substrate: classification corpora, detection sets, loaders."""

from .corruptions import CORRUPTIONS, available_corruptions, corrupt
from .dataloader import DataLoader
from .datasets import (
    DOWNSTREAM_SPECS,
    ClassificationDataset,
    DownstreamSpec,
    SyntheticImageNet,
    downstream_dataset,
)
from .detection import DetectionDataset, DetectionSample, SyntheticVOC
from .mixing import MixingLoss, mixup
from .generator import DecoderSpec, LatentClassSampler, RandomImageDecoder
from .transforms import (
    ColorJitter,
    Compose,
    GaussianNoise,
    Normalize,
    RandAugmentLite,
    RandomCrop,
    RandomErasing,
    RandomHorizontalFlip,
    Transform,
)

__all__ = [
    "DataLoader",
    "ClassificationDataset",
    "SyntheticImageNet",
    "downstream_dataset",
    "DownstreamSpec",
    "DOWNSTREAM_SPECS",
    "DetectionDataset",
    "DetectionSample",
    "SyntheticVOC",
    "DecoderSpec",
    "RandomImageDecoder",
    "LatentClassSampler",
    "Transform",
    "Compose",
    "RandomHorizontalFlip",
    "RandomCrop",
    "RandomErasing",
    "ColorJitter",
    "GaussianNoise",
    "RandAugmentLite",
    "Normalize",
    "CORRUPTIONS",
    "available_corruptions",
    "corrupt",
    "mixup",
    "MixingLoss",
]
