"""Unit tests for the contraction equivalence check."""

import numpy as np
import pytest

from repro import nn
from repro.core import ExpansionConfig, NetBooster, NetBoosterConfig, functional_equivalence
from repro.core.plt import PLTSchedule
from repro.models import mobilenet_v2
from repro.utils import ExperimentConfig


@pytest.fixture()
def expanded_pair():
    """(original, giant, records) triple for a tiny MobileNetV2."""
    model = mobilenet_v2("tiny", num_classes=4)
    booster = NetBooster(NetBoosterConfig(expansion=ExpansionConfig(fraction=0.5)))
    giant, records = booster.build_giant(model)
    return model, giant, records, booster


class TestFunctionalEquivalence:
    def test_identical_models_match(self):
        model = mobilenet_v2("tiny", num_classes=4)
        report = functional_equivalence(model, model, (3, 16, 16))
        assert report.max_abs_error == 0.0
        assert report.matches(1e-6)

    def test_linearised_giant_matches_contraction(self, expanded_pair):
        _, giant, records, booster = expanded_pair
        PLTSchedule(giant, total_steps=1).finalize()
        contracted = booster.contract(giant, records)
        report = functional_equivalence(giant, contracted, (3, 16, 16), num_probes=2)
        assert report.matches(1e-2)
        assert report.mean_abs_error <= report.max_abs_error

    def test_different_models_do_not_match(self):
        a = mobilenet_v2("tiny", num_classes=4)
        b = mobilenet_v2("tiny", num_classes=4)
        b.classifier.weight.data += 1.0
        report = functional_equivalence(a, b, (3, 16, 16), num_probes=2)
        assert report.max_abs_error > 1e-3
