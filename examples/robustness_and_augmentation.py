"""Fig. 1(a) revisited: strong augmentation vs capacity for tiny networks.

The paper's first observation is that TNNs under-fit: regularisation and heavy
augmentation, which help large networks, *hurt* tiny ones, whereas adding
capacity during training (NetBooster) helps.  This example reproduces that
comparison on the synthetic corpus and additionally measures robustness to
common corruptions, since a practitioner will want to know whether the
capacity-trained network is also the more robust one.

Three training runs of the same MobileNetV2-Tiny:

* vanilla cross-entropy;
* vanilla + MixUp (a strong augmentation);
* NetBooster (expansion-then-contraction).

Run with::

    python examples/robustness_and_augmentation.py [--epochs 6]
"""

from __future__ import annotations

import argparse

from repro.baselines import train_vanilla
from repro.core import ExpansionConfig, NetBooster, NetBoosterConfig
from repro.data import MixingLoss, SyntheticImageNet
from repro.eval import evaluate_robustness
from repro.models import mobilenet_v2
from repro.train import Trainer
from repro.utils import ExperimentConfig, get_logger, seed_everything

LOGGER = get_logger("robustness")

CORRUPTIONS = ["gaussian_noise", "gaussian_blur", "contrast"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--finetune-epochs", type=int, default=3)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    seed_everything(args.seed)
    corpus = SyntheticImageNet(
        num_classes=args.classes, samples_per_class=60, val_samples_per_class=15, resolution=20
    )
    total_epochs = args.epochs + args.finetune_epochs
    base_config = ExperimentConfig(epochs=total_epochs, batch_size=32, lr=0.1)

    models = {}

    LOGGER.info("training vanilla ...")
    seed_everything(args.seed)
    vanilla = mobilenet_v2("tiny", num_classes=args.classes)
    train_vanilla(vanilla, corpus.train, corpus.val, base_config)
    models["vanilla"] = vanilla

    LOGGER.info("training vanilla + MixUp ...")
    seed_everything(args.seed)
    mixup_model = mobilenet_v2("tiny", num_classes=args.classes)
    Trainer(
        mixup_model,
        base_config,
        loss_computer=MixingLoss(num_classes=args.classes, alpha=0.4),
    ).fit(corpus.train, corpus.val)
    models["vanilla + MixUp"] = mixup_model

    LOGGER.info("training with NetBooster ...")
    seed_everything(args.seed)
    booster = NetBooster(
        NetBoosterConfig(
            expansion=ExpansionConfig(fraction=0.5),
            pretrain=ExperimentConfig(epochs=args.epochs, batch_size=32, lr=0.1),
            finetune=ExperimentConfig(epochs=args.finetune_epochs, batch_size=32, lr=0.03),
            plt_decay_fraction=0.3,
        )
    )
    models["NetBooster"] = booster.run(
        mobilenet_v2("tiny", num_classes=args.classes), corpus.train, corpus.val
    ).model

    print("\n============== accuracy and robustness comparison ==============")
    print(f"{'method':<18s} {'clean':>8s} {'corrupted':>10s} {'gap':>7s}")
    reports = {}
    for label, model in models.items():
        report = evaluate_robustness(
            model, corpus.val, corruptions=CORRUPTIONS, severities=(1, 3, 5)
        )
        reports[label] = report
        print(
            f"{label:<18s} {report.clean_accuracy:>7.2f}% "
            f"{report.mean_corruption_accuracy:>9.2f}% {report.robustness_gap:>6.2f}%"
        )

    print("\nPer-corruption breakdown (NetBooster):")
    print(reports["NetBooster"].summary())
    print(
        "\nExpected qualitative outcome (paper Fig. 1a): strong augmentation does not "
        "help the under-fitting tiny network, while NetBooster's extra training "
        "capacity does."
    )


if __name__ == "__main__":
    main()
