"""The workload table: which inputs each workload runs, at which shape.

Full shapes follow the paper's benchmarks on a ResNet-50-sized toy
encoder (C=1024, D=512): PACS has M=7 classes, DomainNet M=345.  The
tiny shapes exist for the benchmark's own smoke tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

# DomainNet's six domains; the toy dataset gives each its own style.
DOMAINS = ("clipart", "infograph", "painting", "quickdraw", "real", "sketch")
# The toy backend's class capacity, raised to DomainNet's class count.
MAX_CLASSES = 345
BATCH_SIZE = 128


@dataclass(frozen=True)
class Shape:
    num_classes: int
    dim_joint: int = 1024
    dim_token: int = 512
    # Training recipe of the measured run (train workloads) or of the
    # generated ensemble members (the eval workload).
    num_styles: int = 80
    epochs: int = 1
    templates: int = 1
    # Eval inputs: records per domain, how many of them are malformed,
    # and the size of the zero-shot subset.
    images_per_domain: int = 0
    malformed: int = 0
    zeroshot_records: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    full: Shape
    tiny: Shape
    why: str

    def shape(self, scale: str) -> Shape:
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        return self.full if scale == "full" else self.tiny


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-pacs", "train",
            full=Shape(num_classes=7, epochs=5),
            tiny=Shape(num_classes=3, dim_joint=64, dim_token=32, num_styles=4, epochs=2),
            why="M=7, K=80, 5 epochs of 5 batches: per-epoch fixed costs (style refresh, "
            "probe encode, SGD setup) show; never reaches evaluation",
        ),
        Workload(
            "train-domainnet", "train",
            full=Shape(num_classes=345, epochs=1),
            tiny=Shape(num_classes=5, dim_joint=64, dim_token=32, num_styles=4, epochs=1),
            why="M=345, K=80, one epoch of 216 batches with a 345-row head: per-prompt "
            "encode, gate and loss costs dominate; never reaches evaluation",
        ),
        Workload(
            "eval-domainnet", "eval",
            full=Shape(num_classes=345, num_styles=2, epochs=1, templates=3,
                       images_per_domain=70, malformed=8, zeroshot_records=8),
            tiny=Shape(num_classes=5, dim_joint=64, dim_token=32, num_styles=2, epochs=1,
                       templates=3, images_per_domain=6, malformed=4, zeroshot_records=6),
            why="3-member max-fusion ensemble over 420 M=345 records (8 malformed), then C and "
            "PC zero-shot over 8 of them: decode, image encode, 1-row gate, scoring, fusion",
        ),
    )
}
