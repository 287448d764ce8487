"""Settings of the embedding pretraining and the rule-weight trainer.

They live apart from `rotate` and `trainer`, so the CLI can read and hash a
config without loading the reasoning stages.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RotateConfig:
    dim: int = 64  # complex dimensions; entity rows hold 2*dim reals
    margin: float = 6.0
    negatives: int = 64
    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 256
    seed: int = 0
    enabled: bool = True  # off: rank with rule evidence alone

    def __post_init__(self):
        if self.dim < 1 or self.negatives < 1 or self.batch_size < 1:
            raise ValueError("dim, negatives and batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs cannot be negative")
        for name in ("lr", "margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("rotate.%s must be finite, got %r" % (name, getattr(self, name)))
        if self.lr < 0:
            raise ValueError("rotate.lr must be >= 0, got %r" % self.lr)


@dataclass(frozen=True)
class TrainerConfig:
    lr: float = 1e-3
    weight_decay: float = 0.1
    step_size: int = 100
    step_gamma: float = 0.01
    patience: int = 30
    max_epochs: int = 500
    uniform_weights: bool = False  # freeze logits equal; ablation mode

    def __post_init__(self):
        if self.step_size < 1 or self.patience < 1 or self.max_epochs < 0:
            raise ValueError("step_size and patience must be positive, max_epochs >= 0")
        for name in ("lr", "weight_decay", "step_gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError("trainer.%s must be finite, got %r" % (name, value))
            if value < 0:
                raise ValueError("trainer.%s must be >= 0, got %r" % (name, value))
