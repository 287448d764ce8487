"""Settings of each pipeline stage, and the proposer backend's error.

They live apart from the stage modules, so the CLI can read and hash a
config, and report a stage's errors, without loading the stages; each
command loads only the stages it runs.
"""

import math
from dataclasses import dataclass

from numpy.random import SeedSequence


def stage_seed(seed: int, stage: int) -> int:
    """The seed of pipeline stage `stage`, derived from the [run] seed."""
    return int(SeedSequence([seed, stage]).generate_state(1)[0])


@dataclass(frozen=True)
class ExtractorConfig:
    max_hops: int = 3
    max_neighbors_per_entity: int = 3
    max_subgraphs_per_relation: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_hops < 1 or self.max_neighbors_per_entity < 1:
            raise ValueError("hop and neighbor caps must be positive")
        if self.max_subgraphs_per_relation < 1:
            raise ValueError("max_subgraphs_per_relation must be positive")


OFFLINE = "offline-miner"
REMOTE = "remote-chat"


class ProposerError(Exception):
    """Backend failure after retries, or a subgraph without a target to propose for."""


@dataclass(frozen=True)
class ProposerConfig:
    backend: str = OFFLINE
    endpoint: str = ""
    model: str = "offline"
    request_timeout: float = 30.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    temperature: float = 0.0
    api_key_env: str = "RULEKBC_API_KEY"

    def __post_init__(self):
        if self.backend not in (OFFLINE, REMOTE):
            raise ValueError("unknown proposer backend %r" % self.backend)
        # urllib would also open file:// and ftp:// URLs
        if self.backend == REMOTE and not self.endpoint.lower().startswith(("http://", "https://")):
            raise ValueError("proposer.endpoint must be an http:// or https:// URL, got %r" % self.endpoint)
        if self.max_retries < 0:
            raise ValueError("proposer.max_retries must be >= 0, got %r" % self.max_retries)
        for name in ("request_timeout", "retry_backoff", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("proposer.%s must be finite, got %r" % (name, getattr(self, name)))
        if self.request_timeout <= 0:
            raise ValueError("proposer.request_timeout must be > 0, got %r" % self.request_timeout)
        if self.retry_backoff < 0:
            raise ValueError("proposer.retry_backoff must be >= 0, got %r" % self.retry_backoff)


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
