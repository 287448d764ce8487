"""Settings of every INI section, [run], [kb] and each pipeline stage's,
and the proposer backend's error.

Every section is declared here, apart from the stage modules, so the CLI
can read and hash a config, and report a stage's errors, without loading
the stages; each command loads only the stages it runs. A field whose
metadata holds a `stage` number is that stage's seed: the CLI derives it
from [run] seed, and it is no INI key.
"""

import math
import threading
from dataclasses import dataclass, field

from numpy.random import SeedSequence


def stage_seed(seed: int, stage: int) -> int:
    """The seed of pipeline stage `stage`, derived from the [run] seed."""
    return int(SeedSequence([seed, stage]).generate_state(1)[0])


def _check_bounds(section: str, cfg, least: dict[str, float], above: tuple[str, ...] = ()) -> None:
    """ValueError naming `section.key` for the first setting of `cfg` in
    `least` that is a float and not finite, or is below its least value;
    a key in `above` must be above it, and a least value of -inf asks for
    finiteness only. Only floats are checked for finiteness: `math.isfinite`
    of an int too large for a float raises."""
    for key, bound in least.items():
        value = getattr(cfg, key)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("%s.%s must be finite, got %r" % (section, key, value))
        op = ">" if key in above else ">="
        if value < bound or (op == ">" and value == bound):
            raise ValueError("%s.%s must be %s %s, got %r" % (section, key, op, bound, value))


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        _check_bounds("run", self, {"seed": 0})


@dataclass(frozen=True)
class KBConfig:
    train: str = ""
    valid: str = ""  # empty: no such split
    test: str = ""

    def __post_init__(self):
        if not self.train:
            raise ValueError("config [kb] train path is required")


@dataclass(frozen=True)
class ExtractorConfig:
    max_hops: int = 3
    max_neighbors_per_entity: int = 3
    max_subgraphs_per_relation: int = 30
    rng_seed: int = field(default=0, metadata={"stage": 1})

    def __post_init__(self):
        _check_bounds("extract", self, {"max_hops": 1, "max_neighbors_per_entity": 1, "max_subgraphs_per_relation": 1})


OFFLINE = "offline-miner"
REMOTE = "remote-chat"


class ProposerError(Exception):
    """Backend failure after retries, or a malformed completion payload."""


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
            raise ValueError("proposer.backend must be %r or %r, got %r" % (OFFLINE, REMOTE, self.backend))
        # urllib would also open file:// and ftp:// URLs
        if self.backend == REMOTE and not self.endpoint.lower().startswith(("http://", "https://")):
            raise ValueError("proposer.endpoint must be an http:// or https:// URL, got %r" % self.endpoint)
        least = {"request_timeout": 0, "max_retries": 0, "retry_backoff": 0, "temperature": -math.inf}
        _check_bounds("proposer", self, least, above=("request_timeout",))
        # sockets and time.sleep take waits of at most TIMEOUT_MAX seconds;
        # the last retry's sleep is compared by division, as the product
        # overflows a float for a max_retries too large for one
        most = threading.TIMEOUT_MAX
        if self.request_timeout > most:
            raise ValueError("proposer.request_timeout must be <= %r, got %r" % (most, self.request_timeout))
        if self.retry_backoff and self.max_retries > most / self.retry_backoff:
            message = "proposer.retry_backoff * max_retries must be <= %r, got %r * %d"
            raise ValueError(message % (most, self.retry_backoff, self.max_retries))


@dataclass(frozen=True)
class RotateConfig:
    dim: int = 64  # complex dimensions; entity rows hold 2*dim reals
    margin: float = 6.0
    negatives: int = 64
    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 256
    seed: int = field(default=0, metadata={"stage": 2})
    enabled: bool = True  # off: rank with rule evidence alone

    def __post_init__(self):
        least = {"dim": 1, "margin": -math.inf, "negatives": 1, "epochs": 0, "lr": 0, "batch_size": 1}
        _check_bounds("rotate", self, least)


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
        least = {"lr": 0, "weight_decay": 0, "step_size": 1, "step_gamma": 0, "patience": 1, "max_epochs": 0}
        _check_bounds("trainer", self, least)
