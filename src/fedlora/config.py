"""Experiment configuration: defaults, YAML parsing, strict validation."""

import math
import re
import sys
from dataclasses import dataclass, field, fields

import yaml

from .curriculum import PACES

MODES = ("fibecfed", "no-curriculum", "full-sync", "no-mask", "fedavg-lora")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # federation
    devices: int = 20
    sampled_per_round: int = 5
    rounds: int = 60
    local_iterations: int = 2
    lr: float = 0.004
    batch_size: int = 8
    # curriculum
    beta: float = 0.9
    alpha: float = 0.2
    pace: str = "linear"
    # layer selection
    noise_budget: float = 0.1
    p_norm: float = 2.0
    mu: float = 1.0
    # fisher momentum / warmup
    gamma_m: float = 0.9
    warmup_epochs: int = 3
    momentum_epochs: int = 3
    # hessian / lipschitz estimation
    hessian_samples: int = 8
    lipschitz_points: int = 64
    # model
    hidden_dims: list = field(default_factory=lambda: [16, 12])
    lora_rank: int = 2
    # dataset
    num_classes: int = 10
    per_class: int = 200
    dim: int = 16
    class_sep: float = 2.5
    dirichlet_alpha: float = 1.0
    train_fraction: float = 0.8
    # run
    seed: int = 0
    mode: str = "fibecfed"

    def validate(self):
        def check(cond, key, why):
            if not cond:
                raise ConfigError(f"{key}: {why}")

        for f in fields(self):  # first, so no check meets a wrong type
            _check_type(f.name, getattr(self, f.name))
        for key in _FLOAT_KEYS:  # next, so NaN is not called out of range
            check(math.isfinite(getattr(self, key)), key,
                  f"expected a finite number, got {getattr(self, key)!r}")
        check(self.devices >= 1, "devices", "must be >= 1")
        check(1 <= self.sampled_per_round <= self.devices,
              "sampled_per_round", "must lie in [1, devices]")
        check(self.rounds >= 0, "rounds", "must be >= 0")
        check(self.local_iterations >= 1, "local_iterations", "must be >= 1")
        check(self.lr > 0, "lr", "must be positive")
        check(self.batch_size >= 1, "batch_size", "must be >= 1")
        check(0 < self.beta <= 1, "beta", "must lie in (0, 1]")
        check(0 < self.alpha <= 1, "alpha", "must lie in (0, 1]")
        check(self.pace in PACES, "pace", f"must be one of {PACES}")
        check(self.noise_budget > 0, "noise_budget", "must be positive")
        check(self.p_norm > 1, "p_norm", "must be > 1")
        check(self.mu > 0, "mu", "must be positive")
        check(0 <= self.gamma_m <= 1, "gamma_m", "must lie in [0, 1]")
        check(self.warmup_epochs >= 0, "warmup_epochs", "must be >= 0")
        check(self.momentum_epochs >= 1, "momentum_epochs", "must be >= 1")
        check(self.hessian_samples >= 1, "hessian_samples", "must be >= 1")
        check(self.lipschitz_points >= 2, "lipschitz_points", "must be >= 2")
        check(len(self.hidden_dims) >= 1 and all(h >= 1 for h in self.hidden_dims),
              "hidden_dims", "must be a non-empty list of positive ints")
        check(self.lora_rank >= 1, "lora_rank", "must be >= 1")
        check(self.num_classes >= 2, "num_classes", "must be >= 2")
        check(self.per_class >= 1, "per_class", "must be >= 1")
        check(self.dim >= 1, "dim", "must be >= 1")
        check(self.class_sep > 0, "class_sep", "must be positive")
        check(self.dirichlet_alpha > 0, "dirichlet_alpha", "must be positive")
        # a Dirichlet draw sums `devices` Gamma(alpha) variates of about alpha
        # each, which must stay finite (here with a factor 2 to spare)
        cap = sys.float_info.max / (2 * self.devices)
        check(self.dirichlet_alpha <= cap, "dirichlet_alpha",
              f"must be at most {cap:.4g} for {self.devices} devices")
        check(0 < self.train_fraction < 1, "train_fraction", "must lie in (0, 1)")
        check(self.mode in MODES, "mode", f"must be one of {MODES}")
        check(self.seed >= 0, "seed", "must be >= 0")
        check(self.lora_rank <= min([self.dim, self.num_classes] + list(self.hidden_dims)),
              "lora_rank", "must not exceed any layer dimension")
        total = self.num_classes * self.per_class
        check(self.devices * self.min_shard <= total, "devices",
              f"{self.devices} devices need {self.devices * self.min_shard} "
              f"samples (at least {self.min_shard} each), but "
              f"num_classes * per_class = {total}")
        return self

    @property
    def min_shard(self):
        """Smallest device shard the partition hands out: two batches, and
        at least 4 samples."""
        return max(2 * self.batch_size, 4)

    # component toggles implied by the mode
    @property
    def curriculum_on(self):
        return self.mode not in ("no-curriculum", "fedavg-lora")

    @property
    def gal_on(self):
        return self.mode not in ("full-sync", "fedavg-lora")

    @property
    def mask_on(self):
        return self.mode not in ("no-mask", "fedavg-lora")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_KEYS = {k for k, t in _FIELD_TYPES.items() if t in (int, "int")}
_FLOAT_KEYS = [k for k, t in _FIELD_TYPES.items() if t in (float, "float")]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(key, value):
    """ConfigError naming `key` unless `value` has the key's type: an int
    for an int key, an int or a float for a float key (a bool is neither),
    a list of ints for `hidden_dims` and a string for the rest."""
    if key in _INT_KEYS:
        ok, want = _is_int(value), "an integer"
    elif key in _FLOAT_KEYS:
        ok, want = _is_int(value) or isinstance(value, float), "a number"
    elif key == "hidden_dims":
        ok = isinstance(value, list) and all(map(_is_int, value))
        want = "a list of integers"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{key}: expected {want}, got {value!r}")


class _Loader(yaml.SafeLoader):
    """YAML 1.1 loading, except that a number with an exponent is a float
    even without a dot or an exponent sign (`1e-3`, `1.0e150`), as in YAML
    1.2; PyYAML's 1.1 resolver reads those as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def parse_config(source):
    """Build a validated ExperimentConfig from YAML text or a mapping.

    Unknown keys, wrong types, non-finite numbers and cross-field
    violations are rejected with the offending key named; an empty document
    yields the full defaults.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        try:
            raw = yaml.load(source, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config document: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a key/value mapping")

    known = set(_FIELD_TYPES)
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")

    # ints for float keys become floats; `validate` checks every type
    coerced = {key: float(value) if key in _FLOAT_KEYS and type(value) is int
               else value for key, value in raw.items()}
    return ExperimentConfig(**coerced).validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
