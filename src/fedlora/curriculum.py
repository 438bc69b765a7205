"""Easy-to-hard pacing schedules and per-round batch selection."""

import math
from dataclasses import dataclass

PACES = ("linear", "sqrt", "exp")


@dataclass
class PacingConfig:
    """Curriculum settings, as `ExperimentConfig.validate()` checks them."""
    beta: float            # initial sample ratio
    alpha: float           # fraction of rounds until all data is used
    pace: str = "linear"
    batch_size: int = 8
    total_rounds: int = 100


def pace_ratio(cfg, t):
    """Share of a device's batches trained on in round t: beta plus
    (1 - beta) times a ramp of u = min(t / (alpha * T), 1) that rises from
    0 to 1, so the ratio is exactly 1 from round alpha * T on. The ramps
    are the normalised families of Wu, Dyer & Neyshabur (ICLR 2021): u for
    linear, sqrt(u), and (e^(10 u) - 1) / (e^10 - 1) for exp."""
    u = min(t / (cfg.alpha * cfg.total_rounds), 1.0)
    if cfg.pace == "sqrt":
        u = math.sqrt(u)
    elif cfg.pace == "exp":
        u = math.expm1(10.0 * u) / math.expm1(10.0)
    return cfg.beta + (1.0 - cfg.beta) * u


def pace_count(cfg, t, n_k):
    """Number of batches a device of n_k >= 1 rows trains on in round t >= 0.

    Ceil of `pace_ratio` times the total batch count, clamped to [1, total
    batch count], where a short tail batch counts as one.
    """
    n_batches = math.ceil(n_k / cfg.batch_size)
    count = math.ceil(pace_ratio(cfg, t) * n_batches)
    return max(1, min(count, n_batches))


def sort_batches(scores):
    """Batch indices j by ascending difficulty scores[j]; ties by index."""
    return sorted(range(len(scores)), key=lambda j: (scores[j], j))


def select_batches(order, count):
    """First `count` entries of the sorted order (the easiest batches)."""
    return list(order[:count])
