"""Global-aggregation-layer selection: dual-norm adversarial input noise,
relative Frobenius layer sensitivity, importance aggregation across devices,
and the eigengap lossless sizing rule."""

from dataclasses import dataclass, field

import numpy as np

from .network import backward, forward


@dataclass
class NoiseConfig:
    noise_budget: float      # perturbation size in the p-norm
    p_norm: float = 2.0

    def __post_init__(self):
        if self.noise_budget <= 0:
            raise ValueError("noise budget must be positive")
        if self.p_norm <= 1:
            raise ValueError("p norm must be > 1 for a finite dual exponent")

    @property
    def q_norm(self):
        return self.p_norm / (self.p_norm - 1.0)


@dataclass
class GalDecision:
    gal_layers: set
    n_star: int
    mu: float
    per_device: dict = field(default_factory=dict)  # k -> (n_star_k, r_k, R_k)
    global_scores: list = field(default_factory=list)


def adversarial_noise(net, s, label, cfg):
    """Worst-case input perturbation of p-norm size `noise_budget`, for one
    sample or for each row of a sample matrix.

    Closed form of the linearized dual problem:
    eps = budget * sign(g)|g|^(q-1) / (||g||_q^q)^(1/p), which reduces to
    budget * g/||g||_2 at p = q = 2. Returns (eps, degenerate_flag); the flag
    marks a zero gradient, in which case eps is the zero vector.
    """
    g = backward(net, s, label).d_input
    q = cfg.q_norm
    gq = np.sum(np.abs(g) ** q, axis=-1, keepdims=True)
    degenerate = gq == 0.0
    eps = (cfg.noise_budget * np.sign(g) * np.abs(g) ** (q - 1.0)
           / np.where(degenerate, 1.0, gq) ** (1.0 / cfg.p_norm))
    return eps, degenerate[..., 0]


def layer_relative_diff(net, s, eps):
    """Relative change of every layer's hidden-state norm under perturbation,
    for one sample or for each row of a sample matrix.

    A layer whose clean hidden state has zero norm reports 0 for that layer
    (degenerate, flagged). Returns (per-layer diffs, degenerate_flag).
    """
    s = np.asarray(s, dtype=np.float64)
    clean = np.stack([np.linalg.norm(h, axis=-1)
                      for h in forward(net, s).hidden], axis=-1)
    noisy = np.stack([np.linalg.norm(h, axis=-1)
                      for h in forward(net, s + eps).hidden], axis=-1)
    zero = clean == 0.0
    diffs = np.where(zero, 0.0, (noisy - clean) / np.where(zero, 1.0, clean))
    return diffs, zero.any(axis=-1)


def device_layer_scores(net, samples, labels, cfg):
    """Mean per-layer sensitivity over a device's local data, with the noise
    computed per sample."""
    if len(samples) == 0:
        raise ValueError("device has no local data to score")
    eps, _ = adversarial_noise(net, samples, labels, cfg)
    diffs, _ = layer_relative_diff(net, samples, eps)
    return diffs.mean(axis=0)


def aggregate_layer_scores(per_device):
    """Sample-count-weighted average of per-device layer scores."""
    if len(per_device) == 0:
        raise ValueError("no device scores to aggregate")
    total = sum(n_k for n_k, _ in per_device)
    if total <= 0:
        raise ValueError("total sample count must be positive")
    acc = None
    for n_k, scores in per_device:
        term = (n_k / total) * np.asarray(scores, dtype=np.float64)
        acc = term if acc is None else acc + term
    return acc


def lipschitz_estimate(g, center, radius, samples, rng):
    """Empirical Lipschitz constant of a vector map over a ball.

    Max of ||g(x)-g(y)|| / ||x-y|| over all pairs of `samples` points drawn
    uniformly in the ball around `center`. Deterministic given the RNG state.
    """
    if samples < 2:
        raise ValueError("need at least two sample points")
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64)
    dim = center.size
    pts = []
    for _ in range(samples):
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        pts.append(center + radius * rng.random() ** (1.0 / dim) * d)
    vals = [np.asarray(g(p), dtype=np.float64) for p in pts]
    best = None
    for i in range(samples):
        for j in range(i + 1, samples):
            dx = np.linalg.norm(pts[i] - pts[j])
            if dx == 0.0:
                continue
            ratio = np.linalg.norm(vals[i] - vals[j]) / dx
            best = ratio if best is None else max(best, ratio)
    if best is None:
        raise ArithmeticError("all sampled point pairs coincide")
    return float(best)


def eigengap_rank(eigenvalues, lipschitz):
    """Smallest 1-based r with lambda_{r+1} - lambda_r > 4*lipschitz; falls
    back to the full count when no gap is confident."""
    ev = np.asarray(eigenvalues, dtype=np.float64)
    if ev.size == 0:
        raise ValueError("empty spectrum")
    gap = 4.0 * lipschitz
    for r in range(ev.size - 1):
        if ev[r + 1] - ev[r] > gap:
            return r + 1
    return ev.size


def gal_count(per_device, num_layers, mu):
    """Expected GAL size: weighted mean of per-device (1 - r/R)*L, scaled by
    mu, rounded, clamped to [1, L]."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    total = sum(n_k for n_k, _, _ in per_device)
    if total <= 0:
        raise ValueError("total sample count must be positive")
    acc = 0.0
    for n_k, r_k, cap_r_k in per_device:
        if cap_r_k < 1 or not 0 <= r_k <= cap_r_k:
            raise ValueError(f"invalid ranks r={r_k}, R={cap_r_k}")
        acc += n_k * (1.0 - r_k / cap_r_k) * num_layers
    n_star = int(round(mu * acc / total))
    return max(1, min(n_star, num_layers))


def select_gal(global_scores, n_star):
    """Indices of the n_star highest-scoring layers; ties prefer the lower
    layer index."""
    scores = np.asarray(global_scores, dtype=np.float64)
    if n_star > scores.size:
        raise ValueError("n_star exceeds layer count")
    order = sorted(range(scores.size), key=lambda l: (-scores[l], l))
    return set(order[:n_star])
