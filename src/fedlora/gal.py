"""Global-aggregation-layer selection: dual-norm adversarial input noise,
relative Frobenius layer sensitivity, importance aggregation across devices,
and the eigengap lossless sizing rule."""

from dataclasses import dataclass, field

import numpy as np

from .network import backward, forward


@dataclass
class GalDecision:
    gal_layers: set
    n_star: int
    per_device: dict = field(default_factory=dict)  # k -> [r_k, R_k]
    global_scores: list = field(default_factory=list)


def adversarial_noise(net, s, label, noise_budget, p_norm):
    """Worst-case input perturbation of p-norm size `noise_budget`, for each
    row of a sample matrix or of a (G, n, d) stack of them.

    Closed form of the linearized dual problem, q = p/(p-1) its dual
    exponent (`validate()` keeps the budget > 0 and p > 1):
    eps = budget * sign(g)|g|^(q-1) / (||g||_q^q)^(1/p), which reduces to
    budget * g/||g||_2 at p = q = 2. Returns (eps, degenerate_flag); the flag
    marks a row with zero gradient, whose eps row is zero.
    """
    g = backward(net, s, label).d_input
    q = p_norm / (p_norm - 1.0)
    gq = np.sum(np.abs(g) ** q, axis=-1, keepdims=True)
    degenerate = gq == 0.0
    eps = (noise_budget * np.sign(g) * np.abs(g) ** (q - 1.0)
           / np.where(degenerate, 1.0, gq) ** (1.0 / p_norm))
    return eps, degenerate[..., 0]


def layer_relative_diff(net, s, eps):
    """Relative change of every layer's hidden-state norm under perturbation,
    for each row of a sample matrix or of a (G, n, d) stack of them.

    A layer whose clean hidden state has zero norm reports 0 for that layer
    (degenerate, flagged). Returns (per-row layer diffs, per-row flag).
    """
    s = np.asarray(s, dtype=np.float64)
    clean = np.stack([np.linalg.norm(h, axis=-1)
                      for h in forward(net, s).hidden], axis=-1)
    noisy = np.stack([np.linalg.norm(h, axis=-1)
                      for h in forward(net, s + eps).hidden], axis=-1)
    zero = clean == 0.0
    diffs = np.where(zero, 0.0, (noisy - clean) / np.where(zero, 1.0, clean))
    return diffs, zero.any(axis=-1)


def device_layer_scores(net, samples, labels, noise_budget, p_norm):
    """Mean per-layer sensitivity over a device's local data, with the noise
    computed per sample; over each device of a (G, n, d) stack of samples,
    a (G, L) result."""
    if len(samples) == 0:
        raise ValueError("device has no local data to score")
    eps, _ = adversarial_noise(net, samples, labels, noise_budget, p_norm)
    diffs, _ = layer_relative_diff(net, samples, eps)
    return diffs.mean(axis=-2)


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
    uniformly in the ball around `center`, skipping coincident pairs. `g`
    maps a stack of points, one per row, to their values, one per row, and
    is called once. Deterministic given the RNG state.
    """
    if samples < 2:
        raise ValueError("need at least two sample points")
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64)
    dim = center.size
    pts = np.empty((samples, dim))
    for p in pts:
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        p[:] = center + radius * rng.random() ** (1.0 / dim) * d
    vals = np.asarray(g(pts), dtype=np.float64)
    ratios = []
    for i in range(samples - 1):  # row i of the pair triangle: (i, j > i)
        dx = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        apart = dx != 0.0
        ratios.extend(np.linalg.norm(vals[i + 1:][apart] - vals[i], axis=1)
                      / dx[apart])
    if not ratios:
        raise ArithmeticError("all sampled point pairs coincide")
    return float(max(ratios))


def eigengap_rank(eigenvalues, lipschitz):
    """Smallest 1-based r with lambda_{r+1} - lambda_r > 4*lipschitz; falls
    back to the full count when no gap is confident."""
    ev = np.asarray(eigenvalues, dtype=np.float64)
    if ev.size == 0:
        raise ValueError("empty spectrum")
    wide = np.flatnonzero(np.diff(ev) > 4.0 * lipschitz)
    return int(wide[0]) + 1 if wide.size else ev.size


def gal_count(per_device, num_layers, mu):
    """Expected GAL size: weighted mean of per-device (1 - r/R)*L, scaled by
    mu, clamped to [1, L] (the upper bound before rounding, so a huge mu
    cannot overflow to an infinite count)."""
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
    return max(1, int(round(min(mu * acc / total, num_layers))))


def select_gal(global_scores, n_star):
    """Indices of the n_star highest-scoring layers; ties prefer the lower
    layer index."""
    scores = np.asarray(global_scores, dtype=np.float64)
    if n_star > scores.size:
        raise ValueError("n_star exceeds layer count")
    order = sorted(range(scores.size), key=lambda l: (-scores[l], l))
    return set(order[:n_star])
