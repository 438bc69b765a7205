"""Diagonal Fisher information: per-sample difficulty scores, momentum
smoothing, and neuron-wise importance aggregation.

The diagonal is taken over each layer's effective weight W + B.A, laid out
row-major like the base weight. One sample's gradient there is delta x^T
(pre-activation loss gradient times layer input), so the diagonal has row
sums delta_i^2 ||x||^2 (`network.Gradients.fim_rows`) and trace
||delta||^2 ||x||^2. The engine works from those row sums only; the full
diagonal of `sample_fim_diag` is the reference they are tested against.
"""

from dataclasses import dataclass

import numpy as np

from .network import LoraNetwork, backward, forward


@dataclass
class FimDiag:
    """Per-layer diagonal FIM entries in row-major layout: the full diagonal
    with shape (d_out, d_in), or its row sums with shape (d_out, 1)."""
    per_layer: list          # one flat vector of d_out * columns per layer
    layer_shapes: list       # (d_out, columns) per layer

    def total(self):
        return float(sum(v.sum() for v in self.per_layer))


@dataclass
class BatchScore:
    batch_id: int
    score: float


def sample_fim_diag(net, s, label):
    """Squared per-entry gradient of one sample's loss in full-weight layout.

    Each layer's delta is taken from the input gradient of the network above
    that layer (or from the softmax at the top), not from the closed forms,
    so that this can serve as their reference.
    """
    s = np.asarray(s, dtype=np.float64)
    trace = forward(net, s, label)
    inputs = [s] + trace.hidden[:-1]
    grads = []  # dL/d(W + B.A) per layer
    for li, layer in enumerate(net.layers):
        if li == len(net.layers) - 1:
            delta = trace.probs - np.eye(net.num_classes)[label]
        else:
            above = LoraNetwork(net.layers[li + 1:], net.num_classes)
            delta = backward(above, trace.hidden[li], label).d_input
        if layer.activation == "relu":
            delta = delta * (trace.hidden[li] > 0)
        grads.append(np.outer(delta, inputs[li]))
    return FimDiag([(g ** 2).ravel() for g in grads], [g.shape for g in grads])


def mean_row_fim(fim_rows):
    """Empirical device FIM in row-sum form: the mean over samples of each
    layer's per-sample row sums in `Gradients.fim_rows`."""
    return FimDiag([rows.mean(axis=0) for rows in fim_rows],
                   [(rows.shape[1], 1) for rows in fim_rows])


def sample_score(fd):
    """Difficulty of one sample: trace of its diagonal FIM."""
    return fd.total()


def batch_score(scores):
    if len(scores) == 0:
        raise ValueError("empty batch has no score")
    return float(sum(scores))


def momentum_update(prev, fresh, gamma_m):
    """Exponential moving average of FIM diagonals; first epoch passes
    `fresh` through unchanged."""
    if not 0.0 <= gamma_m <= 1.0:
        raise ValueError("momentum coefficient must lie in [0, 1]")
    if prev is None:
        return FimDiag([v.copy() for v in fresh.per_layer],
                       list(fresh.layer_shapes))
    if fresh.layer_shapes != prev.layer_shapes:
        raise ValueError("FIM shape mismatch in momentum update")
    mixed = [gamma_m * p + (1.0 - gamma_m) * f
             for p, f in zip(prev.per_layer, fresh.per_layer)]
    return FimDiag(mixed, list(prev.layer_shapes))


def average_fim(fims):
    """Elementwise mean of per-sample FIM diagonals (empirical device FIM)."""
    if len(fims) == 0:
        raise ValueError("no FIMs to average")
    out = [np.zeros_like(v) for v in fims[0].per_layer]
    for fd in fims:
        for acc, v in zip(out, fd.per_layer):
            acc += v
    return FimDiag([v / len(fims) for v in out], list(fims[0].layer_shapes))


def neuron_scores(fd, layer):
    """Importance of each output neuron: sum of its row's diagonal entries."""
    if not 0 <= layer < len(fd.per_layer):
        raise IndexError(f"layer {layer} out of range")
    d_out, d_in = fd.layer_shapes[layer]
    return fd.per_layer[layer].reshape(d_out, d_in).sum(axis=1)
