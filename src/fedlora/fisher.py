"""Diagonal Fisher information: per-sample difficulty scores, momentum
smoothing, and neuron-wise importance aggregation.

A FIM is a list with one array per layer whose last axis runs over one
output neuron's diagonal entries. The diagonal is taken over each layer's
effective weight W + B.A, so the full diagonal is (d_out, d_in). One
sample's gradient there is delta x^T (pre-activation loss gradient times
layer input), so the diagonal has row sums delta_i^2 ||x||^2
(`network.Gradients.fim_rows`) and trace ||delta||^2 ||x||^2. The engine
keeps those row sums only, as (D, d_out, 1) stacks over its D devices; the
full diagonal of `sample_fim_diag` is the reference they are tested against.
"""

import numpy as np

from .network import LoraNetwork, backward, forward


def sample_fim_diag(net, s, label):
    """One sample's squared full-weight loss gradient: (d_out, d_in) per layer.

    Each layer's delta is taken from the input gradient of the network above
    that layer (or from its own softmax of the logits at the top), not from
    the closed forms, so that this can serve as their reference.
    """
    s = np.asarray(s, dtype=np.float64)
    hidden = [h[0] for h in forward(net, s[None]).hidden]
    inputs = [s] + hidden[:-1]
    fim = []
    for li, layer in enumerate(net.layers):
        if li == len(net.layers) - 1:
            e = np.exp(hidden[li] - hidden[li].max())
            delta = e / e.sum() - np.eye(net.num_classes)[label]
        else:
            above = LoraNetwork(net.layers[li + 1:], net.num_classes)
            delta = backward(above, hidden[li][None], [label]).d_input[0]
        if layer.activation == "relu":
            delta = delta * (hidden[li] > 0)
        fim.append(np.outer(delta, inputs[li]) ** 2)
    return fim


def momentum_update(prev, fresh, gamma_m):
    """Exponential moving average of FIMs, layer by layer; the first epoch
    (`prev` None) passes a copy of `fresh` through."""
    if prev is None:
        return [v.copy() for v in fresh]
    return [gamma_m * p + (1.0 - gamma_m) * f for p, f in zip(prev, fresh)]


def average_fim(fims):
    """Elementwise mean of per-sample FIMs (empirical device FIM)."""
    if len(fims) == 0:
        raise ValueError("no FIMs to average")
    return [sum(layer) / len(fims) for layer in zip(*fims)]


def neuron_scores(fim, layer):
    """Importance of each output neuron: sum of its row's diagonal entries."""
    return fim[layer].sum(axis=-1)
