"""Per-layer local-update ratios via the layer-block eigengap rule and
top-rho neuron mask construction for layers outside the GAL."""

from dataclasses import dataclass

import numpy as np


@dataclass
class NeuronMask:
    """One boolean vector over output neurons per layer; None marks a GAL
    layer (fully trainable, no mask)."""
    per_layer: list

    def popcounts(self):
        return [None if m is None else int(np.count_nonzero(m))
                for m in self.per_layer]


def layer_ratio(r, cap_r):
    """Local update ratio rho = 1 - r/R for one layer's Hessian block, in
    [0, 1) for the 1 <= r <= R of `engine._spectrum_rank`; r = 0 reads as
    the minimum rank 1. The degenerate no-gap spectrum (r = R) yields 0 and
    is clamped later by mask construction."""
    return 1.0 - max(r, 1) / cap_r


def build_mask(scores, rho):
    """Keep the top round(rho * d_out) neurons by importance score, at least
    one; ties prefer the lower neuron index."""
    scores = np.asarray(scores, dtype=np.float64)
    keep = max(1, int(round(rho * scores.size)))
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    mask = np.zeros(scores.size, dtype=bool)
    mask[order[:keep]] = True
    return mask


def masked_param_count(net, gal_layers, mask):
    """(trainable, frozen) adapter parameter counts.

    GAL layers contribute all their A and B entries; a non-GAL layer
    contributes one row of B per masked-in neuron. The shared A of a
    non-GAL layer is counted in the frozen bucket for accounting purposes
    even though masked gradient paths touch it.
    """
    total = net.lora_param_count()
    trainable = 0
    for li, layer in enumerate(net.layers):
        if li in gal_layers:
            trainable += layer.a.size + layer.b.size
        else:
            m = mask.per_layer[li]
            if m is not None:
                trainable += int(np.count_nonzero(m)) * layer.rank
    return trainable, total - trainable
