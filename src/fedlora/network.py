"""Small feed-forward classifier with frozen base weights and trainable
low-rank adapter pairs per layer.

`forward` and `backward` run one pass over a matrix with one sample per
row (a 1-D sample is the n = 1 case, with its 1-D shapes). Both are fully
analytic (softmax cross-entropy head), including the input gradient the
layer-sensitivity noise generation needs. `backward` sums the adapter
gradients over the rows, applies a neuron mask in closed form and returns
each sample's diagonal-Fisher row sums, so no caller needs per-sample
gradients.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import make_rng

ACTIVATIONS = ("relu", "identity")

A_INIT_STD = 0.02


@dataclass
class LoraLayer:
    w_base: np.ndarray  # (d_out, d_in), frozen
    a: np.ndarray       # (rank, d_in), trainable
    b: np.ndarray       # (d_out, rank), trainable
    bias: np.ndarray    # (d_out,), frozen
    activation: str

    def __post_init__(self):
        d_out, d_in = self.w_base.shape
        r = self.a.shape[0]
        assert self.a.shape == (r, d_in)
        assert self.b.shape == (d_out, r)
        assert self.bias.shape == (d_out,)
        assert r <= min(d_in, d_out), "adapter rank exceeds layer dimensions"
        assert self.activation in ACTIVATIONS

    @property
    def d_in(self):
        return self.w_base.shape[1]

    @property
    def d_out(self):
        return self.w_base.shape[0]

    @property
    def rank(self):
        return self.a.shape[0]


@dataclass
class LoraNetwork:
    layers: list
    num_classes: int

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            assert prev.d_out == nxt.d_in, "incompatible consecutive layer dims"
        assert self.layers[-1].d_out == self.num_classes
        assert self.layers[-1].activation == "identity"

    @property
    def input_dim(self):
        return self.layers[0].d_in

    def lora_param_count(self):
        return sum(l.a.size + l.b.size for l in self.layers)


@dataclass
class ForwardTrace:
    hidden: list          # post-activation output per layer
    logits: np.ndarray
    loss: np.ndarray | None = None  # per sample
    probs: np.ndarray | None = None


@dataclass
class Gradients:
    """Adapter gradients of the cross-entropy loss, summed over the samples.

    `fim_rows[l]` holds each sample's squared gradient w.r.t. layer l's
    effective weight W + B.A, summed over every output row: delta_i^2 ||x||^2
    for the pre-activation loss gradient delta and the layer input x.
    `fim_rows`, `d_input` and `loss` are per sample.
    """
    da: list
    db: list
    fim_rows: list
    d_input: np.ndarray
    loss: np.ndarray


def build_network(input_dim, hidden_dims, num_classes, rank=2, seed=0):
    """Fresh network: random frozen base, A ~ N(0, 0.02), B = 0."""
    rng = make_rng(seed, 0xA)
    dims = [input_dim] + list(hidden_dims) + [num_classes]
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        w = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))
        w.setflags(write=False)
        a = rng.normal(0.0, A_INIT_STD, size=(rank, d_in))
        b = np.zeros((d_out, rank))
        bias = np.zeros(d_out)
        bias.setflags(write=False)
        layers.append(LoraLayer(w, a, b, bias, "identity" if last else "relu"))
    return LoraNetwork(layers, num_classes)


def clone_network(net):
    layers = [
        LoraLayer(l.w_base, l.a.copy(), l.b.copy(), l.bias, l.activation)
        for l in net.layers
    ]
    return LoraNetwork(layers, net.num_classes)


def forward(net, x, labels=None, params=None):
    """Hidden states and logits of one sample or of a matrix with one sample
    per row; with `labels`, also the per-sample loss and softmax. `params`
    optionally maps a layer index to an (a, b) pair used in place of that
    layer's own adapter."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} does not end in ({net.input_dim},)")
    hidden = []
    h = x
    for li, layer in enumerate(net.layers):
        a, b = params.get(li, (layer.a, layer.b)) if params else (layer.a, layer.b)
        z = h @ layer.w_base.T + (h @ a.T) @ b.T + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        hidden.append(h)
    trace = ForwardTrace(hidden=hidden, logits=h)
    if labels is not None:
        m = np.max(h, axis=-1, keepdims=True)
        e = np.exp(h - m)
        s = e.sum(axis=-1, keepdims=True)
        picked = np.take_along_axis(h, np.asarray(labels)[..., None], axis=-1)
        trace.loss = (m + np.log(s) - picked)[..., 0]
        trace.probs = e / s
    return trace


def backward(net, x, labels, mask=None):
    """Analytic cross-entropy gradients w.r.t. every A, B and the input, for
    one sample or a matrix with one sample per row; dA and dB are summed over
    the rows. Frozen parameters get no gradient slots.

    `mask` (optional) holds one boolean vector over output neurons per layer,
    or None for a fully trainable layer. A masked-out neuron's entry of delta
    is zeroed before that layer's dA and dB are formed: its row of dB is zero
    and it has no path into dA. Earlier layers and the input see the
    unmasked delta.
    """
    x = np.asarray(x, dtype=np.float64)
    trace = forward(net, x, labels)
    inputs = [x] + trace.hidden[:-1]
    delta = trace.probs - (np.arange(net.num_classes) ==
                           np.asarray(labels)[..., None])

    n_layers = len(net.layers)
    g = Gradients(da=[None] * n_layers, db=[None] * n_layers,
                  fim_rows=[None] * n_layers, d_input=None, loss=trace.loss)
    for li in range(n_layers - 1, -1, -1):
        layer = net.layers[li]
        if layer.activation == "relu":
            delta = delta * (trace.hidden[li] > 0)
        g.fim_rows[li] = delta ** 2 * np.sum(inputs[li] ** 2, axis=-1,
                                             keepdims=True)
        kept = delta
        if mask is not None and mask[li] is not None:
            m = np.asarray(mask[li], dtype=bool)
            if m.shape != (layer.d_out,):
                raise ValueError(f"mask shape {m.shape} != ({layer.d_out},)")
            kept = np.where(m, delta, 0.0)
        kept, x_in = np.atleast_2d(kept, inputs[li])  # a 1-D sample is n = 1
        g.db[li] = kept.T @ (x_in @ layer.a.T)
        g.da[li] = (kept @ layer.b).T @ x_in
        delta = delta @ (layer.w_base + layer.b @ layer.a)
    g.d_input = delta
    return g


def apply_update(net, g, lr):
    """SGD step on the adapter pairs: A -= lr * dA, B -= lr * dB."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    for layer, da, db in zip(net.layers, g.da, g.db):
        layer.a -= lr * da
        layer.b -= lr * db


# --- flat adapter vector view (Hessian / Lipschitz machinery) ---

def lora_slices(net):
    """Per-layer (a_slice, b_slice) into the flattened adapter vector."""
    slices = []
    off = 0
    for layer in net.layers:
        sa = slice(off, off + layer.a.size)
        off += layer.a.size
        sb = slice(off, off + layer.b.size)
        off += layer.b.size
        slices.append((sa, sb))
    return slices


def _flat(pairs):
    return np.concatenate([np.concatenate([a.ravel(), b.ravel()])
                           for a, b in pairs])


def flatten_lora(net):
    return _flat((l.a, l.b) for l in net.layers)


def set_lora_flat(net, vec):
    vec = np.asarray(vec, dtype=np.float64)
    for layer, (sa, sb) in zip(net.layers, lora_slices(net)):
        layer.a = vec[sa].reshape(layer.a.shape).copy()
        layer.b = vec[sb].reshape(layer.b.shape).copy()


def dataset_loss_grad_flat(net, xs, ys):
    """Mean cross-entropy gradient over (xs, ys), flattened adapter layout."""
    g = backward(net, xs, ys)
    return _flat(zip(g.da, g.db)) / len(ys)
