"""Small feed-forward classifier with frozen base weights and trainable
low-rank adapter pairs per layer.

`forward` and `backward` take a matrix with one sample per row or a
(K, n, d) stack of them. Both are analytic, including the input gradient
the layer-sensitivity noise generation needs; `backward` has the only
softmax cross-entropy head. It sums the adapter gradients over the rows,
applies a neuron mask in closed form and returns each sample's
diagonal-Fisher row sums, so no caller needs per-sample gradients. It
reuses the rank-r projections x.A^T of the forward pass, and returns dA/dB
as one flat gradient vector in `flatten_lora` order, which the Hessian
probes use as is. A stack of K substitute adapters (`params`) broadcasts
over the shared frozen W, so K probe points cost one pass; a (K, n, d)
input pairs the k-th matrix of samples with the k-th adapter.

Every backward runs through one pass, `backprop`, over a `StepPlan` whose
optional stack axis is the pass's: `backward` validates its inputs, builds
the plan and calls it, while local training builds an unstacked plan once
per round and calls `backprop` directly on each batch, so a step does no
validation and no bookkeeping.
"""

import math
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


@dataclass
class Gradients:
    """Adapter gradients of the cross-entropy loss, summed over the samples.

    `grad` holds every dA and dB in `flatten_lora` order; `da[l]`, `db[l]`
    are views into it. `fim_rows[l]` holds each sample's squared gradient
    w.r.t. layer l's effective weight W + B.A, summed over every output row:
    delta_i^2 ||x||^2 for the pre-activation loss gradient delta and the
    layer input x.
    `fim_rows[l]` (n, d_out), `d_input` (n, d) and `loss` (n,) have one row
    per sample; `fim_rows` and `d_input` are None from a
    `backward(..., adapters_only=True)`. Under a stack of K substitute
    adapters or a (K, n, d) stacked input every field has a leading K axis.
    """
    grad: np.ndarray
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


def clone_network(net, store):
    """One network per row of `store`, a (D, P) stack of flat adapters: each
    shares `net`'s frozen base, and its a, b are reshaped views of its row."""
    views = lora_views(net, store).values()
    return [LoraNetwork([LoraLayer(l.w_base, a[i], b[i], l.bias, l.activation)
                         for l, (a, b) in zip(net.layers, views)],
                        net.num_classes)
            for i in range(len(store))]


def _matmul(a, b, out=None):
    """a @ b for `forward` and a stacked `StepPlan`. Two 2-D operands go
    through `ndarray.dot`, the BLAS call of an unstacked plan, at less than
    half the matmul ufunc's per-call overhead; they meet where a 2-D input
    or hidden state meets a frozen W or a 2-D adapter. Stacked operands
    broadcast through `np.matmul`."""
    if a.ndim == 2 and b.ndim == 2:
        return a.dot(b, out)
    return np.matmul(a, b, out=out)


def label_positions(labels, shape, num_classes):
    """Flat index of each label's logit in C-contiguous logits of shape
    `shape` + (C,), sample * C + label, for `labels` that broadcast to
    `shape`. A label outside [0, C) raises ValueError, so no label reads
    another sample's logits."""
    size = math.prod(shape)
    return np.ravel_multi_index((np.arange(size).reshape(shape), labels),
                                (size, num_classes))


def forward(net, x, params=None):
    """Hidden states and logits of a matrix with one sample per row, or of
    a (K, n, d) stack of such matrices. `params` optionally maps a layer
    index to an (a, b) pair used in place of that layer's own adapter: a
    2-D pair applies to every sample, a (K, r, d_in) / (K, d_out, r) stack
    gives the outputs a leading K axis, its k-th adapter meeting the k-th
    matrix of a stacked input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} is not (n, {net.input_dim}) "
                         f"or (K, n, {net.input_dim})")
    hidden = []
    h = x
    for li, layer in enumerate(net.layers):
        a, b = params.get(li, (layer.a, layer.b)) if params else (layer.a, layer.b)
        proj = _matmul(h, a.mT)
        z = _matmul(h, layer.w_base.mT) + _matmul(proj, b.mT) + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        hidden.append(h)
    return ForwardTrace(hidden=hidden, logits=h)


def check_mask(net, mask):
    """`mask` as a list with one boolean vector over output neurons, or
    None, per layer of `net`; None stands for a fully trainable network.
    Raises ValueError on a list whose length is not the layer count or on a
    vector whose length is not its layer's width."""
    if mask is None:
        return [None] * len(net.layers)
    mask = list(mask)
    if len(mask) != len(net.layers):
        raise ValueError(f"mask has {len(mask)} entries for "
                         f"{len(net.layers)} layers")
    masks = []
    for layer, m in zip(net.layers, mask):
        if m is not None:
            m = np.asarray(m, dtype=bool)
            if m.shape != (layer.d_out,):
                raise ValueError(f"mask shape {m.shape} != ({layer.d_out},)")
        masks.append(m)
    return masks


class StepPlan:
    """What every pass of `backprop` over one set of adapters reads, fixed
    once for as long as those adapters live: per layer the frozen W, W^T
    and bias, whether it is a ReLU layer, the adapter pair a, b and their
    transposes, the validated mask (`check_mask`), and views da, db into
    `grad`, the flat gradient in `flatten_lora` order that each pass
    overwrites. `params` is one (a, b) pair per layer; passes see any
    in-place change to them.

    `lead` is the stack shape of the pass, () for a sample matrix under 2-D
    adapters. `grad` carries it as leading axes, and `mm`, the product of
    the pass, is `ndarray.dot` for an unstacked plan and the broadcasting
    `_matmul` for a stacked one."""

    __slots__ = ("layers", "grad", "mm")

    def __init__(self, net, params, mask=None, lead=()):
        masks = check_mask(net, mask)
        self.mm = _matmul if lead else np.ndarray.dot
        self.grad = np.empty(lead + (net.lora_param_count(),))
        grads = lora_views(net, self.grad).values()
        self.layers = [
            (l.w_base, l.w_base.T, l.bias, l.activation == "relu",
             a, a.mT, b, b.mT, keep, da, db)
            for l, (a, b), keep, (da, db)
            in zip(net.layers, params, masks, grads, strict=True)]


_max = np.maximum.reduce
_sum = np.add.reduce


def backprop(plan, x, picks, fim_rows=None):
    """`backward` of a float64 sample matrix or stack of them, for operands
    the caller has validated: `picks` holds each sample's flat index of its
    label's logit (`label_positions`). Writes the summed dA/dB into
    `plan.grad` and returns (per-sample loss, None). With a list
    `fim_rows`, also appends each layer's Fisher row sums, from the last
    layer down, and returns the input gradient in place of None.

    Every product is one `plan.mm`, and the pass builds nothing that `plan`
    fixes, so a training step pays only for its arithmetic. A layer's
    pre-activation is summed in place, z = proj.B^T, z += h.W^T, z += bias:
    proj.B^T already carries every stack axis (h's and A's through
    proj = h.A^T, and B's), so this holds for a 2-D input under stacked
    adapters too, and as IEEE addition commutes z has the bits of
    (h.W^T + proj.B^T) + bias."""
    mm = plan.mm
    inputs = [x]
    projections = []
    h = x
    for _, w_t, bias, relu, _, a_t, _, b_t, _, _, _ in plan.layers:
        proj = mm(h, a_t)
        z = mm(proj, b_t)
        z += mm(h, w_t)
        z += bias
        if relu:
            np.maximum(z, 0.0, out=z)
        projections.append(proj)
        inputs.append(z)
        h = z
    m = _max(h, axis=-1, keepdims=True)
    e = np.exp(h - m)
    s = _sum(e, axis=-1, keepdims=True)
    loss = (m + np.log(s))[..., 0] - h.ravel()[picks]
    delta = e / s
    delta.ravel()[picks] -= 1.0  # a fresh contiguous array: ravel is a view

    for li in range(len(plan.layers) - 1, -1, -1):
        w, _, _, relu, a, _, b, _, keep, da, db = plan.layers[li]
        if relu:  # h = max(z, 0) >= 0, so 1[h > 0] = sign(h); a NaN in h
            delta *= np.sign(inputs[li + 1])  # already made its row's loss NaN
        if fim_rows is not None:
            fim_rows.append(delta ** 2 * _sum(inputs[li] ** 2, axis=-1,
                                              keepdims=True))
        delta_b = mm(delta, b)
        if keep is None:
            kept, kept_b = delta, delta_b
        else:
            kept = np.where(keep, delta, 0.0)
            kept_b = mm(kept, b)
        mm(kept.mT, projections[li], db)
        mm(kept_b.mT, inputs[li], da)
        if li or fim_rows is not None:
            delta = mm(delta, w)
            delta += mm(delta_b, a)
    return loss, None if fim_rows is None else delta


def backward(net, x, labels, mask=None, params=None, adapters_only=False):
    """Analytic cross-entropy gradients w.r.t. every A, B and the input, for
    a matrix with one sample per row or a (K, n, d) stack of such matrices,
    with integer labels of shape x.shape[:-1]; dA and dB are summed over
    the rows. Frozen parameters get no gradient slots. dB reuses the rank-r
    projection x.A^T of each layer's input that the forward pass computed.

    `mask` (optional) holds one boolean vector over output neurons per layer,
    or None for a fully trainable layer. A masked-out neuron's entry of delta
    is zeroed before that layer's dA and dB are formed: its row of dB is zero
    and it has no path into dA. Earlier layers and the input see the
    unmasked delta.

    `params` substitutes adapters as in `forward`; delta propagates as
    delta.W + (delta.B).A, which never forms a (K, d_out, d_in) weight.

    `adapters_only` leaves `fim_rows` and `d_input` None: only the Fisher
    scoring and the input-noise generation read them, so the warmup steps
    and the stacked probes skip their cost. `da`, `db` and `loss` are the
    same either way.

    The stack shape of the pass is the input's leading axes broadcast with
    the adapters'; `backward` builds a `StepPlan` of that shape and runs
    `backprop`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} is not (n, {net.input_dim}) "
                         f"or (K, n, {net.input_dim})")
    labels = np.asarray(labels)
    if labels.shape != x.shape[:-1]:
        raise ValueError(f"label shape {labels.shape} != {x.shape[:-1]}")
    pairs = [params.get(li, (l.a, l.b)) if params else (l.a, l.b)
             for li, l in enumerate(net.layers)]
    lead = np.broadcast_shapes(x.shape[:-2], *{m.shape[:-2] for pair in pairs
                                               for m in pair})
    plan = StepPlan(net, pairs, mask, lead)
    picks = label_positions(labels, lead + x.shape[-2:-1], net.num_classes)
    fim_rows = None if adapters_only else []
    loss, d_input = backprop(plan, x, picks, fim_rows)
    return Gradients(grad=plan.grad,
                     da=[da for *_, da, _ in plan.layers],
                     db=[db for *_, db in plan.layers],
                     fim_rows=None if adapters_only else fim_rows[::-1],
                     d_input=d_input, loss=loss)


def apply_update(net, g, lr):
    """SGD step on the adapter pairs: A -= lr * dA, B -= lr * dB, layer by
    layer. The engine takes the same step on one flat adapter vector; this
    is the per-layer reference it is tested against."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    for layer, da, db in zip(net.layers, g.da, g.db):
        layer.a -= lr * da
        layer.b -= lr * db


# --- flat adapter vector view (training step, Hessian / Lipschitz) ---

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


def flatten_lora(net):
    return np.concatenate([m.ravel() for l in net.layers for m in (l.a, l.b)])


def lora_views(net, vecs):
    """Per-layer (a, b) views into flat adapter vectors, keyed by layer index
    like the `params` of `forward`/`backward`; a leading stack axis of
    `vecs` is kept."""
    size = vecs.shape[-1] if vecs.ndim else 1
    if size != net.lora_param_count():
        raise ValueError(f"flat adapter vector of {size} entries for "
                         f"{net.lora_param_count()} adapter parameters")
    lead = vecs.shape[:-1]
    views = {}
    end = 0
    for li, layer in enumerate(net.layers):
        start, mid = end, end + layer.a.size
        end = mid + layer.b.size
        views[li] = (vecs[..., start:mid].reshape(lead + layer.a.shape),
                     vecs[..., mid:end].reshape(lead + layer.b.shape))
    return views


def set_lora_flat(net, vec):
    views = lora_views(net, np.asarray(vec, dtype=np.float64))
    for layer, (a, b) in zip(net.layers, views.values()):
        layer.a, layer.b = a.copy(), b.copy()


def dataset_loss_grad_flat(net, xs, ys, vecs):
    """Mean cross-entropy gradient over (xs, ys) at every row of `vecs`, a
    (K, P) stack of flat adapter vectors, in one backward over the stack."""
    params = lora_views(net, np.asarray(vecs, dtype=np.float64))
    g = backward(net, xs, ys, params=params, adapters_only=True)
    return g.grad / len(ys)
