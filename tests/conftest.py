"""Shared helpers: small random networks, flat-parameter loss probes, and
the session's cache of full runs."""

import numpy as np
import pytest

from fedlora.linalg import make_rng
from fedlora.network import (LoraLayer, LoraNetwork, build_network,
                             clone_network, flatten_lora, forward,
                             set_lora_flat)
from golden import run_text
from oracles import cross_entropy


def random_small_net(rng, max_params=200):
    """Random adapter-equipped net with a nonzero B, plus one sample as a
    1-row matrix and its label as a (1,) array."""
    while True:
        dim = int(rng.integers(2, 8))
        h1 = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 6))
        rank = int(rng.integers(1, 1 + min(2, dim, h1, classes)))
        net = build_network(dim, [h1], classes, rank=rank,
                            seed=int(rng.integers(0, 2 ** 31)))
        if net.lora_param_count() <= max_params:
            break
    # move B off its zero init so gradients reach every parameter
    for layer in net.layers:
        layer.b = rng.normal(0.0, 0.3, size=layer.b.shape)
        layer.a = rng.normal(0.0, 0.3, size=layer.a.shape)
    x = rng.normal(size=(1, dim))
    label = np.array([rng.integers(0, classes)])
    return net, x, label


def copy_network(net):
    """A network sharing `net`'s frozen base whose adapters are a copy of
    `net`'s: the one clone of a one-row adapter store."""
    return clone_network(net, flatten_lora(net)[None])[0]


def flat_loss_fn(net, x, label):
    """Summed loss over the rows of `x` as a function of the flattened
    adapter vector."""
    probe = copy_network(net)

    def f(vec):
        set_lora_flat(probe, vec)
        return cross_entropy(forward(probe, x).logits, label).sum()

    return f


def single_identity_layer_net(d):
    """One identity-activated layer with W = I and a zeroed adapter."""
    w = np.eye(d)
    w.setflags(write=False)
    bias = np.zeros(d)
    bias.setflags(write=False)
    layer = LoraLayer(w, np.zeros((1, d)), np.zeros((d, 1)), bias, "identity")
    return LoraNetwork([layer], num_classes=d)


@pytest.fixture
def rng():
    return make_rng(0xBEEF)


@pytest.fixture(scope="session")
def run_config():
    """`golden.run_text` with one run per config text for the session:
    criterion 7 and the golden record share their desk runs."""
    runs = {}

    def run(text):
        if text not in runs:
            runs[text] = run_text(text)
        return runs[text]

    return run
