"""Every config `validate()` accepts runs, up to a non-finite value.

Random tiny configs in every mode go through `fedlora.run`. Each must end
one of three ways: `validate()` rejects it with a `ConfigError` whose
message starts with the key; the run completes; or the run raises
`ArithmeticError`, the documented runtime failure (exit 2 on the command
line) of a non-finite loss, gradient, layer score or Lipschitz estimate.
Nothing else may escape. A completed run must also have built what
`network` takes unchecked: layers whose shapes chain from the config's
dims, adapter rows of the adapter count, one mask entry per layer of its
layer's width, and server GAL parameters of their layers' shapes. It must
also have run only what its mode reads: per-device ranks exactly when the
GAL is on, and no mask unless the masks are on.

Only the sizes are capped, so that a run takes milliseconds: devices,
rounds, widths, samples per class, epochs, Hessian samples and Lipschitz
points. Every float key is drawn over its whole validated range, extremes
included. The stronger claim, that every validated config runs without an
`ArithmeticError`, is still open: it needs bounds derived for keys such as
`class_sep` and `p_norm`, whose extremes overflow the first passes.
"""

import sys
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedlora
from fedlora.config import MODES, ConfigError, ExperimentConfig
from fedlora.curriculum import PACES

KEYS = {f.name for f in fields(ExperimentConfig)}


def positive():
    return st.floats(0.0, exclude_min=True, allow_infinity=False)


def unit(exclude_min=True, exclude_max=False):
    return st.floats(0.0, 1.0, exclude_min=exclude_min,
                     exclude_max=exclude_max)


@st.composite
def tiny_configs(draw):
    """Keyword arguments of a tiny `ExperimentConfig`: the sizes capped, and
    every other key drawn over its validated range given the keys drawn
    before it. `devices` is 1 where no device count fits the dataset, which
    `validate()` rejects."""
    dim = draw(st.integers(1, 5))
    hidden_dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    num_classes = draw(st.integers(2, 5))
    batch_size = draw(st.integers(1, 8))
    per_class = draw(st.integers(1, 25))
    fits = num_classes * per_class // max(2 * batch_size, 4)
    devices = draw(st.integers(1, min(max(fits, 1), 6)))
    return dict(
        devices=devices,
        sampled_per_round=draw(st.integers(1, devices)),
        rounds=draw(st.integers(0, 2)),
        local_iterations=draw(st.integers(1, 2)),
        lr=draw(positive()),
        batch_size=batch_size,
        beta=draw(unit()),
        alpha=draw(unit()),
        pace=draw(st.sampled_from(PACES)),
        noise_budget=draw(positive()),
        p_norm=draw(st.floats(1.0, exclude_min=True, allow_infinity=False)),
        mu=draw(positive()),
        gamma_m=draw(unit(exclude_min=False)),
        warmup_epochs=draw(st.integers(0, 2)),
        momentum_epochs=draw(st.integers(1, 2)),
        hessian_samples=draw(st.integers(1, 4)),
        lipschitz_points=draw(st.integers(2, 8)),
        hidden_dims=hidden_dims,
        lora_rank=draw(st.integers(1, min([dim, num_classes] + hidden_dims))),
        num_classes=num_classes,
        per_class=per_class,
        dim=dim,
        class_sep=draw(positive()),
        dirichlet_alpha=draw(st.floats(
            0.0, sys.float_info.max / (2 * devices), exclude_min=True)),
        train_fraction=draw(unit(exclude_max=True)),
        seed=draw(st.integers(min_value=0)),
        mode=draw(st.sampled_from(MODES)))


def outcome(values):
    """How `fedlora.run` ends on `values`: ("rejected", None),
    ("ran", its return value) or ("raised", None)."""
    try:
        with np.errstate(all="ignore"):  # overflow is what the guards report
            result = fedlora.run(ExperimentConfig(**values))
    except ConfigError as exc:
        assert str(exc).split(":")[0] in KEYS, exc
        return "rejected", None
    except ArithmeticError:
        return "raised", None
    return "ran", result


def assert_built_shapes(values, server, devices):
    """The shapes `network` relies on without checking them."""
    dims = [values["dim"]] + values["hidden_dims"] + [values["num_classes"]]
    rank = values["lora_rank"]
    for dev in devices:
        layers = dev.net.layers
        assert [(l.d_in, l.d_out) for l in layers] == list(zip(dims, dims[1:]))
        assert [l.activation for l in layers] == \
            ["relu"] * (len(layers) - 1) + ["identity"]
        for l in layers:
            assert l.a.shape == (rank, l.d_in)
            assert l.b.shape == (l.d_out, rank)
            assert l.bias.shape == (l.d_out,)
        assert dev.adapters.shape == (dev.net.lora_param_count(),)
        assert len(dev.mask.per_layer) == len(layers)
        for l, m in zip(layers, dev.mask.per_layer):
            assert m is None or (m.dtype == bool and m.shape == (l.d_out,))
    assert set(server.gal_params) == server.gal.gal_layers
    for li, (a, b) in server.gal_params.items():
        layer = devices[0].net.layers[li]
        assert (a.shape, b.shape) == (layer.a.shape, layer.b.shape)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tiny_configs())
# one device: its adapter store is a single row
@example(dict(devices=1, sampled_per_round=1, rounds=2, local_iterations=1,
              lr=0.01, batch_size=4, beta=0.9, alpha=0.2, pace="linear",
              noise_budget=0.1, p_norm=2.0, mu=0.5, gamma_m=0.9,
              warmup_epochs=1, momentum_epochs=2, hessian_samples=2,
              lipschitz_points=8, hidden_dims=[5, 4], lora_rank=2,
              num_classes=4, per_class=10, dim=5, class_sep=3.0,
              dirichlet_alpha=1.0, train_fraction=0.8, seed=0,
              mode="fibecfed"))
def test_validated_configs_run_or_fail_on_a_non_finite_value(values):
    ended, result = outcome(values)  # any other exception escapes and fails
    if ended == "ran":
        _, _, server, devices = result
        assert_built_shapes(values, server, devices)
        cfg = ExperimentConfig(**values)
        assert (server.gal.per_device == {}) == (not cfg.gal_on)
        assert cfg.mask_on or all(m is None for dev in devices
                                  for m in dev.mask.per_layer)
