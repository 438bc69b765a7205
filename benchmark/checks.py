"""Output checks of one experiment.

Every expected value is computed here, apart from the program, or is a
property the method must have; none is a stored copy of earlier output.
Each check returns a list of failure messages, empty when it passes.
"""

import csv
import io

import numpy as np


def _relu(z):
    return np.maximum(z, 0.0)


def weighted_accuracy(devices, gal_params):
    """Personalized weighted test accuracy by a vectorised forward pass over
    each device's test set: W_eff = W + B.A, ReLU between layers, with the
    server's parameters in the GAL layers."""
    hits = 0
    total = 0
    for dev in devices:
        h = np.asarray(dev.test.features, dtype=np.float64)
        layers = dev.net.layers
        for li, layer in enumerate(layers):
            a, b = gal_params.get(li, (layer.a, layer.b))
            z = h @ (layer.w_base + b @ a).T + layer.bias
            h = z if li == len(layers) - 1 else _relu(z)
        hits += int(np.sum(np.argmax(h, axis=1) == dev.test.labels))
        total += len(dev.test.labels)
    return hits / total


def layer_dims(cfg):
    dims = [cfg.dim] + list(cfg.hidden_dims) + [cfg.num_classes]
    return list(zip(dims, dims[1:]))  # (d_in, d_out) per layer


def check_accuracy(cfg, reports, server, devices, rows):
    fails = []
    mine = weighted_accuracy(devices, server.gal_params)
    reported = reports[-1].weighted_test_acc
    if abs(mine - reported) > 1e-12:
        fails.append(f"final accuracy {reported!r} != recomputed {mine!r}")
    if abs(float(rows[-1]["weighted_test_acc"]) - mine) > 1e-8:
        fails.append("metrics.csv final accuracy != recomputed accuracy")
    if not reported > 1.0 / cfg.num_classes:
        fails.append(f"final accuracy {reported} not above chance")
    if not reports[-1].train_loss < reports[0].train_loss:
        fails.append("last round's train loss is not below the first's")
    return fails


def check_bytes(cfg, summary, reports, rows):
    """bytes_down = bytes_up = 8 * sampled * sum over GAL layers of
    (rank * d_in + d_out * rank)."""
    dims = layer_dims(cfg)
    payload = sum(cfg.lora_rank * (dims[li][0] + dims[li][1])
                  for li in summary["gal_layers"])
    fails = []
    for rep, row in zip(reports, rows):
        want = 8 * len(rep.sampled) * payload
        got = (rep.bytes_down, rep.bytes_up,
               int(row["bytes_down"]), int(row["bytes_up"]))
        if any(g != want for g in got):
            fails.append(f"round {rep.round}: bytes {got} != {want}")
    return fails


def check_base_frozen(devices, fresh):
    """Every device's base weights and biases equal a fresh network's."""
    fails = []
    for dev in devices:
        for li, (mine, ref) in enumerate(zip(dev.net.layers, fresh.layers)):
            if not (np.array_equal(mine.w_base, ref.w_base) and
                    np.array_equal(mine.bias, ref.bias)):
                fails.append(f"device {dev.k} layer {li}: base weights moved")
    return fails


def check_masked_rows(frozen_rows, devices):
    """Masked-out B rows are bitwise what they were when init returned."""
    fails = []
    for (k, li), rows in frozen_rows.items():
        now = devices[k].net.layers[li].b[~devices[k].mask.per_layer[li]]
        if now.tobytes() != rows.tobytes():
            fails.append(f"device {k} layer {li}: masked-out B rows changed")
    return fails


def check_sparse(cfg, summary, devices):
    """The workload's premise: a strict-subset GAL and partial masks."""
    fails = []
    if not 0 < len(summary["gal_layers"]) < len(layer_dims(cfg)):
        fails.append(f"GAL {summary['gal_layers']} is not a strict subset")
    partial = sum(1 for dev in devices for keep in dev.mask.per_layer
                  if keep is not None and 0 < np.count_nonzero(keep) < keep.size)
    if partial == 0:
        fails.append("no device has a partial mask")
    return fails


def check_experiment(cfg, workload, result, frozen_rows, csv_text, fresh):
    """All per-experiment checks; `fresh` is a newly built network."""
    reports, summary, server, devices = result
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    fails = []
    if len(rows) != cfg.rounds or len(reports) != cfg.rounds:
        return [f"{len(rows)} csv rows, {len(reports)} reports, "
                f"{cfg.rounds} rounds"]
    fails += check_accuracy(cfg, reports, server, devices, rows)
    fails += check_bytes(cfg, summary, reports, rows)
    fails += check_base_frozen(devices, fresh)
    fails += check_masked_rows(frozen_rows, devices)
    if workload.sparse:
        fails += check_sparse(cfg, summary, devices)
    return fails
