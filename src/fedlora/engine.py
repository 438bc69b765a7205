"""Federation orchestration: init phase (scoring, layer selection, masks),
tuning rounds (device sampling, partial sync, curriculum-selected masked
local updates, weighted aggregation over the GAL), and communication
accounting.

Everything is deterministic given the experiment seed: devices are always
iterated in ascending id order and every stochastic choice draws from its
own seeded sub-stream.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import curriculum, fisher, gal as gal_mod
from .data import PartitionConfig, dirichlet_partition, generate, split
from .linalg import eigh_symmetric, finite_diff_hessian, make_rng
from .masking import NeuronMask, build_mask, layer_ratio, masked_param_count
from .network import (apply_update, backward, build_network, clone_network,
                      dataset_loss_grad_flat, flatten_lora, forward,
                      lora_slices, set_lora_flat)

RANK_EPS = 1e-8  # relative eigenvalue cutoff for the numerical Hessian rank


@dataclass
class DeviceState:
    k: int
    net: object
    train: object
    test: object
    batches: list = field(default_factory=list)      # index arrays into train
    batch_order: list = field(default_factory=list)  # ascending difficulty
    mask: NeuronMask = None
    momentum_fim: object = None
    eigengap: tuple = None       # (r_k, R_k)
    layer_blocks: list = None    # per-layer (r, R) for the mask ratios
    local_snapshot: list = None  # (a, b) copies of non-GAL layers after init

    @property
    def n_k(self):
        return len(self.train)


@dataclass
class ServerState:
    gal: gal_mod.GalDecision
    gal_params: dict             # layer index -> (a, b)


@dataclass
class RoundReport:
    round: int
    sampled: list
    train_loss: float
    weighted_test_acc: float
    server_view_acc: float
    bytes_down: int
    bytes_up: int
    wall_ms: float


def make_batches(n, batch_size):
    """Consecutive index chunks; a short tail batch counts as one unit."""
    return [np.arange(lo, min(lo + batch_size, n))
            for lo in range(0, n, batch_size)]


def build_devices(cfg):
    """Dataset generation, Dirichlet sharding, and identically-initialized
    per-device networks: clones of one base network that share its frozen
    weights and copy its adapters."""
    ds = generate(cfg.num_classes, cfg.per_class, cfg.dim, cfg.class_sep,
                  make_rng(cfg.seed, 0xDA))
    shards = dirichlet_partition(ds, PartitionConfig(
        concentration=cfg.dirichlet_alpha, num_devices=cfg.devices,
        train_fraction=cfg.train_fraction, min_shard=cfg.min_shard,
        seed=cfg.seed))
    base = build_network(cfg.dim, cfg.hidden_dims, cfg.num_classes,
                         rank=cfg.lora_rank, seed=cfg.seed)
    devices = []
    for k, shard in enumerate(shards):
        train, test = split(shard, cfg.train_fraction, make_rng(cfg.seed, 0x57, k))
        dev = DeviceState(k=k, net=clone_network(base), train=train, test=test)
        dev.batches = make_batches(len(train), cfg.batch_size)
        dev.batch_order = list(range(len(dev.batches)))
        devices.append(dev)
    return devices


def _backward(dev, idx, phase, mask=None):
    """`backward` over the device's training rows `idx`; a non-finite loss or
    gradient raises ArithmeticError naming the device and the phase."""
    g = backward(dev.net, dev.train.features[idx], dev.train.labels[idx],
                 mask=mask)
    if not all(np.isfinite(v).all() for v in [g.loss, *g.da, *g.db]):
        raise ArithmeticError(
            f"non-finite loss or gradient on device {dev.k}, {phase}")
    return g


def _train_epoch(dev, cfg, batch_ids, phase, mask=None):
    """One pass of per-batch summed-gradient SGD; returns the mean loss."""
    losses = []
    for j in batch_ids:
        g = _backward(dev, dev.batches[j], phase, mask=mask)
        apply_update(dev.net, g, cfg.lr)
        losses.append(g.loss)
    return float(np.mean(np.concatenate(losses)))


def _device_loss_grad(net_proto, xs, ys):
    """Mean local-loss gradient as a function of the flat adapter vector."""
    probe = clone_network(net_proto)

    def grad(v):
        set_lora_flat(probe, v)
        return dataset_loss_grad_flat(probe, xs, ys)

    return grad


def _spectrum_rank(hessian, lipschitz):
    """(r, R) from the eigengap rule over the nonzero part of the spectrum."""
    evals, _ = eigh_symmetric(hessian)
    cutoff = RANK_EPS * max(np.max(np.abs(evals)), 1e-300)
    nonzero = evals[np.abs(evals) > cutoff]
    if nonzero.size == 0:
        return 1, 1
    r = gal_mod.eigengap_rank(nonzero, lipschitz)
    return r, nonzero.size


def device_init_analysis(dev, cfg, fim_rows):
    """Warmup training plus the Hessian/Lipschitz eigengap analysis.

    Runs the momentum-FIM window and warmup epochs, then computes the
    whole-model finite-difference Hessian at the post-warmup point and the
    Lipschitz constant of the lossless-rule base function around the warmup
    displacement. Layer-block ranks reuse the Hessian's diagonal blocks.
    `fim_rows` are the Fisher row sums at the initial point, which serve as
    the momentum window's first epoch.
    """
    p0 = flatten_lora(dev.net)

    fim = None
    for epoch in range(max(cfg.warmup_epochs, cfg.momentum_epochs)):
        phase = f"warmup epoch {epoch}"
        if epoch < cfg.momentum_epochs:
            if epoch > 0:
                fim_rows = _backward(dev, np.arange(dev.n_k), phase).fim_rows
            fim = fisher.momentum_update(fim, fisher.mean_row_fim(fim_rows),
                                         cfg.gamma_m)
        if epoch < cfg.warmup_epochs:
            _train_epoch(dev, cfg, range(len(dev.batches)), phase)
    dev.momentum_fim = fim

    p_t = flatten_lora(dev.net)
    sub = min(cfg.hessian_samples, dev.n_k)
    grad_fn = _device_loss_grad(dev.net, dev.train.features[:sub],
                                dev.train.labels[:sub])
    hessian = finite_diff_hessian(grad_fn, p_t)

    delta = p0 - p_t
    radius = float(np.linalg.norm(delta))
    if radius == 0.0:
        # no warmup displacement: no confident gap, fall back to r = R
        lip = math.inf
    else:
        def base_fn(x):
            return hessian @ x - grad_fn(x + p_t)

        lip = gal_mod.lipschitz_estimate(base_fn, delta, radius,
                                         cfg.lipschitz_points,
                                         make_rng(cfg.seed, 0x11, dev.k))
    dev.eigengap = _spectrum_rank(hessian, lip)

    blocks = []
    for sa, sb in lora_slices(dev.net):
        sel = np.concatenate([np.arange(sa.start, sa.stop),
                              np.arange(sb.start, sb.stop)])
        blocks.append(_spectrum_rank(hessian[np.ix_(sel, sel)], lip))
    dev.layer_blocks = blocks


def init_phase(devices, cfg):
    """Algorithm init: batch difficulty scoring, warmup + momentum FIM,
    GAL selection from aggregated sensitivity scores, neuron masks, and the
    initial server-side GAL parameters."""
    for dev in devices:
        if dev.n_k == 0:
            raise ValueError(f"device {dev.k} has no local data")

    num_layers = len(devices[0].net.layers)
    need_analysis = cfg.gal_on or cfg.mask_on
    noise_cfg = gal_mod.NoiseConfig(cfg.noise_budget, cfg.p_norm)
    layer_scores = []
    for dev in devices if cfg.curriculum_on or need_analysis else []:
        # Fisher row sums at the initial point: batch difficulty (the sum of
        # each sample's FIM trace) and the first epoch of the momentum FIM
        fim_rows = _backward(dev, np.arange(dev.n_k), "warmup epoch 0").fim_rows
        if cfg.curriculum_on:
            difficulty = sum(rows.sum(axis=1) for rows in fim_rows)
            dev.batch_order = curriculum.sort_batches(
                [fisher.BatchScore(j, fisher.batch_score(difficulty[idx]))
                 for j, idx in enumerate(dev.batches)])
        if need_analysis:
            layer_scores.append((dev.n_k, gal_mod.device_layer_scores(
                dev.net, dev.train.features, dev.train.labels, noise_cfg)))
            device_init_analysis(dev, cfg, fim_rows)

    if cfg.gal_on:
        global_scores = gal_mod.aggregate_layer_scores(layer_scores)
        n_star = gal_mod.gal_count(
            [(dev.n_k,) + dev.eigengap for dev in devices], num_layers, cfg.mu)
        gal_layers = gal_mod.select_gal(global_scores, n_star)
    else:
        global_scores = np.zeros(num_layers)
        gal_layers = set(range(num_layers))
        n_star = num_layers

    decision = gal_mod.GalDecision(
        gal_layers=gal_layers, n_star=n_star, mu=cfg.mu,
        per_device={dev.k: ((1.0 - dev.eigengap[0] / dev.eigengap[1]) * num_layers,)
                    + dev.eigengap for dev in devices} if need_analysis else {},
        global_scores=list(map(float, global_scores)))

    for dev in devices:
        per_layer = [None] * num_layers
        if cfg.mask_on:
            for li in range(num_layers):
                if li in gal_layers:
                    continue
                r_l, cap_r_l = dev.layer_blocks[li]
                rho = layer_ratio(r_l, cap_r_l)
                per_layer[li] = build_mask(
                    fisher.neuron_scores(dev.momentum_fim, li), rho)
        dev.mask = NeuronMask(per_layer)
        dev.local_snapshot = [
            None if li in gal_layers else (l.a.copy(), l.b.copy())
            for li, l in enumerate(dev.net.layers)]

    # the initial GAL parameters: the weighted mean over every device
    server = ServerState(gal=decision, gal_params={
        li: (l.a, l.b) for li, l in enumerate(devices[0].net.layers)
        if li in gal_layers})
    fedavg_gal(server, [(dev.n_k, {li: (l.a, l.b) for li, l
                                   in enumerate(dev.net.layers)})
                        for dev in devices])
    return server, devices


def sample_devices(num_devices, count, rng):
    """Uniform sample without replacement, returned in ascending id order."""
    if not 1 <= count <= num_devices:
        raise ValueError("sampled count out of range")
    return sorted(rng.choice(num_devices, size=count, replace=False).tolist())


def local_round(dev, gal_params, t, cfg):
    """Sync the GAL layers from the server, train on the curriculum-selected
    batches, and return this device's updated GAL parameters."""
    for li, (a, b) in gal_params.items():
        dev.net.layers[li].a = a.copy()
        dev.net.layers[li].b = b.copy()

    if cfg.curriculum_on:
        pacing = curriculum.PacingConfig(cfg.beta, cfg.alpha, cfg.pace,
                                         cfg.batch_size, cfg.rounds)
        count = curriculum.pace_count(pacing, t, dev.n_k)
        selected = curriculum.select_batches(dev.batch_order, count)
    else:
        selected = list(range(len(dev.batches)))

    mask = dev.mask.per_layer if dev.mask is not None else None
    losses = [_train_epoch(dev, cfg, selected, f"round {t}", mask=mask)
              for _ in range(cfg.local_iterations)]

    update = {li: (dev.net.layers[li].a.copy(), dev.net.layers[li].b.copy())
              for li in gal_params}
    return update, float(np.mean(losses))


def fedavg_gal(server, updates):
    """Weighted mean of participating devices' GAL parameters in place.

    `updates` is a list of (n_k, {layer: (a, b)}), iterated in the given
    (ascending device id) order; weights renormalize over participants.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    m = sum(n_k for n_k, _ in updates)
    if m <= 0:
        raise ValueError("zero total aggregation weight")
    fresh = {}
    for li, (a0, b0) in server.gal_params.items():
        a = np.zeros_like(a0)
        b = np.zeros_like(b0)
        for n_k, params in updates:
            if li not in params or params[li][0].shape != a.shape:
                raise ValueError("update shape mismatch")
            w = n_k / m
            a += w * params[li][0]
            b += w * params[li][1]
        fresh[li] = (a, b)
    server.gal_params = fresh


def gal_payload_params(net, gal_layers):
    return sum(net.layers[li].a.size + net.layers[li].b.size
               for li in gal_layers)


def comm_bytes(payload_params, sampled):
    """Per-round traffic in bytes, symmetric by construction: every sampled
    device moves the GAL adapter payload once down and once up."""
    per_direction = sampled * payload_params * 8
    return per_direction, per_direction


def _hits(net, test, params):
    logits = forward(net, test.features, params=params).logits
    return int(np.count_nonzero(np.argmax(logits, axis=1) == test.labels))


def evaluate(server, devices):
    """(personalized weighted accuracy, server-view weighted accuracy).

    The personalized view runs each device's network with the server's GAL
    parameters; the server view also restores the non-GAL layers to their
    post-init snapshot."""
    total = sum(len(dev.test) for dev in devices)
    acc = 0
    view = 0
    for dev in devices:
        acc += _hits(dev.net, dev.test, server.gal_params)
        snapshot = {li: snap for li, snap in enumerate(dev.local_snapshot)
                    if snap is not None}
        view += _hits(dev.net, dev.test, server.gal_params | snapshot)
    return acc / total, view / total


def run(cfg):
    """Full experiment: init phase then `rounds` tuning rounds.

    Returns (reports, summary) where summary captures the layer selection,
    mask ratios, and parameter accounting for the run-summary file.
    """
    devices = build_devices(cfg)
    server, devices = init_phase(devices, cfg)
    payload = gal_payload_params(devices[0].net, server.gal.gal_layers)

    reports = []
    for t in range(cfg.rounds):
        started = time.perf_counter()
        sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                 make_rng(cfg.seed, 0x5E, t))
        updates = []
        losses = []
        for k in sampled:
            update, loss = local_round(devices[k], server.gal_params, t, cfg)
            updates.append((devices[k].n_k, update))
            losses.append(loss)
        fedavg_gal(server, updates)
        down, up = comm_bytes(payload, len(sampled))
        acc, view = evaluate(server, devices)
        reports.append(RoundReport(
            round=t, sampled=sampled, train_loss=float(np.mean(losses)),
            weighted_test_acc=acc, server_view_acc=view,
            bytes_down=down, bytes_up=up,
            wall_ms=1000.0 * (time.perf_counter() - started)))

    trainable, frozen = masked_param_count(
        devices[0].net, server.gal.gal_layers, devices[0].mask)
    summary = {
        "mode": cfg.mode,
        "gal_layers": sorted(server.gal.gal_layers),
        "n_star": server.gal.n_star,
        "per_device_ranks": {k: (r, cap) for k, (_, r, cap)
                             in server.gal.per_device.items()},
        "global_layer_scores": server.gal.global_scores,
        "payload_params_per_device": payload,
        "trainable_params_device0": trainable,
        "frozen_params_device0": frozen,
        "mask_popcounts_device0": devices[0].mask.popcounts(),
    }
    return reports, summary, server, devices
