"""Reference computations that only the tests use: a component-by-component
finite-difference gradient, the trace of a diagonal FIM and the init phase
as a loop over the devices."""

import math
from functools import partial

import numpy as np

from fedlora import curriculum, engine, fisher, gal
from fedlora.linalg import default_step, finite_diff_hessian, make_rng
from fedlora.masking import NeuronMask, build_mask, layer_ratio
from fedlora.network import dataset_loss_grad_flat, flatten_lora, lora_slices


def finite_diff_gradient(f, x, h=None):
    """Central-difference gradient of a scalar function, component by component."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_step(x)
    if h <= 0:
        raise ValueError("step must be positive")
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = f(x + e)
        fm = f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ArithmeticError(f"non-finite evaluation at component {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def fim_trace(fim):
    """Trace of a FIM (one array per layer): the sum of its entries over
    every layer. Of one sample's full diagonal it is that sample's
    difficulty score."""
    return float(sum(v.sum() for v in fim))


def per_device_init_phase(devices, cfg):
    """`engine.init_phase` as one loop over the devices: each device's Fisher
    scoring, noise probes, momentum-FIM and warmup epochs and Hessian
    analysis run before the next device starts. The engine runs the
    device-independent passes stacked over every device; this loop is the
    reference it must equal bitwise."""
    for dev in devices:
        if dev.n_k == 0:
            raise ValueError(f"device {dev.k} has no local data")

    num_layers = len(devices[0].net.layers)
    need_analysis = cfg.gal_on or cfg.mask_on
    layer_scores = []
    analysis = {}
    for dev in devices if cfg.curriculum_on or need_analysis else []:
        fim_rows = engine._backward(dev, np.arange(dev.n_k),
                                    "warmup epoch 0").fim_rows
        if cfg.curriculum_on:
            difficulty = sum(rows.sum(axis=1) for rows in fim_rows)
            dev.batch_order = curriculum.sort_batches(
                [float(sum(difficulty[idx])) for idx in dev.batches])
        if need_analysis:
            layer_scores.append((dev.n_k, gal.device_layer_scores(
                dev.net, dev.train.features, dev.train.labels,
                cfg.noise_budget, cfg.p_norm)))
            analysis[dev.k] = _device_init_analysis(dev, cfg, fim_rows)

    if cfg.gal_on:
        global_scores = gal.aggregate_layer_scores(layer_scores)
        n_star = gal.gal_count([(dev.n_k, *analysis[dev.k][1])
                                for dev in devices], num_layers, cfg.mu)
        gal_layers = gal.select_gal(global_scores, n_star)
    else:
        global_scores = np.zeros(num_layers)
        gal_layers = set(range(num_layers))
        n_star = num_layers

    decision = gal.GalDecision(
        gal_layers=gal_layers, n_star=n_star,
        per_device={k: list(ranks) for k, (_, ranks, _) in analysis.items()},
        global_scores=list(map(float, global_scores)))

    for dev in devices:
        per_layer = [None] * num_layers
        if cfg.mask_on:
            fim, _, blocks = analysis[dev.k]
            for li in range(num_layers):
                if li not in gal_layers:
                    per_layer[li] = build_mask(fisher.neuron_scores(fim, li),
                                               layer_ratio(*blocks[li]))
        dev.mask = NeuronMask(per_layer)

    server = engine.ServerState(gal=decision, gal_params={
        li: (l.a, l.b) for li, l in enumerate(devices[0].net.layers)
        if li in gal_layers})
    engine.fedavg_gal(server, [(dev.n_k, {li: (l.a, l.b) for li, l
                                          in enumerate(dev.net.layers)})
                               for dev in devices])
    return server, devices


def _device_init_analysis(dev, cfg, fim_rows):
    """One device's momentum-FIM and warmup epochs, then its Hessian
    analysis; returns (momentum FIM, (r, R), per-layer-block (r, R))."""
    p0 = flatten_lora(dev.net)
    fim = None
    for epoch in range(max(cfg.warmup_epochs, cfg.momentum_epochs)):
        phase = f"warmup epoch {epoch}"
        if epoch < cfg.momentum_epochs:
            if epoch > 0:
                fim_rows = engine._backward(dev, np.arange(dev.n_k),
                                            phase).fim_rows
            fim = fisher.momentum_update(
                fim, [rows.mean(axis=0)[:, None] for rows in fim_rows],
                cfg.gamma_m)
        if epoch < cfg.warmup_epochs:
            engine._train_epoch(dev, cfg, range(len(dev.batches)), phase)

    p_t = flatten_lora(dev.net)
    sub = min(cfg.hessian_samples, dev.n_k)
    grad_fn = partial(dataset_loss_grad_flat, dev.net,
                      dev.train.features[:sub], dev.train.labels[:sub])
    hessian = finite_diff_hessian(grad_fn, p_t)
    delta = p0 - p_t
    radius = float(np.linalg.norm(delta))
    if radius == 0.0:
        lip = math.inf
    else:
        lip = gal.lipschitz_estimate(
            lambda xs: xs @ hessian - grad_fn(xs + p_t), delta, radius,
            cfg.lipschitz_points, make_rng(cfg.seed, 0x11, dev.k))
    return fim, engine._spectrum_rank(hessian, lip), [
        engine._spectrum_rank(hessian[sa.start:sb.stop, sa.start:sb.stop],
                              lip)
        for sa, sb in lora_slices(dev.net)]
