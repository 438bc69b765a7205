"""Reference computations that only the tests use: a component-by-component
finite-difference gradient, the per-sample cross-entropy of logits, the
trace of a diagonal FIM, local SGD as a per-layer loop, the init phase as
a loop over the devices, and the Dirichlet partition and stratified split
as loops over the classes and devices."""

import math
from functools import partial

import numpy as np

from fedlora import curriculum, engine, fisher, gal
from fedlora.data import Dataset
from fedlora.linalg import default_step, finite_diff_hessian, make_rng
from fedlora.masking import NeuronMask, build_mask, layer_ratio
from fedlora.network import (apply_update, backward, dataset_loss_grad_flat,
                             flatten_lora, lora_slices)


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


def cross_entropy(logits, labels):
    """Per-sample softmax cross-entropy of `logits` (..., C) against integer
    `labels` of shape logits.shape[:-1], in the order of operations of
    `network.backprop`'s head, so the two agree bit for bit."""
    m = logits.max(axis=-1, keepdims=True)
    s = np.exp(logits - m).sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(logits, np.asarray(labels)[..., None], -1)
    return (m + np.log(s))[..., 0] - picked[..., 0]


def fim_trace(fim):
    """Trace of a FIM (one array per layer): the sum of its entries over
    every layer. Of one sample's full diagonal it is that sample's
    difficulty score."""
    return float(sum(v.sum() for v in fim))


def checked_backward(dev, idx, phase, **kwargs):
    """`backward` over the device's training rows `idx`; a non-finite loss
    or gradient raises ArithmeticError naming the device and the phase."""
    g = backward(dev.net, dev.train.features[idx], dev.train.labels[idx],
                 **kwargs)
    if not (np.isfinite(g.loss).all() and np.isfinite(g.grad).all()):
        raise ArithmeticError(
            f"non-finite loss or gradient on device {dev.k}, {phase}")
    return g


def reference_epoch(dev, cfg, batch_ids, phase, mask=None):
    """One pass of per-batch summed-gradient SGD over the device's batches
    `batch_ids`, in order: per batch one `backward` on the network's own
    adapters and one per-layer `apply_update`. Returns the epoch's mean
    loss."""
    losses = []
    for j in batch_ids:
        g = checked_backward(dev, dev.batches[j], phase, mask=mask)
        apply_update(dev.net, g, cfg.lr)
        losses.append(g.loss)
    return float(np.mean(np.concatenate(losses)))


def reference_local_round(dev, gal_params, t, cfg):
    """`engine.local_round` as a per-layer loop: sync the GAL layers, then
    `local_iterations` epochs of `reference_epoch` over the
    curriculum-selected batches with the device's mask. Returns (update,
    mean of the epochs' mean losses)."""
    for li, (a, b) in gal_params.items():
        dev.net.layers[li].a = a.copy()
        dev.net.layers[li].b = b.copy()
    if cfg.curriculum_on:
        pacing = curriculum.PacingConfig(cfg.beta, cfg.alpha, cfg.pace,
                                         cfg.batch_size, cfg.rounds)
        selected = dev.batch_order[:curriculum.pace_count(pacing, t, dev.n_k)]
    else:
        selected = range(len(dev.batches))
    losses = [reference_epoch(dev, cfg, selected, f"round {t}",
                              dev.mask.per_layer)
              for _ in range(cfg.local_iterations)]
    update = {li: (dev.net.layers[li].a.copy(), dev.net.layers[li].b.copy())
              for li in gal_params}
    return update, float(np.mean(losses))


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
        fim_rows = checked_backward(dev, np.arange(dev.n_k),
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
                fim_rows = checked_backward(dev, np.arange(dev.n_k),
                                            phase).fim_rows
            fim = fisher.momentum_update(
                fim, [rows.mean(axis=0)[:, None] for rows in fim_rows],
                cfg.gamma_m)
        if epoch < cfg.warmup_epochs:
            reference_epoch(dev, cfg, range(len(dev.batches)), phase)

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


def loop_dirichlet_partition(ds, num_devices, concentration, min_shard, seed):
    """`data.dirichlet_partition` as loops over the classes and devices:
    each shard is a list that grows class by class, and every move of the
    rebalance rescans all shard sizes with `min` and `max`. Rows whose
    label lies outside [0, num_classes) are dropped, not rejected."""
    if num_devices > len(ds):
        raise ValueError("more devices than samples")
    rng = make_rng(seed, 0xD1)
    shards = [[] for _ in range(num_devices)]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_devices, concentration))
        counts = np.floor(props * idx.size).astype(int)
        # hand out the rounding remainder to the largest proportions
        for k in np.argsort(-props)[: idx.size - counts.sum()]:
            counts[k] += 1
        off = 0
        for k in range(num_devices):
            shards[k].extend(idx[off:off + counts[k]].tolist())
            off += counts[k]
    if min_shard * num_devices > len(ds):
        raise ValueError("minimum shard size infeasible for this dataset")
    # move samples from the largest shard until everyone has enough
    while True:
        sizes = [len(s) for s in shards]
        needy = min(range(num_devices), key=lambda k: sizes[k])
        if sizes[needy] >= min_shard:
            break
        donor = max(range(num_devices), key=lambda k: sizes[k])
        shards[needy].append(shards[donor].pop())
    return [Dataset(ds.features[np.array(s, dtype=int)],
                    ds.labels[np.array(s, dtype=int)], ds.num_classes)
            for s in shards]


def loop_split(shard, train_fraction, rng):
    """`data.split` as a loop over the classes, each scanning every label;
    rows whose label lies outside [0, num_classes) are dropped, not
    rejected."""
    n = len(shard)
    if n < 2:
        raise ValueError("shard too small to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")
    train_idx, test_idx = [], []
    for c in range(shard.num_classes):
        idx = np.flatnonzero(shard.labels == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        cut = int(round(train_fraction * idx.size))
        cut = min(cut, idx.size - 1) if idx.size > 1 else cut
        train_idx.extend(idx[:cut].tolist())
        test_idx.extend(idx[cut:].tolist())
    if not test_idx:
        test_idx.append(train_idx.pop())
    if not train_idx:
        train_idx.append(test_idx.pop())
    tr = np.array(sorted(train_idx), dtype=int)
    te = np.array(sorted(test_idx), dtype=int)
    return (Dataset(shard.features[tr], shard.labels[tr], shard.num_classes),
            Dataset(shard.features[te], shard.labels[te], shard.num_classes))
